(** The MuFuzz campaign: Algorithm 1's seed selection and mutation loop,
    wired to the sequence-aware derivation of §IV-A, the mask guidance of
    §IV-B and the dynamic energy adjustment of §IV-C.

    A campaign is fully deterministic given [Config.rng_seed]: every
    random draw flows from one SplitMix64 stream, and the EVM substrate
    is itself deterministic. *)

(** One seed-pool member as persisted in a {!snapshot}: the seed, its
    cached execution feedback and any Algorithm-2 masks already paid
    for. *)
type snapshot_entry = {
  sn_seed : Seed.t;
  sn_path : (int * bool) list;  (** branch sides the seed covers *)
  sn_nested : (int * bool) list;  (** nested branch hits (mask baselines) *)
  sn_fdists : ((int * bool) * float) list;
      (** best distance toward each frontier side *)
  sn_masks : (int * Mask.t) list;  (** cached masks, by tx index *)
}

(** The complete mutable state of a campaign at a safe point — what
    [lib/persist] serialises into a checkpoint and what [?resume] feeds
    back in. Queue and distance pool share entries by physical identity
    (mask caches mutate them in place), so both are stored as indices
    into the deduplicated [sn_entries] pool; [sn_best] additionally
    records its table's iteration order so a resumed campaign replays
    the uninterrupted one bit-for-bit at [jobs = 1]. *)
exception Preempt
(** An [?on_safe_point] hook may raise this from a {e non-final} safe
    point to yield the campaign cooperatively: the loop exits at once
    with [Report.stop_reason = Preempted] and a normal (partial) report.
    The hook is expected to have forced the snapshot thunk first — the
    captured snapshot is the exact resume point, so
    [run ?resume:(path, snapshot)] later continues the campaign as if it
    had never stopped (report-equivalent at [jobs = 1]). This is the
    time-slice mechanism of the [Serve] scheduler. Raising from a
    [final:true] safe point is a programmer error (the exception would
    escape [run]). *)

type snapshot = {
  sn_execs : int;
  sn_steps : int;
  sn_mask_probes : int;  (** Algorithm-2 budget already consumed *)
  sn_cursor : int;  (** round-robin selection cursor *)
  sn_rng : int64;  (** {!Util.Rng.save} of the campaign stream *)
  sn_rng_counter : int;  (** worker streams dispatched (parallel) *)
  sn_elapsed : float;  (** wall seconds spent before the capture *)
  sn_entries : snapshot_entry array;  (** deduplicated entry pool *)
  sn_queue : int list;  (** selection queue, as pool indices *)
  sn_best : ((int * bool) * float * int) list;
      (** distance pool in table-iteration order: (frontier side, best
          distance, pool index) *)
  sn_coverage : Coverage.t;
  sn_weights : ((int * bool) * float) list option;
      (** Algorithm-3 weights; [None] when dynamic energy is off *)
  sn_findings : (Oracles.Oracle.finding * Seed.t) list;
      (** deduplicated findings with their witness seeds, oldest first *)
  sn_occ : (Oracles.Oracle.key * int) list;  (** occurrence counts *)
  sn_over_time : Report.checkpoint list;  (** coverage growth so far *)
  sn_attempts : ((int * bool) * int) list;
      (** flip-attempt counts per still-uncovered frontier side, sorted;
          drives the input-prediction trigger and is always [[]] when
          [Config.predict] is off *)
  sn_predict_proposals : int;
      (** prediction proposal executions so far, resumed into the
          report's [predict_proposals] total *)
}

val run :
  ?config:Config.t ->
  ?sinks:Telemetry.Sink.t list ->
  ?metrics:Telemetry.Metrics.t ->
  ?resume:string * snapshot ->
  ?on_safe_point:
    (final:bool ->
    bus:Telemetry.Bus.t ->
    execs:int ->
    (unit -> snapshot) ->
    unit) ->
  Minisol.Contract.t ->
  Report.t
(** Fuzz one contract until the execution budget is exhausted. Shuts
    down a parked worker pool first ({!Pool.retire_idle}).

    Persistence: [?on_safe_point] is invoked at every safe point — the
    top of each selection round (or black-box batch) and once more,
    with [final:true], when the loop exits. The thunk builds the
    {!snapshot} only if called, so an idle cadence costs nothing. With
    [?resume:(path, snapshot)] the campaign skips seed bootstrap,
    restores every structure from the snapshot (the [path] only labels
    the [Checkpoint_loaded] telemetry event), and continues; resumed
    sequential campaigns replay the uninterrupted run exactly, modulo
    wall-clock fields.

    Telemetry: the campaign emits {!Telemetry.Event.t} values to a bus
    assembled from [config.trace_path] / [config.status_interval] plus
    any [sinks] given here, and records counters/gauges into [metrics]
    (a private registry is created when omitted). With no sinks
    configured the bus is {!Telemetry.Bus.null} and every emission is a
    single array-length test, so default campaigns behave bit-for-bit
    as before. *)

val run_parallel :
  ?config:Config.t ->
  ?pool:Pool.t ->
  ?sinks:Telemetry.Sink.t list ->
  ?metrics:Telemetry.Metrics.t ->
  ?resume:string * snapshot ->
  ?on_safe_point:
    (final:bool ->
    bus:Telemetry.Bus.t ->
    execs:int ->
    (unit -> snapshot) ->
    unit) ->
  Minisol.Contract.t ->
  Report.t
(** Multicore campaign: seed-energy batches are sharded across a
    {!Pool} of worker domains, each with its own executor context, a
    private RNG stream ({!Util.Rng.derive}) and a domain-local coverage
    map merged commutatively into the global map at batch boundaries.
    All seed-queue, mask-budget and energy updates are applied by the
    coordinator between rounds, so Algorithms 1-3 are semantically
    unchanged. With [jobs <= 1] (the [Config.default]) this IS {!run} —
    same code path, bit-for-bit identical results. Parallel runs are
    reproducible for a fixed [(rng_seed, jobs)] pair.

    An explicit [pool] overrides [config.jobs]; otherwise a pool of
    [config.jobs] workers is borrowed with {!Pool.with_borrowed}, so
    back-to-back campaigns reuse one set of parked worker domains
    instead of spawning and joining their own.

    Telemetry follows {!run}: workers emit [Exec_completed] and
    [Mask_updated] from their domains (the bus serialises sink calls),
    the coordinator emits queue/finding/energy events plus one
    [Batch_merge] and the per-round [New_branch_side] diff after each
    merge, and a borrowed pool reports [Pool_steal] events through the
    same bus. *)

type failure = { failed_contract : string; failed_reason : string }
(** One corpus member whose deploy or campaign raised. Fleet-scale runs
    fold these into the aggregate report instead of dying on the first
    bad contract. *)

val run_result :
  ?config:Config.t ->
  ?sinks:Telemetry.Sink.t list ->
  ?metrics:Telemetry.Metrics.t ->
  ?resume:string * snapshot ->
  ?on_safe_point:
    (final:bool ->
    bus:Telemetry.Bus.t ->
    execs:int ->
    (unit -> snapshot) ->
    unit) ->
  Minisol.Contract.t ->
  (Report.t, failure) result
(** {!run}, but any exception the contract's deploy or campaign raises
    (including a {!Pool.Task_error} from a worker domain) is caught and
    returned as a structured {!failure}. {!Preempt} is re-raised — a
    cooperative yield is not a failure. *)

val run_many :
  ?config:Config.t ->
  ?pool:Pool.t ->
  Minisol.Contract.t list ->
  (Report.t, failure) result list
(** Batch mode: one sequential campaign per contract, sharded across the
    pool (the bench-harness granularity). Result order follows the input
    order; a contract that raises yields an [Error] entry and the rest
    of the population keeps fuzzing (fleet runs must survive bad corpus
    members). Without a pool (or with a 1-worker pool) this is
    [List.map] of {!run_result}. *)

val derive_sequence : Minisol.Contract.t -> string list
(** The §IV-A sequence for a contract (constructor excluded), exposed
    for examples and tests. *)

val mask_feedback :
  baseline_nested:Coverage.branch list ->
  baseline_dists:(Coverage.branch * float) list ->
  Branch_summary.t ->
  Mask.feedback
(** Algorithm-2 probe verdict against a seed's baselines: the run's
    summary holds a baseline nested side, or some side of it is closer
    to its twin than that twin's baseline distance. Partially apply the
    baselines once per mask run and reuse the closure across probes. *)

val note_flip_attempts :
  coverage:Coverage.t ->
  (Coverage.branch, int) Hashtbl.t ->
  Branch_summary.t ->
  unit
(** Count a run's visits toward still-uncovered sides (one per event on
    the opposite side) into the attempts table that triggers input
    prediction. *)
