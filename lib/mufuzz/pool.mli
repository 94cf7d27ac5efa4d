(** Work-stealing pool of stdlib [Domain]s (OCaml ≥ 5.1, no external
    dependencies).

    The campaign coordinator deals batches of seed-energy tasks across
    worker domains; each worker pops from its own deque and steals from a
    sibling when it runs dry, so an uneven batch (one seed with a long
    mask probe, say) does not leave cores idle. The pool is persistent —
    domains are spawned once and parked between batches — because a
    fuzzing round is far too short to amortise [Domain.spawn].

    One batch may be in flight at a time ({!run_batch} raises
    [Invalid_argument] on overlap); the pool itself is driven from a
    single coordinator domain.

    Pools outlive campaigns: {!with_borrowed} parks its pool in a
    process-wide idle slot for the next caller, and an [at_exit] handler
    shuts the parked pool down. Per-domain memos in the executor and
    interpreter (executor state, bytecode artefacts, SHA3 preimages)
    therefore survive between campaigns; they are pure and capped, and
    the ABI selector memo grows only with distinct function signatures.
    OCaml 5's [Unix.fork] refuses to run while other domains exist, so a
    program that forks must do so before its first borrow or not at all;
    nothing in this repository forks ([Unix.create_process] is fine). *)

type t

val max_jobs : int
(** 64: the most worker domains a pool may have, well below the
    runtime's limit of 128 live domains. *)

val check_jobs : int -> (int, string) result
(** [check_jobs n] is [Ok (max 1 n)] when [n <= max_jobs], else an
    error message naming the cap. Every [jobs] setting (the [fuzz] and
    [serve] command lines, a service submission) is checked with it. *)

val create :
  ?bus:Telemetry.Bus.t -> ?metrics:Telemetry.Metrics.t -> jobs:int -> unit -> t
(** Spawn [max 1 jobs] worker domains, parked until work arrives.
    @raise Invalid_argument when [jobs > max_jobs], before spawning any.
    With [bus], every work-stealing event is emitted as
    [Pool_steal {thief; victim}]; with [metrics], workers record
    [mufuzz_pool_tasks_total] and [mufuzz_pool_steals_total] through
    lock-free counters, and the coordinator publishes the cumulative
    [mufuzz_pool_merge_wait_seconds] / [mufuzz_pool_worker_idle_seconds]
    gauges (totals since the telemetry was bound) at the end of every
    batch. Both default to off (no overhead). *)

val size : t -> int
(** Number of worker domains. *)

val run_batch : t -> (int -> 'a) array -> 'a array
(** [run_batch t tasks] deals [tasks] round-robin across the workers and
    blocks until all complete, returning results in submission order.
    Each task receives the id (in [0 .. size-1]) of the worker that ran
    it, for indexing per-domain scratch state such as executor caches. *)

exception Task_error of exn
(** Raised by {!run_batch} / {!run_batch_iter} (after the whole batch
    has drained) when a task or merge raised; carries the first
    failure. *)

val run_batch_iter :
  t -> (int -> 'a) array -> merge:(int -> 'a -> unit) -> unit
(** Like {!run_batch}, but instead of a stop-the-world barrier followed
    by a serial merge pass, [merge i result] runs on the coordinator in
    submission order {e as each result completes} — merging task 0
    overlaps with workers still executing tasks 1..n. Submission order
    makes the merge sequence deterministic regardless of completion
    order, so campaign results are independent of scheduling. Returns
    once every task has drained and every merge has run. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map t f items] runs [f] on every item across the pool, preserving
    order — the cross-contract sharding used by the bench harness. *)

type stats = {
  tasks_run : int array;  (** per-worker completed task count *)
  busy_seconds : float array;  (** per-worker time spent inside tasks *)
  stall_seconds : float array;
      (** per-worker time parked while a batch was still in flight —
          waiting for siblings to finish so the coordinator can merge *)
  merge_wait_seconds : float;
      (** coordinator time blocked at batch barriers while the workers
          run: inside {!run_batch}'s drain and {!run_batch_iter}'s
          per-index and final waits. It is not merge work and overlaps
          worker busy time, so it measures how long the coordinator had
          nothing to do, not a serial-phase cost *)
  steals : int;  (** tasks taken from a sibling's deque *)
}

val stats : t -> stats
(** Cumulative since {!create}. *)

val shutdown : t -> unit
(** Drain, stop and join every worker domain. The pool must not be used
    afterwards. *)

val with_pool :
  ?bus:Telemetry.Bus.t -> ?metrics:Telemetry.Metrics.t -> jobs:int ->
  (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool and always shuts it
    down, including on exceptions. *)

val with_borrowed :
  ?bus:Telemetry.Bus.t -> ?metrics:Telemetry.Metrics.t -> jobs:int ->
  (t -> 'a) -> 'a
(** [with_borrowed ~jobs f] runs [f] with the parked idle pool when it
    has [max 1 jobs] workers, and otherwise shuts the parked pool down
    and creates one. Telemetry is bound as by {!create} for the duration
    of [f], with the wait gauges counting from the borrow. Afterwards
    the pool is detached from [bus] and [metrics] and parked if no batch
    is in flight and the slot is empty (a concurrent borrower may have
    filled it); any other pool is shut down. So concurrent callers each
    get their own pool, and at most one pool's workers stay parked. *)

val retire_idle : unit -> unit
(** Shut the parked pool down, if there is one. Parked domains still
    join OCaml 5's stop-the-world minor collections, which made a
    sequential campaign about 25% slower on a 2-vCPU host, so long
    single-domain work retires the pool first ([Campaign.run] does). *)
