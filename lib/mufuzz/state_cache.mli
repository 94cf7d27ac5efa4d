(** Prefix state caching — the optimisation the paper's §VI names as
    future work: instead of re-executing every transaction of a sequence
    from a fresh state, the executor resumes from the deepest cached
    intermediate state whose transaction prefix matches.

    Keys are chained Keccak digests of the transaction descriptors
    (function selector, sender index, input stream), so a seed whose
    mutation touched only transaction [k] replays transactions
    [0..k-1] for free. Caching is semantically transparent: executions
    produce bit-identical results with it on or off (tests assert this);
    only throughput changes. Campaigns no longer use it — the digest and
    snapshot cost outweighed the replay it saved (EXPERIMENTS.md §VI) —
    but the executor keeps the [?cache] hook for replay measurements. *)

type t

type snapshot = {
  state : Evm.State.t;
  block : Evm.Interp.block_env;
  tx_results : Executor_types.tx_result list;  (** in execution order *)
  received_value : bool;
}

val create : ?capacity:int -> ?metrics:Telemetry.Metrics.t -> unit -> t
(** [capacity] bounds the number of snapshots (default 4096). When the
    cache is full a second-chance clock evicts one cold entry per
    insertion — recently hit snapshots survive, so a full cache keeps
    serving the prefixes the mutation loop is actively exercising. With
    [metrics], maintains [mufuzz_cache_hits_total],
    [mufuzz_cache_misses_total] and [mufuzz_cache_evictions_total] —
    updated only by {!flush_metrics}, so the lookup path itself never
    touches a shared cache line. *)

val flush_metrics : t -> unit
(** Push hit/miss/eviction counts accumulated since the last flush into
    the registry counters given at {!create}. Without metrics, a no-op.
    Call from the owning domain at a batch boundary. *)

val digest_tx : string -> Seed.tx -> string
(** [digest_tx prev tx] chains the prefix digest with this transaction's
    descriptor. The empty string is the root digest. *)

val find : t -> string -> snapshot option

val store : t -> string -> snapshot -> unit

val hits : t -> int
val misses : t -> int

val evictions : t -> int
(** Entries removed by the clock hand since [create]. *)
