(** The event bus: fan-out of campaign {!Event}s to attached
    {!Sink}s.

    The sink set is fixed at creation, which is what makes the no-op
    guarantee safe to check without synchronisation: {!null} (the
    default bus everywhere in the fuzzer) carries no sinks, so
    {!emit} on it is one immutable array-length test — campaigns run
    with no telemetry attached are bit-for-bit identical to builds
    that predate the subsystem.

    With sinks attached, [emit] serialises delivery under a mutex, so
    events may be emitted concurrently from worker domains (the
    parallel campaign does exactly that for [Exec_completed]). *)

type t

val null : t
(** The no-op bus: no sinks, {!emit} returns immediately. *)

val create : Sink.t list -> t
(** A bus delivering to the given sinks in order. An empty list gives
    a fresh no-op bus. *)

val enabled : t -> bool
(** [false] exactly when the bus has no sinks. Guard any emission
    whose payload is costly to construct. *)

val emit : t -> Event.t -> unit
(** An exception raised by a sink propagates to the caller; the bus
    lock is released first, so later emits (from any domain) proceed. *)

val finalize : t -> unit
(** Run every sink's [on_finalize] once (idempotent; later {!emit}s
    are dropped). Flushes the JSONL trace, prints the last status
    line. *)
