(** Algorithm 2: mutation-mask computation (§IV-B).

    For a chosen seed (one transaction's byte stream) and a target branch,
    every stream position is probed with each of the four operator classes
    {O, I, R, D}. A position admits an operator iff the probed mutant
    still hits a nested branch or brings the branch distance down — those
    positions are safe to mutate; the rest are the input's critical bytes
    and the mask forbids touching them. *)

type t
(** One bitset of admitted operator kinds per stream position. *)

type feedback = {
  hits_nested : bool;  (** the mutant still reaches a nested branch *)
  distance_decreased : bool;
      (** the mutant got closer to the target uncovered branch *)
}

val compute :
  Util.Rng.t ->
  stride:int ->
  max_probes:int ->
  probe:(string -> feedback) ->
  string ->
  t
(** [compute rng ~stride ~max_probes ~probe stream] runs Algorithm 2,
    probing positions [0, stride, 2*stride, ...] (positions the stride
    skips inherit the verdict of the probed position covering them). The
    operator width [n] is drawn once per mask, as in the paper.

    Implemented as [plan] followed by [finish] with every probe executed
    — the staged form below is the same algorithm split so a campaign
    can execute the probe mutants under its own budget and on its own
    executor context. *)

(** {2 Staged form}

    [plan] generates every probe mutant up front (drawing from the RNG
    in exactly the order {!compute} does — the width [n] once, then one
    draw sequence per mutant in (position asc, kind) order). The caller
    executes the mutants however it likes — on the coordinator or on a
    worker domain — and hands the feedback back to {!finish}, which folds it into the same mask the
    interleaved {!compute} would have produced. A [None] feedback marks
    a probe that was never executed (budget exhausted); it contributes
    no admitted bits, matching the sequential path's behaviour when the
    probe callback runs out of budget. *)

type probe = {
  probe_pos : int;  (** stream position this probe tests *)
  probe_kind : Mutation.kind;  (** operator class under test *)
  probe_stream : string;  (** the mutant byte stream to execute *)
}

type plan
(** The probe schedule for one mask: mutants in deterministic order. *)

val plan : Util.Rng.t -> stride:int -> max_probes:int -> string -> plan
(** Draw the probe schedule. Consumes the same RNG stream as
    {!compute} with the same arguments. *)

val probes : plan -> probe array
(** All probes in execution order. Do not mutate. *)

val finish : plan -> feedback option array -> t
(** [finish plan feedbacks] builds the mask; [feedbacks.(i)] answers
    probe [i] of {!probes} ([None] = not executed, admits nothing).
    Missing trailing entries are treated as [None]. *)

val allows : t -> Mutation.kind -> pos:int -> bool
(** OKTOMUTATE. Positions beyond the computed range are allowed (streams
    can grow via insertions). *)

val allow_all : int -> t
(** The trivial mask (ablation: mask guidance disabled). *)

val admitted_fraction : t -> float
(** Fraction of (position, kind) pairs admitted — reporting/testing. *)

val to_json : t -> Telemetry.Json.t
(** Checkpoint codec: stride plus one hex digit (the 4-bit kind set) per
    stream position. *)

val of_json : Telemetry.Json.t -> (t, string) result
(** Inverse of {!to_json}: [of_json (to_json t)] yields a mask with
    identical {!allows} behaviour. *)
