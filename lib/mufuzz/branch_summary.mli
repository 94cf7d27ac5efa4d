(** One execution's branch events, folded once per branch side.

    Every feedback consumer of a campaign — global coverage, frontier
    distances, the seed's path and nested-branch baselines, the
    Algorithm-2 probe verdict, flip-attempt counts and the Algorithm-3
    weights — reads the same per-side facts out of a run's [JUMPI]
    events. A summary holds those facts for each distinct side the run
    visited, so the event lists are walked once per execution instead of
    once per consumer.

    A side [(pc, taken)] is keyed as [pc lsl 1 lor taken]: keys sort like
    the pairs, and the opposite side of [k] is [k lxor 1]. *)

type side = int

val side : int -> bool -> side
val branch : side -> int * bool

module Tbl : Hashtbl.S with type key = side
(** Identity-hashed int tables, for side-keyed lookups. *)

type t = private {
  keys : side array;  (** distinct sides visited, first visit first *)
  hits : int array;  (** events on each side *)
  dists : float array;
      (** smallest [dist_to_flip] over the side's events — its distance
          toward the opposite side; among equal distances the earliest
          event's value is kept, so [0.0] and [-0.0] resolve as a
          per-event fold would *)
  nested : bool array;
      (** some event on the side was at least the second [JUMPI] of its
          transaction — the paper's nested branch *)
  weights : float array;
      (** Algorithm-3 weight: the maximum over the side's events of the
          weight {!Analysis.Prefix.analyze_trace} gives each, ties kept
          at the earliest; empty when the builder does not weigh *)
}
(** One run's facts, index-aligned. Fresh arrays per run, never written
    after {!summarize} returns: a summary outlives the builder's next
    run. Consumers read the arrays directly (no boxed float per read). *)

val path : t -> (int * bool) list
(** Every visited side, sorted. *)

val nested_sides : t -> (int * bool) list
(** The nested sides, sorted. *)

val weighted_sides : t -> ((int * bool) * float) list
(** [(side, weight)] in first-visit order; empty when not weighed. *)

type builder
(** Reusable scratch for {!summarize}, sized by the contract's [JUMPI]
    count and cleared by a generation stamp, not a sweep. One domain at
    a time. *)

val builder : ?weigh:Analysis.Prefix.params -> Analysis.Cfg.t -> builder
(** With [weigh], summaries carry Algorithm-3 weights under those
    parameters; the CFG supplies the flip-side vulnerability bonus. *)

val summarize : builder -> Executor.tx_result list -> t
(** Fold the branch events of a run's transactions, in order; the
    in-transaction ordinal restarts with each transaction. *)
