(** Branch coverage and branch-distance bookkeeping.

    A branch identity is [(pc, taken)] — a basic-block transition out of a
    [JUMPI], the unit the paper's coverage numbers count. For every branch
    side not yet covered, the table remembers the smallest distance any
    execution has come to flipping onto it (the sFuzz feedback of
    §IV-B). *)

type branch = int * bool

type t

val create : unit -> t

val record : t -> Evm.Trace.t -> bool
(** Folds one trace in; returns [true] iff a new branch side was covered. *)

val record_run : t -> Branch_summary.t -> bool
(** Folds one execution in through its summary; leaves the table exactly
    as {!record} over each of the run's traces in order would, and
    returns the same freshness. *)

val copy : t -> t
(** Independent snapshot; the copy and the original evolve separately.
    Worker domains fuzz against a copy of the global map and the
    coordinator folds them back with {!merge}. *)

val merge : into:t -> t -> unit
(** [merge ~into:dst src] folds [src]'s coverage into [dst]: the covered
    sets union, best distances take the minimum, and distances toward
    sides that became covered are dropped. Commutative and idempotent
    over the observable state, so per-domain maps may be merged in any
    order at batch boundaries. *)

val is_covered : t -> branch -> bool

val covered_count : t -> int

val covered : t -> branch list

val uncovered_frontier : t -> branch list
(** Branch sides whose opposite side has been executed but which remain
    uncovered — the reachable-but-unexplored frontier that seed selection
    targets. *)

val best_distance : t -> branch -> float option
(** Smallest flip distance ever observed toward this uncovered side. *)

val frontier_dists : t -> Branch_summary.t -> (branch * float) list
(** One execution's distances toward this map's uncovered frontier:
    each {!uncovered_frontier} side the run approached (visited its
    covered twin), with the smallest distance over those visits (the
    earliest on ties), sorted by side. *)

val total_sides_known : t -> int
(** Number of distinct (pc, side) identities known = covered + frontier. *)

val to_json : t -> Telemetry.Json.t
(** Checkpoint codec: hit counts and frontier distances in canonical
    sorted order, so equal coverage states render to identical bytes. *)

val of_json : Telemetry.Json.t -> (t, string) result
(** Inverse of {!to_json}; enforces the invariant that distances are
    only tracked for uncovered sides. *)
