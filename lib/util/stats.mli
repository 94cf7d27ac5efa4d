(** Small descriptive-statistics helpers for the benchmark harness. *)

val mean : float list -> float
(** 0 on the empty list. *)

val stddev : float list -> float
(** Population standard deviation; 0 for fewer than two samples. *)

val median : float list -> float
(** 0 on the empty list; the midpoint average on even lengths. *)

val min_max : float list -> float * float
(** (0, 0) on the empty list. *)

