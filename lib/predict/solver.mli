(** Magic-value solving over recorded comparison sites (Harvey-style
    input prediction, ROADMAP item 3).

    Pure value-level reasoning: given the {!Evm.Trace.comparison} a
    branch condition derives from, compute replacement values for the
    fuzzer-controlled operand that flip the condition. Mapping values
    back into seed bytes is {!Inject}'s job; choosing when to fire is
    the campaign's. *)

type side = Lhs | Rhs

val smin : Word.U256.t
(** Two's-complement most-negative word, [2^255]. *)

val smax : Word.U256.t
(** Two's-complement most-positive word, [2^255 - 1]. *)

val eval : Evm.Trace.cmp_op -> Word.U256.t -> Word.U256.t -> bool
(** Concrete comparison semantics ([Ciszero] ignores its second
    argument). *)

val eval_cond : Evm.Trace.comparison -> lhs:Word.U256.t -> rhs:Word.U256.t -> bool
(** Branch-condition truth for the given operand values: {!eval} of the
    operator, negated once if an ISZERO chain inverted the comparison on
    its way to the JUMPI. *)

val input_controlled : Evm.Trace.Taint.t -> bool
(** Does this taint mark a value the fuzzer can steer — calldata bytes,
    msg.value, or the sender choice (CALLER)? *)

val controlled_sides : Evm.Trace.comparison -> side list

val candidates : Evm.Trace.comparison -> want:bool -> (side * Word.U256.t) list
(** [candidates c ~want] proposes [(side, value)] pairs such that
    setting that operand to that value (the other held at its observed
    value) makes the branch condition equal [want]: the exact value for
    EQ, boundary ±1 for LT/GT, two's-complement boundaries and extremes
    for SLT/SGT, zero/non-zero for ISZERO. Every returned pair is
    verified against {!eval_cond}, so the flip is guaranteed at the
    value level. Sides the fuzzer does not control propose nothing. *)

val side_taint : Evm.Trace.comparison -> side -> Evm.Trace.Taint.t
val side_value : Evm.Trace.comparison -> side -> Word.U256.t
