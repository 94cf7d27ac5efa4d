(** Structured execution traces.

    The interpreter does not log raw opcode streams; it emits exactly the
    events that the coverage instrumentation (branch identity + branch
    distance, §IV-B of the paper), the energy scheduler (path-prefix
    nesting and vulnerable-instruction reachability, Algorithm 3) and the
    nine bug oracles (§IV-D) consume. *)

(** Taint flags carried by every stack value; unioned through arithmetic
    and comparisons. *)
module Taint : sig
  type t = int

  val none : t

  (** Sources, in order: TIMESTAMP/NUMBER/BLOCKHASH/COINBASE/DIFFICULTY;
      BALANCE/SELFBALANCE; CALLER; ORIGIN; CALLDATALOAD; CALLVALUE; the
      status word of an external CALL; values loaded from persistent
      storage. *)

  val block : t

  val balance : t
  val caller : t
  val origin : t
  val calldata : t
  val callvalue : t
  val callresult : t
  val storage : t

  val union : t -> t -> t
  val has : t -> t -> bool
end

type call_kind = Call | Delegatecall | Staticcall

val call_kind_to_string : call_kind -> string

(** Operator of the comparison a JUMPI condition derives from.
    [Ciszero] is a bare ISZERO on a non-comparison value (a zero test);
    ISZEROs {e applied to} a comparison toggle {!comparison.negated}
    instead. *)
type cmp_op = Ceq | Clt | Cgt | Cslt | Csgt | Ciszero

val cmp_op_to_string : cmp_op -> string

(** The comparison site a branch condition was computed from, with the
    concrete operands observed at run time — the raw material for
    Harvey-style input prediction. For [Ciszero], [rhs] is zero and only
    [lhs] is meaningful. The branch condition equals
    [eval cmp_op lhs rhs] XOR [negated], except when the comparison
    reached the JUMPI through AND/OR (then it is one conjunct's site,
    kept as a flipping hint). *)
type comparison = {
  cmp_pc : int;  (** instruction index of the comparison opcode *)
  cmp_op : cmp_op;
  lhs : Word.U256.t;
  rhs : Word.U256.t;
  lhs_taint : Taint.t;
  rhs_taint : Taint.t;
  negated : bool;  (** odd number of ISZEROs between comparison and JUMPI *)
}

type event =
  | Branch of {
      pc : int;  (** instruction index of the JUMPI *)
      taken : bool;
      dist_to_flip : float;
          (** sFuzz-style branch distance to the side {e not} taken;
              [1.0] when the condition carried no comparison info. *)
      cond_taint : Taint.t;
      cmp : comparison option;
          (** comparison site the condition derives from, if any *)
    }
  | Storage_write of { slot : Word.U256.t; value : Word.U256.t; pc : int;
                       after_external_call : bool }
  | Storage_read of { slot : Word.U256.t; pc : int }
  | External_call of {
      id : int;  (** unique per transaction, for result-check pairing *)
      pc : int;
      kind : call_kind;
      target : Word.U256.t;
      target_taint : Taint.t;
      value : Word.U256.t;
      gas : int;
      success : bool;
      caller_guard_before : bool;
          (** a msg.sender comparison happened earlier in this frame *)
    }
  | Call_result_checked of { call_id : int }
      (** the status word of call [call_id] reached a JUMPI *)
  | Arith_overflow of { pc : int; op : string; taint : Taint.t }
      (** an ADD/SUB/MUL result was truncated mod 2^256 *)
  | Block_state_use of { pc : int; sink : string }
      (** block-tainted value consumed by "jumpi" | "call" | "compare" *)
  | Balance_compare of { pc : int; strict_eq : bool }
  | Origin_use of { pc : int; sink : string }
  | Selfdestruct of { pc : int; caller_guard_before : bool;
                      beneficiary_taint : Taint.t }
  | Value_transfer_out of { pc : int; amount : Word.U256.t }
  | Invalid_reached of { pc : int }
  | Revert_reached of { pc : int }
  | Reentrant_call of { pc : int }
      (** the simulated attacker re-entered the contract *)
  | Log of { pc : int; topics : Word.U256.t list }
      (** an event emission (LOGn) *)
  | Dispatch of {
      pc : int;  (** instruction index of the chain's first [DUP 1] *)
      consts : Word.U256.t array;
          (** the chain's compared constants, group by group — the
              {!Bytecode.chain}'s own array, shared, never copied *)
      passed : int;  (** groups evaluated, at least one *)
      hit : bool;  (** the last evaluated group's [JUMPI] was taken *)
      sel : Word.U256.t;  (** the selector word every group compared *)
      sel_taint : Taint.t;
      cmps : bool;  (** comparison records were on *)
    }
      (** A selector-dispatcher chain resolved in one step: it stands for
          one [Branch] per evaluated group, exactly the events
          {!expand} returns. Consumers that only count or walk branches
          can fold it directly with {!group_pc}, {!group_taken} and
          {!group_dist}; everything else reads the expansion. *)

val expand : event list -> event list
(** Replaces each [Dispatch] by its groups' [Branch] events, in order,
    leaving every other event in place. Group [j] of a dispatch at [pc]
    is the [Branch] its [JUMPI] would have emitted: pc [group_pc pc j],
    taken only for the last group when [hit], distance
    [group_dist consts sel ~taken j], taint [sel_taint], and, when
    [cmps], the [Ceq] comparison of [consts.(j)] (lhs, untainted) with
    [sel] (rhs) at the group's [EQ], [pc - 2]. A list without a
    [Dispatch] is returned as is. *)

val group_pc : int -> int -> int
(** [group_pc pc j]: the [JUMPI] of group [j] of the chain at [pc]. *)

val group_taken : passed:int -> hit:bool -> int -> bool

val group_dist : Word.U256.t array -> Word.U256.t -> taken:bool -> int -> float
(** Group [j]'s [dist_to_flip]: [1.0] when taken (an [EQ] that holds),
    otherwise the absolute difference of [consts.(j)] and the
    selector. *)

val pp_event : Format.formatter -> event -> unit
(** A [Dispatch] prints as its expansion, separated by ["; "]. *)

type status =
  | Success
  | Reverted
  | Invalid_opcode
  | Out_of_gas
  | Stack_error
  | Bad_jump
  | Call_depth_exceeded

val status_to_string : status -> string

(** A completed transaction execution. *)
type t = {
  status : status;
  events : event list;  (** in execution order *)
  return_data : string;
  gas_used : int;
  steps : int;  (** opcodes dispatched, across all frames of the call *)
}

val succeeded : t -> bool

val branches : t -> (int * bool) list
(** Branch identities [(pc, taken)] in order, dispatches expanded — the
    paper's basic-block transition coverage unit. *)
