module Taint = struct
  type t = int

  let none = 0
  let block = 1
  let balance = 2
  let caller = 4
  let origin = 8
  let calldata = 16
  let callvalue = 32
  let callresult = 64
  let storage = 128

  let union = ( lor )
  let has t flag = t land flag <> 0
end

type call_kind = Call | Delegatecall | Staticcall

let call_kind_to_string = function
  | Call -> "CALL"
  | Delegatecall -> "DELEGATECALL"
  | Staticcall -> "STATICCALL"

type cmp_op = Ceq | Clt | Cgt | Cslt | Csgt | Ciszero

let cmp_op_to_string = function
  | Ceq -> "EQ"
  | Clt -> "LT"
  | Cgt -> "GT"
  | Cslt -> "SLT"
  | Csgt -> "SGT"
  | Ciszero -> "ISZERO"

type comparison = {
  cmp_pc : int;
  cmp_op : cmp_op;
  lhs : Word.U256.t;
  rhs : Word.U256.t;
  lhs_taint : Taint.t;
  rhs_taint : Taint.t;
  negated : bool;
}

type event =
  | Branch of { pc : int; taken : bool; dist_to_flip : float;
                cond_taint : Taint.t; cmp : comparison option }
  | Storage_write of { slot : Word.U256.t; value : Word.U256.t; pc : int;
                       after_external_call : bool }
  | Storage_read of { slot : Word.U256.t; pc : int }
  | External_call of {
      id : int;
      pc : int;
      kind : call_kind;
      target : Word.U256.t;
      target_taint : Taint.t;
      value : Word.U256.t;
      gas : int;
      success : bool;
      caller_guard_before : bool;
    }
  | Call_result_checked of { call_id : int }
  | Arith_overflow of { pc : int; op : string; taint : Taint.t }
  | Block_state_use of { pc : int; sink : string }
  | Balance_compare of { pc : int; strict_eq : bool }
  | Origin_use of { pc : int; sink : string }
  | Selfdestruct of { pc : int; caller_guard_before : bool;
                      beneficiary_taint : Taint.t }
  | Value_transfer_out of { pc : int; amount : Word.U256.t }
  | Invalid_reached of { pc : int }
  | Revert_reached of { pc : int }
  | Reentrant_call of { pc : int }
  | Log of { pc : int; topics : Word.U256.t list }
  | Dispatch of { pc : int; consts : Word.U256.t array; passed : int; hit : bool;
                  sel : Word.U256.t; sel_taint : Taint.t; cmps : bool }

(* Group [j] of a dispatch: its JUMPI's pc, whether that JUMPI was
   taken, and its distance to the other side. A taken group's EQ held,
   so [cmp_dist] gives the "make it false" cost 1; a passed one's is the
   gap between its constant and the selector. *)
let[@inline] group_pc pc j = pc + (5 * j) + 4
let[@inline] group_taken ~passed ~hit j = hit && j = passed - 1

let group_dist consts sel ~taken j =
  if taken then 1.0 else Word.U256.to_float_abs_difference consts.(j) sel

(* Pushes the dispatch's [Branch] events onto [acc], last group on top. *)
let rev_dispatch_branches pc consts passed hit sel sel_taint cmps acc =
  let acc = ref acc in
  for j = 0 to passed - 1 do
    let jumpi = group_pc pc j and taken = group_taken ~passed ~hit j in
    let cmp =
      if cmps then
        Some
          { cmp_pc = jumpi - 2; cmp_op = Ceq; lhs = consts.(j); rhs = sel;
            lhs_taint = Taint.none; rhs_taint = sel_taint; negated = false }
      else None
    in
    acc :=
      Branch
        { pc = jumpi; taken; dist_to_flip = group_dist consts sel ~taken j;
          cond_taint = sel_taint; cmp }
      :: !acc
  done;
  !acc

let expand events =
  let rec go acc = function
    | [] -> List.rev acc
    | Dispatch { pc; consts; passed; hit; sel; sel_taint; cmps } :: rest ->
      go (rev_dispatch_branches pc consts passed hit sel sel_taint cmps acc) rest
    | e :: rest -> go (e :: acc) rest
  in
  if List.exists (function Dispatch _ -> true | _ -> false) events then go [] events
  else events

let rec pp_event fmt = function
  | Dispatch _ as e ->
    Format.pp_print_list
      ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ")
      pp_event fmt (expand [ e ])
  | Branch { pc; taken; dist_to_flip; _ } ->
    Format.fprintf fmt "Branch(pc=%d, taken=%b, flip=%g)" pc taken dist_to_flip
  | Storage_write { slot; value; pc; after_external_call } ->
    Format.fprintf fmt "SSTORE(pc=%d, slot=%s, value=%s%s)" pc
      (Word.U256.to_hex_string slot)
      (Word.U256.to_decimal_string value)
      (if after_external_call then ", after-call" else "")
  | Storage_read { slot; pc } ->
    Format.fprintf fmt "SLOAD(pc=%d, slot=%s)" pc (Word.U256.to_hex_string slot)
  | External_call { id; pc; kind; target; value; gas; success; _ } ->
    Format.fprintf fmt "%s(id=%d, pc=%d, to=%s, value=%s, gas=%d, ok=%b)"
      (call_kind_to_string kind) id pc
      (Word.U256.to_hex_string target)
      (Word.U256.to_decimal_string value)
      gas success
  | Call_result_checked { call_id } ->
    Format.fprintf fmt "CallResultChecked(id=%d)" call_id
  | Arith_overflow { pc; op; _ } -> Format.fprintf fmt "Overflow(pc=%d, %s)" pc op
  | Block_state_use { pc; sink } -> Format.fprintf fmt "BlockStateUse(pc=%d, %s)" pc sink
  | Balance_compare { pc; strict_eq } ->
    Format.fprintf fmt "BalanceCompare(pc=%d, eq=%b)" pc strict_eq
  | Origin_use { pc; sink } -> Format.fprintf fmt "OriginUse(pc=%d, %s)" pc sink
  | Selfdestruct { pc; caller_guard_before; _ } ->
    Format.fprintf fmt "Selfdestruct(pc=%d, guarded=%b)" pc caller_guard_before
  | Value_transfer_out { pc; amount } ->
    Format.fprintf fmt "ValueOut(pc=%d, %s)" pc (Word.U256.to_decimal_string amount)
  | Invalid_reached { pc } -> Format.fprintf fmt "Invalid(pc=%d)" pc
  | Revert_reached { pc } -> Format.fprintf fmt "Revert(pc=%d)" pc
  | Reentrant_call { pc } -> Format.fprintf fmt "Reentry(pc=%d)" pc
  | Log { pc; topics } ->
    Format.fprintf fmt "Log(pc=%d, %s)" pc
      (String.concat ", " (List.map Word.U256.to_decimal_string topics))

type status =
  | Success
  | Reverted
  | Invalid_opcode
  | Out_of_gas
  | Stack_error
  | Bad_jump
  | Call_depth_exceeded

let status_to_string = function
  | Success -> "success"
  | Reverted -> "reverted"
  | Invalid_opcode -> "invalid-opcode"
  | Out_of_gas -> "out-of-gas"
  | Stack_error -> "stack-error"
  | Bad_jump -> "bad-jump"
  | Call_depth_exceeded -> "call-depth-exceeded"

type t = {
  status : status;
  events : event list;
  return_data : string;
  gas_used : int;
  steps : int;
}

let succeeded t = t.status = Success

let branches t =
  List.filter_map
    (function Branch { pc; taken; _ } -> Some (pc, taken) | _ -> None)
    (expand t.events)
