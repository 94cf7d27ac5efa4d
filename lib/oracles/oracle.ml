module T = Evm.Trace
module Taint = Evm.Trace.Taint
module Op = Evm.Opcode

type bug_class = BD | UD | EF | IO | RE | US | SE | TO | UE

let all_classes = [ BD; UD; EF; IO; RE; US; SE; TO; UE ]

let class_to_string = function
  | BD -> "BD" | UD -> "UD" | EF -> "EF" | IO -> "IO" | RE -> "RE"
  | US -> "US" | SE -> "SE" | TO -> "TO" | UE -> "UE"

let class_of_string s =
  List.find_opt (fun c -> class_to_string c = s) all_classes

let class_description = function
  | BD -> "block dependency (timestamp/number influences a decision)"
  | UD -> "unprotected delegatecall"
  | EF -> "ether freezing (accepts value, cannot send any out)"
  | IO -> "integer over-/under-flow"
  | RE -> "reentrancy"
  | US -> "unprotected selfdestruct"
  | SE -> "strict ether equality"
  | TO -> "tx.origin used for authorization"
  | UE -> "unhandled exception (unchecked failing external call)"

type finding = { cls : bug_class; pc : int; tx_index : int; detail : string }

let pp_finding fmt f =
  Format.fprintf fmt "[%s] pc=%d tx#%d: %s" (class_to_string f.cls) f.pc f.tx_index
    f.detail

type static_info = { has_value_out : bool; payable_functions : string list }

let static_info_of (c : Minisol.Contract.t) =
  let has_value_out =
    Array.exists
      (fun op -> op = Op.CALL || op = Op.SELFDESTRUCT)
      c.Minisol.Contract.bytecode
  in
  let payable_functions =
    List.filter_map
      (fun (f : Abi.func) -> if f.payable && not f.is_constructor then Some f.name else None)
      c.Minisol.Contract.abi
  in
  { has_value_out; payable_functions }

(* Attacker-influenceable taint: calldata, call value, persistent storage
   (which earlier transactions can set), or transaction identity. *)
let influenceable t =
  Taint.has t Taint.calldata || Taint.has t Taint.callvalue
  || Taint.has t Taint.storage || Taint.has t Taint.caller
  || Taint.has t Taint.origin

let inspect_trace ~static ~tx_index ~tx_success (trace : T.t) =
  ignore static;
  let findings = ref [] in
  let add cls pc detail = findings := { cls; pc; tx_index; detail } :: !findings in
  (* look-ahead: a call's status check and a reentry can both follow
     the call they concern *)
  let checked_calls, saw_reentry =
    List.fold_left
      (fun ((checked, reentry) as acc) ev ->
        match ev with
        | T.Call_result_checked { call_id } -> (call_id :: checked, reentry)
        | T.Reentrant_call _ when not reentry -> (checked, true)
        | _ -> acc)
      ([], false) trace.events
  in
  let risky_call_seen = ref None in
  List.iter
    (fun ev ->
      match ev with
      | T.Block_state_use { pc; sink } ->
        (* block state contaminating JUMPI / CALL / compare (§IV-D BD) *)
        add BD pc (Printf.sprintf "block state flows into %s" sink)
      | T.Origin_use { pc; sink } ->
        add TO pc (Printf.sprintf "tx.origin flows into %s" sink)
      | T.Balance_compare { pc; strict_eq } ->
        if strict_eq then add SE pc "balance compared with strict equality"
      | T.Arith_overflow { pc; op; taint } ->
        (* only truncations an attacker can influence, in transactions
           that actually commit their effects *)
        if tx_success && influenceable taint then
          add IO pc (Printf.sprintf "%s result truncated mod 2^256" op)
      | T.Selfdestruct { pc; caller_guard_before; _ } ->
        if not caller_guard_before then
          add US pc "selfdestruct reachable without msg.sender check"
      | T.External_call { id; pc; kind; target_taint; value; gas; success;
                          caller_guard_before = _; _ } -> begin
        (match kind with
        | T.Delegatecall ->
          if Taint.has target_taint Taint.calldata then
            add UD pc "delegatecall target supplied by calldata"
        | T.Call ->
          (* candidate reentrancy point: value-bearing call with enough
             gas for the callee to call back *)
          if gas > 2300 && (not (Word.U256.is_zero value))
             && (influenceable target_taint || saw_reentry)
          then risky_call_seen := Some pc
        | T.Staticcall -> ());
        (* UE: a failing call whose status never reaches a JUMPI, in a
           transaction that still succeeds overall *)
        if (not success) && tx_success && not (List.exists (Int.equal id) checked_calls) then
          add UE pc "failing external call result is never checked"
      end
      | T.Storage_write { pc; after_external_call; _ } -> begin
        match !risky_call_seen with
        | Some call_pc when after_external_call && tx_success ->
          add RE call_pc
            (Printf.sprintf "state written at pc=%d after reentrant-capable call" pc)
        | _ -> ()
      end
      | T.Branch _ | T.Dispatch _ | T.Storage_read _ | T.Call_result_checked _
      | T.Invalid_reached _ | T.Revert_reached _ -> ()
      (* a reentry on its own is not a bug: the RE verdict needs the
         state-write-after-call pattern above, which the reentry merely
         confirms via [saw_reentry] *)
      | T.Reentrant_call _ -> ()
      | T.Log _ -> ()
      | T.Value_transfer_out _ -> ())
    trace.events;
  List.rev !findings

let inspect_campaign ~static ~received_value executions =
  let per_tx =
    List.concat_map
      (fun (tx_index, tx_success, trace) ->
        inspect_trace ~static ~tx_index ~tx_success trace)
      executions
  in
  let ef =
    if received_value && not static.has_value_out then
      [ { cls = EF; pc = -1; tx_index = -1;
          detail = "contract accepts ether but has no instruction that can send it out" } ]
    else []
  in
  per_tx @ ef

(* ---------------- triage dedup keys ----------------

   A campaign raises the same alarm hundreds of times; triage groups
   occurrences under (oracle class, program counter, call-path hash).
   The call path is the function-name sequence of the witnessing
   transaction prefix — two alarms at the same pc reached through
   different call sequences are distinct bugs for triage purposes
   (ConFuzzius-style location dedup, refined by path). *)

type key = { k_cls : bug_class; k_pc : int; k_path : string }

let path_hash call_path =
  String.sub (Crypto.Keccak.hash_hex (String.concat "/" call_path)) 0 16

let key_of ~call_path (f : finding) =
  { k_cls = f.cls; k_pc = f.pc; k_path = path_hash call_path }

let key_to_string k =
  Printf.sprintf "%s@%d/%s" (class_to_string k.k_cls) k.k_pc k.k_path

let compare_key (a : key) (b : key) = compare a b

let dedup findings =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun f ->
      let key = (f.cls, f.pc) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.replace seen key ();
        true
      end)
    findings
