type weighted_branch = {
  pc : int;
  taken : bool;
  nested_score : int;
  vulnerable : bool;
  flip_vulnerable : bool;
  weight : float;
}

type params = { nested_coeff : float; vuln_bonus : float }

let default_params = { nested_coeff = 1.0; vuln_bonus = 5.0 }

let is_vulnerable_event (e : Evm.Trace.event) =
  match e with
  | External_call _ | Selfdestruct _ | Block_state_use _ | Balance_compare _
  | Origin_use _ | Arith_overflow _ | Value_transfer_out _ ->
    true
  | Branch _ | Dispatch _ | Storage_write _ | Storage_read _ | Call_result_checked _
  | Invalid_reached _ | Revert_reached _ | Reentrant_call _ | Log _ ->
    false

let flip_vulnerable cfg ~pc ~taken =
  match Cfg.branch_successor cfg pc ~taken:(not taken) with
  | Some succ -> Cfg.reaches_vulnerable cfg succ
  | None -> false

let analyze_trace ?(params = default_params) cfg (trace : Evm.Trace.t) =
  (* Walk the path once; for each branch event record its prefix nesting
     count, then in a second pass check whether a vulnerable event follows
     it (Algorithm 3's ISVULNERABLEINSTRUCTREACHED on the exercised path). *)
  let events = Array.of_list (Evm.Trace.expand trace.events) in
  let n = Array.length events in
  let vulnerable_after = Array.make (n + 1) false in
  for i = n - 1 downto 0 do
    vulnerable_after.(i) <- vulnerable_after.(i + 1) || is_vulnerable_event events.(i)
  done;
  let nested = ref 0 in
  let out = ref [] in
  Array.iteri
    (fun i e ->
      match e with
      | Evm.Trace.Branch { pc; taken; _ } ->
        incr nested;
        let vulnerable = vulnerable_after.(i + 1) in
        let flip_vulnerable = flip_vulnerable cfg ~pc ~taken in
        let weight =
          (params.nested_coeff *. float_of_int !nested)
          +. (if vulnerable || flip_vulnerable then params.vuln_bonus else 0.0)
        in
        out :=
          { pc; taken; nested_score = !nested; vulnerable; flip_vulnerable; weight }
          :: !out
      | _ -> ())
    events;
  List.rev !out

let weight_table ?(params = default_params) cfg traces =
  let tbl = Hashtbl.create 128 in
  List.iter
    (fun trace ->
      List.iter
        (fun wb ->
          let key = (wb.pc, wb.taken) in
          match Hashtbl.find_opt tbl key with
          | Some w when w >= wb.weight -> ()
          | _ -> Hashtbl.replace tbl key wb.weight)
        (analyze_trace ~params cfg trace))
    traces;
  tbl
