module Op = Evm.Opcode

type t = {
  code : Evm.Bytecode.t;
  vuln : (int * string) list;
  reaches : bool array;  (* pc -> some vulnerable pc is reachable from it *)
}

let static_target code i =
  (* Our compiler always emits PUSH <label>; JUMP/JUMPI. *)
  if i > 0 then
    match code.(i - 1) with
    | Op.PUSH v -> Word.U256.to_int_opt v
    | _ -> None
  else None

let successors_raw code i =
  if i < 0 || i >= Array.length code then []
  else
    match code.(i) with
    | Op.STOP | Op.RETURN | Op.REVERT | Op.INVALID | Op.SELFDESTRUCT -> []
    | Op.JUMP -> ( match static_target code i with Some t -> [ t ] | None -> [])
    | Op.JUMPI -> begin
      let fall = [ i + 1 ] in
      match static_target code i with Some t -> t :: fall | None -> fall
    end
    | _ -> if i + 1 < Array.length code then [ i + 1 ] else []

let classify_vulnerable code i =
  match code.(i) with
  | Op.CALL -> Some "call"
  | Op.DELEGATECALL -> Some "delegatecall"
  | Op.SELFDESTRUCT -> Some "selfdestruct"
  | Op.TIMESTAMP | Op.NUMBER | Op.BLOCKHASH | Op.COINBASE | Op.DIFFICULTY ->
    Some "block-state"
  | Op.BALANCE | Op.SELFBALANCE -> Some "balance"
  | Op.ORIGIN -> Some "origin"
  | Op.ADD | Op.SUB | Op.MUL -> Some "arithmetic"
  | _ -> None

(* One backward pass: seed the vulnerable pcs, then walk predecessor
   edges. Jump targets outside the code have no successors and are never
   vulnerable, so they cannot reach anything and are left out. *)
let reaches_table code vuln =
  let n = Array.length code in
  let preds = Array.make n [] in
  for i = 0 to n - 1 do
    List.iter
      (fun s -> if s >= 0 && s < n then preds.(s) <- i :: preds.(s))
      (successors_raw code i)
  done;
  let reaches = Array.make n false in
  let rec mark = function
    | [] -> ()
    | i :: rest when reaches.(i) -> mark rest
    | i :: rest ->
      reaches.(i) <- true;
      mark (List.rev_append preds.(i) rest)
  in
  mark (List.map fst vuln);
  reaches

let build code =
  let vuln = ref [] in
  Array.iteri
    (fun i _ ->
      match classify_vulnerable code i with
      | Some cls -> vuln := (i, cls) :: !vuln
      | None -> ())
    code;
  let vuln = List.rev !vuln in
  { code; vuln; reaches = reaches_table code vuln }

let successors t i = successors_raw t.code i

let branch_points t =
  let acc = ref [] in
  Array.iteri (fun i op -> if op = Op.JUMPI then acc := i :: !acc) t.code;
  List.rev !acc

let branch_successor t i ~taken =
  if taken then static_target t.code i
  else if i + 1 < Array.length t.code then Some (i + 1)
  else None

let vulnerable_pcs t = t.vuln

let reachable t start =
  let set = Hashtbl.create 64 in
  let rec dfs i =
    if not (Hashtbl.mem set i) then begin
      Hashtbl.replace set i ();
      List.iter dfs (successors t i)
    end
  in
  dfs start;
  set

let reaches_vulnerable t pc = pc >= 0 && pc < Array.length t.reaches && t.reaches.(pc)
