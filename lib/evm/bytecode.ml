type t = Opcode.t array

let push_width v =
  let bits = Word.U256.bit_length v in
  Stdlib.max 1 ((bits + 7) / 8)

let byte_size code =
  Array.fold_left
    (fun acc op ->
      match op with Opcode.PUSH v -> acc + 1 + push_width v | _ -> acc + 1)
    0 code

let jumpdests code =
  let tbl = Hashtbl.create 64 in
  Array.iteri (fun i op -> if op = Opcode.JUMPDEST then Hashtbl.replace tbl i ()) code;
  tbl

let pp fmt code =
  Array.iteri
    (fun i op -> Format.fprintf fmt "%4d  %s@." i (Opcode.to_string op))
    code

let to_listing code = Format.asprintf "%a" pp code

(* Pre-decoded code artifact: everything the interpreter's hot loop needs
   that is a pure function of the bytecode, computed once per program
   instead of once per frame. [jumpdests] above builds a hash table on
   every call — in the original interpreter this happened on every
   [exec_frame], i.e. on every transaction AND every subcall. The
   artifact replaces the table with a bitmap (one bit per instruction,
   an indexed load and a mask) and caches [byte_size] and the
   push-constant dictionary. *)

type chain = {
  ch_start : int;
  ch_consts : Word.U256.t array;
  ch_dests : int array;
}

type artifact = {
  a_code : t;
  a_jumpdest : Bytes.t;  (* bit [pc land 7] of byte [pc lsr 3]: pc is a JUMPDEST *)
  a_byte_size : int;
  a_push_constants : Word.U256.t array;
  a_chains : chain array;  (* sorted by [ch_start] *)
}

(* Bits past the last instruction are clear, so the bound is the
   bitmap's, not the code's. Inlined: every JUMP and JUMPI asks. *)
let[@inline] is_jumpdest art pc =
  pc >= 0
  && pc lsr 3 < Bytes.length art.a_jumpdest
  && Char.code (Bytes.unsafe_get art.a_jumpdest (pc lsr 3)) land (1 lsl (pc land 7)) <> 0

(* Selector-dispatcher chains. Minisol's dispatcher is one
   [DUP 1; PUSH c; EQ; PUSH d; JUMPI] group per external function, and
   every transaction walks it linearly before reaching contract logic.
   A group holds no JUMPDEST, so control enters a maximal run of groups
   only at its first [DUP 1]; the interpreter resolves the whole run
   there at once. The table is sparse (a contract has one dispatcher),
   so looking a pc up costs a binary search over a handful of starts. *)

let group_at code p =
  p + 4 < Array.length code
  &&
  match (code.(p), code.(p + 1), code.(p + 2), code.(p + 3), code.(p + 4)) with
  | Opcode.DUP 1, PUSH _, EQ, PUSH _, JUMPI -> true
  | _ -> false

let push_operand code p =
  match code.(p) with Opcode.PUSH v -> v | _ -> assert false

let chains code =
  let n = Array.length code in
  let acc = ref [] in
  let p = ref 0 in
  while !p < n do
    if group_at code !p then begin
      let start = !p in
      while group_at code !p do
        p := !p + 5
      done;
      let groups = (!p - start) / 5 in
      if groups >= 2 then
        acc :=
          {
            ch_start = start;
            ch_consts = Array.init groups (fun k -> push_operand code (start + (5 * k) + 1));
            ch_dests =
              Array.init groups (fun k ->
                  match Word.U256.to_int_opt (push_operand code (start + (5 * k) + 3)) with
                  | Some d -> d
                  | None -> -1);
          }
          :: !acc
    end
    else incr p
  done;
  Array.of_list (List.rev !acc)

(* Top-level, so a lookup (one per executed [DUP 1]) allocates no
   closure. *)
let rec search chains pc lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) / 2 in
    let s = chains.(mid).ch_start in
    if s = pc then mid
    else if s < pc then search chains pc (mid + 1) hi
    else search chains pc lo mid

let find_chain art pc = search art.a_chains pc 0 (Array.length art.a_chains)

(* Per-domain memo keyed by physical equality. A fuzzing campaign
   interprets a handful of distinct programs (the contract under test
   plus its constructor) millions of times; the deployed code array is
   shared physically through the state, so [==] is both the cheapest and
   the correct key (structural equality would conflate distinct programs
   never, but costs O(n) per lookup). A tiny MRU list suffices: the
   working set is 1-2 programs per domain. Domain-local storage keeps
   the memo lock-free under the parallel campaign runner. *)

let memo_capacity = 8

let memo_key : (int ref * artifact option array) Domain.DLS.key =
  Domain.DLS.new_key (fun () -> (ref 0, Array.make memo_capacity None))

let push_constants code =
  let dests = jumpdests code in
  let is_jump_target v =
    match Word.U256.to_int_opt v with
    | Some i -> Hashtbl.mem dests i
    | None -> false
  in
  let tbl = Hashtbl.create 32 in
  Array.iter
    (fun op ->
      match op with
      | Opcode.PUSH v when not (is_jump_target v) ->
        if not (Hashtbl.mem tbl v) then Hashtbl.replace tbl v ()
      | _ -> ())
    code;
  Hashtbl.fold (fun v () acc -> v :: acc) tbl []
  |> List.sort Word.U256.compare

let decode code =
  let jd = Bytes.make ((Array.length code + 7) / 8) '\000' in
  Array.iteri
    (fun i op ->
      if op = Opcode.JUMPDEST then
        Bytes.set jd (i lsr 3)
          (Char.chr (Char.code (Bytes.get jd (i lsr 3)) lor (1 lsl (i land 7)))))
    code;
  {
    a_code = code;
    a_jumpdest = jd;
    a_byte_size = byte_size code;
    a_push_constants = Array.of_list (push_constants code);
    a_chains = chains code;
  }

let artifact code =
  let next, slots = Domain.DLS.get memo_key in
  let rec find i =
    if i >= memo_capacity then None
    else
      match slots.(i) with
      | Some art when art.a_code == code -> Some art
      | _ -> find (i + 1)
  in
  match find 0 with
  | Some art -> art
  | None ->
    let art = decode code in
    slots.(!next) <- Some art;
    next := (!next + 1) mod memo_capacity;
    art
