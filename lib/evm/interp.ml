module U = Word.U256
module T = Trace.Taint

type block_env = {
  timestamp : U.t;
  number : U.t;
  coinbase : U.t;
  difficulty : U.t;
  gaslimit : U.t;
}

let default_block =
  {
    timestamp = U.of_int 1_600_000_000;
    number = U.of_int 10_000_000;
    coinbase = U.of_hex_string "0xc0ffee";
    difficulty = U.of_int 2_000_000;
    gaslimit = U.of_int 30_000_000;
  }

let advance_block b =
  {
    b with
    timestamp = U.add b.timestamp (U.of_int 13);
    number = U.add b.number U.one;
  }

type msg = {
  caller : State.address;
  origin : State.address;
  callee : State.address;
  value : U.t;
  data : string;
  gas : int;
}

type config = {
  max_call_depth : int;
  attacker : State.address option;
  max_reentries : int;
  comparisons : bool;
}

let attacker_address = U.of_hex_string "0xa77ac4e5"

let default_config =
  { max_call_depth = 8; attacker = Some attacker_address; max_reentries = 1;
    comparisons = true }

(* A stack cell: the word plus taint, the id of the external call whose
   status it is (if any), branch-distance information inherited from the
   comparison that produced it, and the comparison site itself (operator,
   concrete operands, per-side taint) so JUMPI can hand the input
   predictor the raw material to flip the branch. *)
type cell = {
  v : U.t;
  taint : T.t;
  call_site : int option;
  dist : (float * float) option;  (* (to make true, to make false) *)
  cmp : Trace.comparison option;
}

let pure v = { v; taint = T.none; call_site = None; dist = None; cmp = None }
let with_taint taint v = { v; taint; call_site = None; dist = None; cmp = None }
let dummy_cell = pure U.zero

(* Operand-stack pool, one 1024-slot array per call depth, reused across
   transactions. Frames nest strictly (a frame at depth [d] only runs
   subframes at [d + 1] and is suspended meanwhile), so indexing by depth
   never aliases two live stacks; domain-local storage keeps the pool
   safe under the parallel campaign runner. Typical frames run a few
   dozen instructions, so allocating the array per frame would cost more
   than the frame itself. *)
let stack_pool : cell array array ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [||])

let stack_for_depth depth =
  let pool = Domain.DLS.get stack_pool in
  if depth >= Array.length !pool then begin
    let np = Array.make (depth + 8) [||] in
    Array.blit !pool 0 np 0 (Array.length !pool);
    pool := np
  end;
  if Array.length !pool.(depth) = 0 then !pool.(depth) <- Array.make 1024 dummy_cell;
  !pool.(depth)

(* A frame's operand stack: a pooled 1024-slot array plus its depth.
   EVM caps the stack at 1024, so overflow is [sp >= 1024] checked before
   the write (the 1025th push halts). Slot [sp - 1] is the top; DUP and
   SWAP are O(1) indexed loads. Popped slots keep their old cell until
   overwritten, which is harmless. The operations are top-level and
   inlined, so the interpreter's hottest paths make no call. *)
type frame = { stk : cell array; mutable sp : int }

type halt =
  | H_return of string
  | H_stop
  | H_revert of string
  | H_invalid
  | H_oog
  | H_badjump
  | H_stackerr


exception Halted of halt

let[@inline] push fr c =
  if fr.sp >= 1024 then raise (Halted H_stackerr);
  fr.stk.(fr.sp) <- c;
  fr.sp <- fr.sp + 1

let[@inline] pop fr =
  if fr.sp = 0 then raise (Halted H_stackerr);
  fr.sp <- fr.sp - 1;
  fr.stk.(fr.sp)

(* Per-transaction context shared by all frames. *)
type ctx = {
  cfg : config;
  block : block_env;
  mutable events_rev : Trace.event list;
  mutable gas : int;
  gas_limit : int;
  mutable call_counter : int;
  mutable reentry_budget : int;
  mutable steps : int;
}

let emit ctx e = ctx.events_rev <- e :: ctx.events_rev

let[@inline] charge ctx g =
  ctx.gas <- ctx.gas - g;
  if ctx.gas < 0 then raise (Halted H_oog)

(* [neg x] has the limbs of [sub zero x]. *)
let signed_float x = if U.is_neg x then -.U.to_float_sub U.zero x else U.to_float x

(* sFuzz-style distances: (cost to make the comparison true, cost to make
   it false); 0 on the side that currently holds. No intermediate word is
   built: this runs for every comparison opcode executed. *)
let cmp_dist (op : Opcode.t) a b =
  match op with
  | EQ ->
    let d = U.to_float_abs_difference a b in
    if d = 0.0 then (0.0, 1.0) else (d, 0.0)
  | LT ->
    if U.lt a b then (0.0, U.to_float_sub b a)
    else (U.to_float_sub a b +. 1.0, 0.0)
  | GT ->
    if U.gt a b then (0.0, U.to_float_sub a b)
    else (U.to_float_sub b a +. 1.0, 0.0)
  | SLT ->
    let sa = signed_float a and sb = signed_float b in
    if sa < sb then (0.0, sb -. sa) else (sa -. sb +. 1.0, 0.0)
  | SGT ->
    let sa = signed_float a and sb = signed_float b in
    if sa > sb then (0.0, sa -. sb) else (sb -. sa +. 1.0, 0.0)
  | _ -> invalid_arg "cmp_dist"

(* Growable byte memory. Word stores remember their taint so that
   parameter values parked in memory slots (the compiler's calling
   convention) keep their provenance when reloaded. *)
module Mem = struct
  type t = {
    mutable buf : Bytes.t;
    mutable size : int;
    taints : (int, Trace.Taint.t) Hashtbl.t;
  }

  let create () = { buf = Bytes.make 256 '\000'; size = 0; taints = Hashtbl.create 16 }

  (* Reset for reuse: zero the dirty prefix and drop the taints. A
     reset instance is indistinguishable from a fresh [create ()]. *)
  let reset m =
    if m.size > 0 then Bytes.fill m.buf 0 m.size '\000';
    m.size <- 0;
    if Hashtbl.length m.taints > 0 then Hashtbl.reset m.taints

  let ensure m n =
    if n > Bytes.length m.buf then begin
      let cap = ref (Bytes.length m.buf) in
      while n > !cap do
        cap := !cap * 2
      done;
      let nb = Bytes.make !cap '\000' in
      Bytes.blit m.buf 0 nb 0 m.size;
      m.buf <- nb
    end;
    if n > m.size then m.size <- n

  let store_word ?(taint = Trace.Taint.none) m off w =
    ensure m (off + 32);
    U.blit_be w m.buf off;
    if taint = Trace.Taint.none then Hashtbl.remove m.taints off
    else Hashtbl.replace m.taints off taint

  let taint_at m off =
    match Hashtbl.find_opt m.taints off with
    | Some t -> t
    | None -> Trace.Taint.none

  let range_taint m off len =
    Hashtbl.fold
      (fun o t acc -> if o + 32 > off && o < off + len then Trace.Taint.union acc t else acc)
      m.taints Trace.Taint.none

  let store_byte m off b =
    ensure m (off + 1);
    Bytes.set m.buf off (Char.chr (b land 0xff))

  let load_word m off =
    ensure m (off + 32);
    U.read_be m.buf off

  let read m off len =
    if len = 0 then ""
    else begin
      ensure m (off + len);
      Bytes.sub_string m.buf off len
    end

  let write m off s =
    if String.length s > 0 then begin
      ensure m (off + String.length s);
      Bytes.blit_string s 0 m.buf off (String.length s)
    end
end

(* Frame memories are pooled like the stacks: acquired zeroed at frame
   entry, so exception exits (every halt) leaving them dirty is fine. *)
let mem_pool : Mem.t option array ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [||])

let mem_for_depth depth =
  let pool = Domain.DLS.get mem_pool in
  if depth >= Array.length !pool then begin
    let np = Array.make (depth + 8) None in
    Array.blit !pool 0 np 0 (Array.length !pool);
    pool := np
  end;
  match !pool.(depth) with
  | Some m ->
    Mem.reset m;
    m
  | None ->
    let m = Mem.create () in
    !pool.(depth) <- Some m;
    m

(* Pre-fault the per-domain frame pools. The first few transactions a
   fresh domain executes otherwise each pay a pool-growth allocation
   (1024-cell stack + memory arena per call depth); batch executors call
   this once at context setup so the steady-state loop never grows a
   pool. Purely an allocation-timing change — execution results are
   untouched. *)
let preheat ?(depth = 8) () =
  for d = 0 to depth - 1 do
    ignore (stack_for_depth d);
    ignore (mem_for_depth d)
  done

(* SHA3 memo. Fuzzing re-executes the same storage-key hashes (mapping
   slots for a small sender pool) millions of times; Keccak is pure, so
   memoizing is observationally invisible. Only short inputs are cached
   (mapping keys are 64 bytes) and the table is dropped wholesale when
   full — it is a pure-function memo, so eviction only costs a
   recompute, unlike the prefix-state cache which keeps real state. *)
let sha3_memo : (string, U.t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 1024)

let sha3_memo_cap = 8192

let keccak_word data =
  if String.length data > 128 then Crypto.Keccak.hash_word data
  else begin
    let memo = Domain.DLS.get sha3_memo in
    match Hashtbl.find_opt memo data with
    | Some w -> w
    | None ->
      let w = Crypto.Keccak.hash_word data in
      if Hashtbl.length memo >= sha3_memo_cap then Hashtbl.reset memo;
      Hashtbl.add memo data w;
      w
  end

let to_offset cell =
  (* Memory offsets / lengths must be small; clamp to protect the host. *)
  match U.to_int_opt cell.v with
  | Some n when n <= 0x100000 -> n
  | _ -> raise (Halted H_oog)

(* The selector-dispatcher fast path. At the first [DUP 1] of a
   {!Bytecode.chain} (already charged and counted), resolve the whole run
   of [DUP 1; PUSH c; EQ; PUSH d; JUMPI] groups at once: find the first
   [c] equal to the selector on top of the stack, emitting one
   [Dispatch] for the groups passed, and charging each group's 22 gas
   and 5 steps. [chain_applies] admits only the cases where that is
   provably what interpreting the groups one by one gives: no stack
   overflow (the groups push two cells above [sp]), no out-of-gas
   inside the run, and a selector whose comparison and branch emit
   nothing but the branch (no call-status check, no block / origin /
   balance use, no caller guard). *)

let group_gas = 22

let side_effect_taints = T.block lor T.origin lor T.caller lor T.balance

let chain_applies ctx fr (ch : Bytecode.chain) =
  fr.sp >= 1 && fr.sp <= 1022
  && ctx.gas >= (group_gas * Array.length ch.ch_consts) - 3
  &&
  let sel = fr.stk.(fr.sp - 1) in
  sel.call_site = None && sel.taint land side_effect_taints = 0

(* The first group [>= k] whose constant is [v], or the group count.
   Top-level, so a lookup allocates no closure. *)
let rec first_equal consts v k =
  if k = Array.length consts || U.equal consts.(k) v then k
  else first_equal consts v (k + 1)

(* Runs [ch] from just after its first [DUP 1]; returns the next pc.
   The passed groups' [Branch] events are one [Dispatch], which
   {!Trace.expand} turns back into them. *)
let run_chain ctx fr art (ch : Bytecode.chain) =
  let sel = fr.stk.(fr.sp - 1) in
  let consts = ch.ch_consts in
  let groups = Array.length consts in
  let k = first_equal consts sel.v 0 in
  let hit = k < groups in
  let passed = if hit then k + 1 else groups in
  emit ctx
    (Dispatch
       { pc = ch.ch_start; consts; passed; hit; sel = sel.v; sel_taint = sel.taint;
         cmps = ctx.cfg.comparisons });
  ctx.gas <- ctx.gas - ((group_gas * passed) - 3);
  ctx.steps <- ctx.steps + (5 * passed) - 1;
  if not hit then ch.ch_start + (5 * groups)
  else
    let d = ch.ch_dests.(k) in
    if Bytecode.is_jumpdest art d then d else raise (Halted H_badjump)

(* One call frame. [code_addr] supplies the bytecode, [storage_addr] the
   storage context (they differ under DELEGATECALL). Returns the frame's
   result and the resulting state; on failure the input state is the one
   to keep. *)
let rec exec_frame ctx (state : State.t) ~depth ~code_addr ~storage_addr
    (msg : msg) : State.t * (string, halt) result =
  let code = State.code state code_addr in
  let art = Bytecode.artifact code in
  let state_ref = ref state in
  let fr = { stk = stack_for_depth depth; sp = 0 } in
  let mem = mem_for_depth depth in
  let pc = ref 0 in
  let caller_checked = ref false in
  let did_external_call = ref false in
  let note_compare_taints pc_ op a b =
    let t = T.union a.taint b.taint in
    if T.has t T.block then emit ctx (Block_state_use { pc = pc_; sink = "compare" });
    if T.has t T.origin then emit ctx (Origin_use { pc = pc_; sink = "compare" });
    if T.has t T.caller then caller_checked := true;
    if T.has t T.balance then
      emit ctx (Balance_compare { pc = pc_; strict_eq = op = Opcode.EQ })
  in
  let binop f a b =
    { v = f a.v b.v; taint = T.union a.taint b.taint; call_site = None;
      dist = None; cmp = None }
  in
  let run_subcall ~kind ~gas_req ~target ~value ~indata ~sub_storage_addr
      ~sub_code_addr cur_pc target_taint =
    (* EIP-150 style forwarding: at most 63/64 of remaining gas. *)
    let forwarded = Stdlib.min gas_req (ctx.gas * 63 / 64) in
    let id = ctx.call_counter in
    ctx.call_counter <- ctx.call_counter + 1;
    let record success =
      emit ctx
        (External_call
           {
             id;
             pc = cur_pc;
             kind;
             target;
             target_taint;
             value;
             gas = forwarded;
             success;
             caller_guard_before = !caller_checked;
           })
    in
    if depth + 1 > ctx.cfg.max_call_depth then begin
      record false;
      (id, false, "")
    end
    else begin
      let value_transfer st =
        if U.is_zero value then Some st
        else State.transfer st ~from:storage_addr ~to_:target value
      in
      match value_transfer !state_ref with
      | None ->
        record false;
        (id, false, "")
      | Some st_credited -> begin
        if (not (U.is_zero value)) && kind = Trace.Call then
          emit ctx (Value_transfer_out { pc = cur_pc; amount = value });
        let is_attacker =
          match ctx.cfg.attacker with
          | Some a -> U.equal a target && kind = Trace.Call
          | None -> false
        in
        if is_attacker && ctx.reentry_budget > 0 && (not (U.is_zero value))
           && forwarded > 2300 then begin
          (* The simulated attacker re-enters the calling contract with the
             same calldata, the classic reentrancy pattern. *)
          ctx.reentry_budget <- ctx.reentry_budget - 1;
          emit ctx (Reentrant_call { pc = cur_pc });
          let reentry_msg =
            { caller = target; origin = msg.origin; callee = storage_addr;
              value = U.zero; data = msg.data; gas = forwarded }
          in
          let st', res =
            exec_frame ctx st_credited ~depth:(depth + 1) ~code_addr:storage_addr
              ~storage_addr reentry_msg
          in
          match res with
          | Ok _ ->
            state_ref := st';
            record true;
            (id, true, "")
          | Error _ ->
            state_ref := st_credited;
            record true;
            (id, true, "")
        end
        else begin
          let callee_code = State.code st_credited sub_code_addr in
          if Array.length callee_code = 0 then begin
            (* EOA or code-less account: the transfer itself succeeds. *)
            state_ref := st_credited;
            record true;
            (id, true, "")
          end
          else begin
            let sub_msg =
              { caller = storage_addr; origin = msg.origin; callee = target;
                value; data = indata; gas = forwarded }
            in
            let st', res =
              exec_frame ctx st_credited ~depth:(depth + 1)
                ~code_addr:sub_code_addr ~storage_addr:sub_storage_addr sub_msg
            in
            match res with
            | Ok ret ->
              state_ref := st';
              record true;
              (id, true, ret)
            | Error _ ->
              record false;
              (id, false, "")
          end
        end
      end
    end
  in
  let step () =
    if !pc < 0 || !pc >= Array.length code then raise (Halted H_stop);
    let cur_pc = !pc in
    let op = code.(cur_pc) in
    charge ctx (Opcode.base_gas op);
    ctx.steps <- ctx.steps + 1;
    incr pc;
    match op with
    | STOP -> raise (Halted H_stop)
    | ADD ->
      let a = pop fr and b = pop fr in
      let r = U.add a.v b.v in
      if U.lt r a.v then
        emit ctx (Arith_overflow { pc = cur_pc; op = "ADD"; taint = T.union a.taint b.taint });
      push fr (binop (fun _ _ -> r) a b)
    | MUL ->
      let a = pop fr and b = pop fr in
      let r = U.mul a.v b.v in
      if U.mul_overflows a.v b.v then
        emit ctx (Arith_overflow { pc = cur_pc; op = "MUL"; taint = T.union a.taint b.taint });
      push fr (binop (fun _ _ -> r) a b)
    | SUB ->
      let a = pop fr and b = pop fr in
      if U.lt a.v b.v then
        emit ctx (Arith_overflow { pc = cur_pc; op = "SUB"; taint = T.union a.taint b.taint });
      push fr (binop U.sub a b)
    | DIV -> let a = pop fr and b = pop fr in push fr (binop U.div a b)
    | SDIV -> let a = pop fr and b = pop fr in push fr (binop U.sdiv a b)
    | MOD -> let a = pop fr and b = pop fr in push fr (binop U.rem a b)
    | SMOD -> let a = pop fr and b = pop fr in push fr (binop U.srem a b)
    | ADDMOD ->
      let a = pop fr and b = pop fr and m = pop fr in
      push fr { (binop (fun x y -> U.add_mod x y m.v) a b) with taint = T.union (T.union a.taint b.taint) m.taint }
    | MULMOD ->
      let a = pop fr and b = pop fr and m = pop fr in
      push fr { (binop (fun x y -> U.mul_mod x y m.v) a b) with taint = T.union (T.union a.taint b.taint) m.taint }
    | EXP -> let a = pop fr and b = pop fr in push fr (binop U.exp a b)
    | SIGNEXTEND ->
      let k = pop fr and x = pop fr in
      let kk = match U.to_int_opt k.v with Some n -> n | None -> 31 in
      push fr { (binop (fun _ x -> U.sign_extend kk x) k x) with taint = x.taint }
    | (LT | GT | SLT | SGT | EQ) as cmp ->
      let a = pop fr and b = pop fr in
      note_compare_taints cur_pc cmp a b;
      let f =
        match cmp with
        | LT -> U.lt | GT -> U.gt | SLT -> U.slt | SGT -> U.sgt | EQ -> U.equal
        | _ -> assert false
      in
      let r = if f a.v b.v then U.one else U.zero in
      let site =
        if not ctx.cfg.comparisons then None
        else
          let cmp_op : Trace.cmp_op =
            match cmp with
            | LT -> Clt | GT -> Cgt | SLT -> Cslt | SGT -> Csgt | EQ -> Ceq
            | _ -> assert false
          in
          Some
            { Trace.cmp_pc = cur_pc; cmp_op; lhs = a.v; rhs = b.v;
              lhs_taint = a.taint; rhs_taint = b.taint; negated = false }
      in
      push fr
        {
          v = r;
          taint = T.union a.taint b.taint;
          call_site = (match (a.call_site, b.call_site) with Some i, _ -> Some i | _, s -> s);
          dist = Some (cmp_dist cmp a.v b.v);
          cmp = site;
        }
    | ISZERO ->
      let a = pop fr in
      let dist =
        match a.dist with
        | Some (dt, df) -> Some (df, dt)
        | None ->
          let d = U.to_float a.v in
          Some ((if d = 0.0 then 0.0 else d), if d = 0.0 then 1.0 else 0.0)
      in
      let cmp =
        match a.cmp with
        | Some c -> Some { c with Trace.negated = not c.Trace.negated }
        | None when not ctx.cfg.comparisons -> None
        | None ->
          (* a zero test on a non-comparison value: its own comparison
             site (pushed value = [lhs == 0]) *)
          Some
            { Trace.cmp_pc = cur_pc; cmp_op = Ciszero; lhs = a.v; rhs = U.zero;
              lhs_taint = a.taint; rhs_taint = T.none; negated = false }
      in
      push fr { v = (if U.is_zero a.v then U.one else U.zero); taint = a.taint;
             call_site = a.call_site; dist; cmp }
    | AND ->
      let a = pop fr and b = pop fr in
      let dist =
        match (a.dist, b.dist) with
        | Some (t1, f1), Some (t2, f2) -> Some (t1 +. t2, Stdlib.min f1 f2)
        | Some d, None | None, Some d -> Some d
        | None, None -> None
      in
      (* a single surviving comparison site stays attached as a flipping
         hint; two sites are ambiguous, so neither survives *)
      let cmp =
        match (a.cmp, b.cmp) with
        | Some c, None | None, Some c -> Some c
        | _ -> None
      in
      push fr { (binop U.logand a b) with dist; cmp;
             call_site = (match (a.call_site, b.call_site) with Some i, _ -> Some i | _, s -> s) }
    | OR ->
      let a = pop fr and b = pop fr in
      let dist =
        match (a.dist, b.dist) with
        | Some (t1, f1), Some (t2, f2) -> Some (Stdlib.min t1 t2, f1 +. f2)
        | Some d, None | None, Some d -> Some d
        | None, None -> None
      in
      let cmp =
        match (a.cmp, b.cmp) with
        | Some c, None | None, Some c -> Some c
        | _ -> None
      in
      push fr { (binop U.logor a b) with dist; cmp }
    | XOR -> let a = pop fr and b = pop fr in push fr (binop U.logxor a b)
    | NOT -> let a = pop fr in push fr { a with v = U.lognot a.v; dist = None; cmp = None }
    | BYTE ->
      let i = pop fr and x = pop fr in
      let idx = match U.to_int_opt i.v with Some n -> n | None -> 32 in
      push fr { (binop (fun _ x -> U.byte idx x) i x) with taint = x.taint }
    | SHL ->
      let n = pop fr and x = pop fr in
      let sh = match U.to_int_opt n.v with Some s -> s | None -> 256 in
      push fr { x with v = U.shift_left x.v sh; dist = None; cmp = None }
    | SHR ->
      let n = pop fr and x = pop fr in
      let sh = match U.to_int_opt n.v with Some s -> s | None -> 256 in
      push fr { x with v = U.shift_right x.v sh; dist = None; cmp = None }
    | SAR ->
      let n = pop fr and x = pop fr in
      let sh = match U.to_int_opt n.v with Some s -> s | None -> 256 in
      push fr { x with v = U.shift_right_arith x.v sh; dist = None; cmp = None }
    | SHA3 ->
      let off = pop fr and len = pop fr in
      let o = to_offset off and l = to_offset len in
      let data = Mem.read mem o l in
      push fr (with_taint (Mem.range_taint mem o l) (keccak_word data))
    | ADDRESS -> push fr (pure storage_addr)
    | BALANCE ->
      let a = pop fr in
      push fr (with_taint T.balance (State.balance !state_ref a.v))
    | ORIGIN -> push fr (with_taint T.origin msg.origin)
    | CALLER -> push fr (with_taint T.caller msg.caller)
    | CALLVALUE -> push fr (with_taint T.callvalue msg.value)
    | CALLDATALOAD ->
      let off = pop fr in
      let o = match U.to_int_opt off.v with Some n when n <= 0x100000 -> n | _ -> 0x100000 in
      let w =
        if o + 32 <= String.length msg.data then U.read_be_string msg.data o
        else
          U.of_bytes_be
            (String.init 32 (fun i ->
                 if o + i < String.length msg.data then msg.data.[o + i]
                 else '\000'))
      in
      push fr (with_taint T.calldata w)
    | CALLDATASIZE -> push fr (pure (U.of_int (String.length msg.data)))
    | CALLDATACOPY ->
      let dst = pop fr and src = pop fr and len = pop fr in
      let d = to_offset dst and s0 = to_offset src and l = to_offset len in
      let chunk =
        String.init l (fun i ->
            if s0 + i < String.length msg.data then msg.data.[s0 + i] else '\000')
      in
      Mem.write mem d chunk;
      let i = ref 0 in
      while !i < l do
        Hashtbl.replace mem.Mem.taints (d + !i) Trace.Taint.calldata;
        i := !i + 32
      done
    | CODESIZE -> push fr (pure (U.of_int art.Bytecode.a_byte_size))
    | BLOCKHASH ->
      let n = pop fr in
      push fr (with_taint T.block
              (Crypto.Keccak.hash_word ("blockhash:" ^ U.to_decimal_string n.v)))
    | COINBASE -> push fr (with_taint T.block ctx.block.coinbase)
    | TIMESTAMP -> push fr (with_taint T.block ctx.block.timestamp)
    | NUMBER -> push fr (with_taint T.block ctx.block.number)
    | DIFFICULTY -> push fr (with_taint T.block ctx.block.difficulty)
    | GASLIMIT -> push fr (with_taint T.block ctx.block.gaslimit)
    | SELFBALANCE -> push fr (with_taint T.balance (State.balance !state_ref storage_addr))
    | POP -> ignore (pop fr)
    | MLOAD ->
      let off = pop fr in
      let o = to_offset off in
      push fr (with_taint (Mem.taint_at mem o) (Mem.load_word mem o))
    | MSTORE ->
      let off = pop fr and v = pop fr in
      Mem.store_word ~taint:v.taint mem (to_offset off) v.v
    | MSTORE8 ->
      let off = pop fr and v = pop fr in
      Mem.store_byte mem (to_offset off)
        (match U.to_int_opt (U.logand v.v (U.of_int 0xff)) with Some b -> b | None -> 0)
    | SLOAD ->
      let slot = pop fr in
      emit ctx (Storage_read { slot = slot.v; pc = cur_pc });
      push fr (with_taint T.storage (State.storage_get !state_ref storage_addr slot.v))
    | SSTORE ->
      let slot = pop fr and v = pop fr in
      emit ctx
        (Storage_write
           { slot = slot.v; value = v.v; pc = cur_pc;
             after_external_call = !did_external_call });
      state_ref := State.storage_set !state_ref storage_addr slot.v v.v
    | JUMP ->
      let dest = pop fr in
      let d = match U.to_int_opt dest.v with Some n -> n | None -> -1 in
      if Bytecode.is_jumpdest art d then pc := d else raise (Halted H_badjump)
    | JUMPI ->
      let dest = pop fr and cond = pop fr in
      let taken = not (U.is_zero cond.v) in
      let dist_to_flip =
        match cond.dist with
        | Some (dt, df) -> if taken then df else dt
        | None -> 1.0
      in
      emit ctx
        (Branch
           { pc = cur_pc; taken; dist_to_flip; cond_taint = cond.taint;
             cmp = cond.cmp });
      if T.has cond.taint T.block then
        emit ctx (Block_state_use { pc = cur_pc; sink = "jumpi" });
      if T.has cond.taint T.origin then
        emit ctx (Origin_use { pc = cur_pc; sink = "jumpi" });
      if T.has cond.taint T.caller then caller_checked := true;
      (match cond.call_site with
      | Some id -> emit ctx (Call_result_checked { call_id = id })
      | None -> ());
      if taken then begin
        let d = match U.to_int_opt dest.v with Some n -> n | None -> -1 in
        if Bytecode.is_jumpdest art d then pc := d else raise (Halted H_badjump)
      end
    | PC -> push fr (pure (U.of_int cur_pc))
    | MSIZE -> push fr (pure (U.of_int mem.Mem.size))
    | GAS -> push fr (pure (U.of_int (Stdlib.max ctx.gas 0)))
    | JUMPDEST -> ()
    | PUSH v -> push fr (pure v)
    | DUP n ->
      if fr.sp < n then raise (Halted H_stackerr);
      let ci = if n = 1 then Bytecode.find_chain art cur_pc else -1 in
      if ci >= 0 && chain_applies ctx fr art.a_chains.(ci) then
        pc := run_chain ctx fr art art.a_chains.(ci)
      else push fr fr.stk.(fr.sp - n)
    | SWAP n ->
      (* Swap the top with the element n below it (EVM SWAPn). *)
      if fr.sp < n + 1 then raise (Halted H_stackerr);
      let i = fr.sp - 1 and j = fr.sp - 1 - n in
      let stack = fr.stk in
      let t = stack.(i) in
      stack.(i) <- stack.(j);
      stack.(j) <- t
    | LOG n ->
      let _off = pop fr and _len = pop fr in
      let topics = ref [] in
      for _ = 1 to n do
        topics := (pop fr).v :: !topics
      done;
      emit ctx (Log { pc = cur_pc; topics = List.rev !topics })
    | CALL ->
      let gas = pop fr and target = pop fr and value = pop fr in
      let in_off = pop fr and in_len = pop fr in
      let _out_off = pop fr and _out_len = pop fr in
      if T.has value.taint T.block || T.has target.taint T.block then
        emit ctx (Block_state_use { pc = cur_pc; sink = "call" });
      let indata = Mem.read mem (to_offset in_off) (to_offset in_len) in
      let gas_req = match U.to_int_opt gas.v with Some g -> g | None -> ctx.gas in
      let id, ok, ret =
        run_subcall ~kind:Trace.Call ~gas_req ~target:target.v ~value:value.v
          ~indata ~sub_storage_addr:target.v ~sub_code_addr:target.v cur_pc
          target.taint
      in
      did_external_call := true;
      Mem.write mem (to_offset _out_off)
        (String.sub ret 0 (Stdlib.min (String.length ret) (to_offset _out_len)));
      push fr { v = (if ok then U.one else U.zero); taint = T.callresult;
             call_site = Some id; dist = None; cmp = None }
    | DELEGATECALL ->
      let gas = pop fr and target = pop fr in
      let in_off = pop fr and in_len = pop fr in
      let _out_off = pop fr and _out_len = pop fr in
      let indata = Mem.read mem (to_offset in_off) (to_offset in_len) in
      let gas_req = match U.to_int_opt gas.v with Some g -> g | None -> ctx.gas in
      let id, ok, ret =
        run_subcall ~kind:Trace.Delegatecall ~gas_req ~target:target.v
          ~value:U.zero ~indata ~sub_storage_addr:storage_addr
          ~sub_code_addr:target.v cur_pc target.taint
      in
      did_external_call := true;
      Mem.write mem (to_offset _out_off)
        (String.sub ret 0 (Stdlib.min (String.length ret) (to_offset _out_len)));
      push fr { v = (if ok then U.one else U.zero); taint = T.callresult;
             call_site = Some id; dist = None; cmp = None }
    | STATICCALL ->
      let gas = pop fr and target = pop fr in
      let in_off = pop fr and in_len = pop fr in
      let _out_off = pop fr and _out_len = pop fr in
      let indata = Mem.read mem (to_offset in_off) (to_offset in_len) in
      let gas_req = match U.to_int_opt gas.v with Some g -> g | None -> ctx.gas in
      let id, ok, ret =
        run_subcall ~kind:Trace.Staticcall ~gas_req ~target:target.v
          ~value:U.zero ~indata ~sub_storage_addr:target.v
          ~sub_code_addr:target.v cur_pc target.taint
      in
      did_external_call := true;
      Mem.write mem (to_offset _out_off)
        (String.sub ret 0 (Stdlib.min (String.length ret) (to_offset _out_len)));
      push fr { v = (if ok then U.one else U.zero); taint = T.callresult;
             call_site = Some id; dist = None; cmp = None }
    | RETURN ->
      let off = pop fr and len = pop fr in
      raise (Halted (H_return (Mem.read mem (to_offset off) (to_offset len))))
    | REVERT ->
      let off = pop fr and len = pop fr in
      emit ctx (Revert_reached { pc = cur_pc });
      raise (Halted (H_revert (Mem.read mem (to_offset off) (to_offset len))))
    | INVALID ->
      emit ctx (Invalid_reached { pc = cur_pc });
      raise (Halted H_invalid)
    | SELFDESTRUCT ->
      let beneficiary = pop fr in
      emit ctx
        (Selfdestruct
           { pc = cur_pc; caller_guard_before = !caller_checked;
             beneficiary_taint = beneficiary.taint });
      let bal = State.balance !state_ref storage_addr in
      if not (U.is_zero bal) then
        emit ctx (Value_transfer_out { pc = cur_pc; amount = bal });
      state_ref :=
        State.delete_account !state_ref storage_addr ~beneficiary:beneficiary.v;
      raise (Halted H_stop)
  in
  match
    let rec loop () =
      step ();
      loop ()
    in
    loop ()
  with
  | () -> assert false
  | exception Halted h -> begin
    match h with
    | H_return ret -> (!state_ref, Ok ret)
    | H_stop -> (!state_ref, Ok "")
    | H_revert _ | H_invalid | H_oog | H_badjump | H_stackerr ->
      (state, Error h)
  end

let execute ?(config = default_config) ~block ~state (msg : msg) =
  let ctx =
    {
      cfg = config;
      block;
      events_rev = [];
      gas = msg.gas;
      gas_limit = msg.gas;
      call_counter = 0;
      reentry_budget = config.max_reentries;
      steps = 0;
    }
  in
  (* Credit the call value before executing the callee frame. *)
  let funded =
    if U.is_zero msg.value then Some state
    else State.transfer state ~from:msg.caller ~to_:msg.callee msg.value
  in
  let final_state, status, return_data =
    match funded with
    | None -> (state, Trace.Reverted, "")
    | Some st -> begin
      match
        exec_frame ctx st ~depth:0 ~code_addr:msg.callee
          ~storage_addr:msg.callee msg
      with
      | st', Ok ret -> (st', Trace.Success, ret)
      | _, Error h ->
        let status =
          match h with
          | H_revert _ -> Trace.Reverted
          | H_invalid -> Trace.Invalid_opcode
          | H_oog -> Trace.Out_of_gas
          | H_badjump -> Trace.Bad_jump
          | H_stackerr -> Trace.Stack_error
          | H_return _ | H_stop -> assert false
        in
        (state, status, "")
    end
  in
  let trace =
    {
      Trace.status;
      events = List.rev ctx.events_rev;
      return_data;
      (* an out-of-gas charge leaves [gas] negative; the EVM consumes
         exactly the limit *)
      gas_used = ctx.gas_limit - Stdlib.max ctx.gas 0;
      steps = ctx.steps;
    }
  in
  (final_state, trace)
