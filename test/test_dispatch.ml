(* The interpreter's selector-dispatcher fast path against a model of the
   groups it replaces, and the comparison-record gate.

   A chain is a run of [DUP 1; PUSH c; EQ; PUSH d; JUMPI] groups, which
   the interpreter resolves in one go at the first [DUP 1] when it can
   prove the result equals interpreting the groups one by one. The model
   below interprets them one by one, opcode by opcode, from the EVM
   rules: per-opcode gas charged before the opcode runs, the 1024-cell
   stack bound, the comparison and branch taint sinks, and the JUMPI
   target check. Every generated program puts the chain behind a
   prelude that builds the stack depth and the selector (with the
   taint of its source), so the fast path's guards meet both sides of
   their bounds. *)

module U = Word.U256
module Op = Evm.Opcode
module T = Evm.Trace.Taint

type source = Pure | Calldata | Timestamp | Caller | Origin | Balance | Call_result

let source_name = function
  | Pure -> "PUSH" | Calldata -> "CALLDATALOAD" | Timestamp -> "TIMESTAMP"
  | Caller -> "CALLER" | Origin -> "ORIGIN" | Balance -> "BALANCE"
  | Call_result -> "CALL"

(* A group's JUMPI target: the first or last JUMPDEST of a landing pad
   (pad [j] is [j + 1] JUMPDESTs then the exit), the fallback exit (not
   a JUMPDEST), a pc past the code, or a word too wide for an int. *)
type dest = Pad of int | Pad_end of int | Fallback | Beyond | Huge

type case = {
  consts : U.t list;
  dests : dest list;
  source : source;
  sel : U.t;  (* overridden by the source for BALANCE and CALL *)
  depth : int;  (* stack depth at the chain's first DUP 1 *)
  gas_delta : int;  (* gas at the chain's entry minus 22 per group *)
  comparisons : bool;
}

let n_pads = 3
let callee = U.of_int 0xC0DE
let nobody = U.of_int 0xDEAD

(* BALANCE of an empty account is 0; a CALL to a code-less account
   succeeds, pushing 1. *)
let selector c =
  match c.source with Balance -> U.zero | Call_result -> U.one | _ -> c.sel

let depth_of c =
  (* the CALL prelude needs seven argument cells above the fillers *)
  match c.source with Call_result -> Stdlib.min c.depth 1018 | _ -> c.depth

let prelude c =
  let fillers = List.init (depth_of c - 1) (fun _ -> Op.PUSH U.zero) in
  let sel =
    match c.source with
    | Pure -> [ Op.PUSH c.sel ]
    | Calldata -> [ Op.PUSH U.zero; Op.CALLDATALOAD ]
    | Timestamp -> [ Op.TIMESTAMP ]
    | Caller -> [ Op.CALLER ]
    | Origin -> [ Op.ORIGIN ]
    | Balance -> [ Op.PUSH nobody; Op.BALANCE ]
    | Call_result ->
      (* out_len out_off in_len in_off value target gas: zero gas keeps
         the recorded forwarded gas independent of the gas limit *)
      List.init 5 (fun _ -> Op.PUSH U.zero)
      @ [ Op.PUSH nobody; Op.PUSH U.zero; Op.CALL ]
  in
  fillers @ sel

(* Every path ends in [exit]: its SELFDESTRUCT event reports whether a
   caller-tainted value was compared on the way. *)
let exit = [ Op.PUSH U.zero; Op.SELFDESTRUCT ]

(* Code layout: prelude, chain, fallback exit, pads. *)
let layout c =
  let pre = prelude c in
  let start = List.length pre in
  let n = List.length c.consts in
  let fallback = start + (5 * n) in
  let pad_at j = fallback + 2 + (j * (j + 5) / 2) in
  let pads_end = pad_at n_pads in
  let dest_word = function
    | Pad j -> U.of_int (pad_at j)
    | Pad_end j -> U.of_int (pad_at j + j)
    | Fallback -> U.of_int fallback
    | Beyond -> U.of_int (pads_end + 7)
    | Huge -> U.max_value
  in
  let chain =
    List.concat
      (List.map2
         (fun k d -> [ Op.DUP 1; Op.PUSH k; Op.EQ; Op.PUSH (dest_word d); Op.JUMPI ])
         c.consts c.dests)
  in
  let pads =
    List.concat
      (List.init n_pads (fun j -> List.init (j + 1) (fun _ -> Op.JUMPDEST) @ exit))
  in
  (pre, Array.of_list (pre @ chain @ exit @ pads), start)

let execute c ~gas code =
  let sel = selector c in
  let state = Evm.State.set_code Evm.State.empty callee code in
  let block =
    match c.source with
    | Timestamp -> { Evm.Interp.default_block with timestamp = sel }
    | _ -> Evm.Interp.default_block
  in
  let data = match c.source with Calldata -> U.to_bytes_be sel | _ -> "" in
  let caller = match c.source with Caller -> sel | _ -> U.of_int 0xB in
  let origin = match c.source with Origin -> sel | _ -> U.of_int 0xB in
  let config = { Evm.Interp.default_config with comparisons = c.comparisons } in
  snd
    (Evm.Interp.execute ~config ~block ~state
       { caller; origin; callee; value = U.zero; data; gas })

exception Stop_model of Evm.Trace.status

(* The model: interpret the chain from its first DUP 1 with [gas] left
   and [depth] cells on the stack, the top one the selector. Returns
   (status, events, steps, gas left — negative after an out-of-gas). *)
let model c ~code ~start ~gas =
  let sel = selector c in
  let taint =
    match c.source with
    | Pure -> T.none | Calldata -> T.calldata | Timestamp -> T.block
    | Caller -> T.caller | Origin -> T.origin | Balance -> T.balance
    | Call_result -> T.callresult
  in
  let call_site = match c.source with Call_result -> Some 0 | _ -> None in
  let g = ref gas and sp = ref (depth_of c) and steps = ref 0 and events = ref [] in
  let emit e = events := e :: !events in
  let charge n =
    g := !g - n;
    if !g < 0 then raise (Stop_model Out_of_gas);
    incr steps
  in
  let push () =
    if !sp >= 1024 then raise (Stop_model Stack_error);
    incr sp
  in
  let caller_checked = ref false in
  let exit pc =
    charge 3;
    push ();
    charge 5000;
    emit
      (Evm.Trace.Selfdestruct
         { pc = pc + 1; caller_guard_before = !caller_checked;
           beneficiary_taint = T.none });
    raise (Stop_model Success)
  in
  let rec pad pc =
    match code.(pc) with
    | Op.JUMPDEST ->
      charge 2;
      pad (pc + 1)
    | _ -> exit pc
  in
  let rec group k consts dests =
    match (consts, dests) with
    | [], _ | _, [] -> exit (start + (5 * k))
    | cst :: consts, _ :: dests ->
      let base = start + (5 * k) in
      charge 3;
      push ();
      charge 3;
      push ();
      charge 3;
      sp := !sp - 2;
      if T.has taint T.block then
        emit (Evm.Trace.Block_state_use { pc = base + 2; sink = "compare" });
      if T.has taint T.origin then
        emit (Evm.Trace.Origin_use { pc = base + 2; sink = "compare" });
      if T.has taint T.caller then caller_checked := true;
      if T.has taint T.balance then
        emit (Evm.Trace.Balance_compare { pc = base + 2; strict_eq = true });
      push ();
      charge 3;
      push ();
      charge 10;
      sp := !sp - 2;
      let taken = U.equal cst sel in
      let to_true, to_false = Evm.Interp.cmp_dist Op.EQ cst sel in
      let cmp =
        if c.comparisons then
          Some
            { Evm.Trace.cmp_pc = base + 2; cmp_op = Ceq; lhs = cst; rhs = sel;
              lhs_taint = T.none; rhs_taint = taint; negated = false }
        else None
      in
      emit
        (Evm.Trace.Branch
           { pc = base + 4; taken;
             dist_to_flip = (if taken then to_false else to_true);
             cond_taint = taint; cmp });
      if T.has taint T.block then
        emit (Evm.Trace.Block_state_use { pc = base + 4; sink = "jumpi" });
      if T.has taint T.origin then
        emit (Evm.Trace.Origin_use { pc = base + 4; sink = "jumpi" });
      Option.iter
        (fun id -> emit (Evm.Trace.Call_result_checked { call_id = id }))
        call_site;
      if not taken then group (k + 1) consts dests
      else
        let target =
          match code.(base + 3) with
          | Op.PUSH w -> (match U.to_int_opt w with Some t -> t | None -> -1)
          | _ -> assert false
        in
        if target >= 0 && target < Array.length code && code.(target) = Op.JUMPDEST
        then pad target
        else raise (Stop_model Bad_jump)
  in
  match group 0 c.consts c.dests with
  | () -> assert false
  | exception Stop_model status -> (status, List.rev !events, !steps, !g)

let print_case c =
  Printf.sprintf
    "consts=[%s] dests=[%s] source=%s sel=%s depth=%d gas=22n%+d comparisons=%B"
    (String.concat "; " (List.map U.to_hex_string c.consts))
    (String.concat "; "
       (List.map
          (function
            | Pad j -> Printf.sprintf "pad %d" j
            | Pad_end j -> Printf.sprintf "pad-end %d" j
            | Fallback -> "fallback" | Beyond -> "beyond" | Huge -> "huge")
          c.dests))
    (source_name c.source) (U.to_hex_string (selector c)) (depth_of c) c.gas_delta
    c.comparisons

let gen_case =
  let open QCheck2.Gen in
  (* a small pool makes duplicate constants and selector hits common *)
  let word =
    frequency
      [
        (4, oneofl [ U.zero; U.one; U.of_int 2; U.of_int 0xa9059cbb; U.max_value ]);
        (1, map (fun n -> U.of_int (abs n)) int);
        (1, map (fun n -> U.shift_left U.one (abs n mod 256)) small_int);
      ]
  in
  let dest =
    frequency
      [
        (6, map (fun j -> Pad j) (int_bound (n_pads - 1)));
        (2, map (fun j -> Pad_end j) (int_bound (n_pads - 1)));
        (1, return Fallback);
        (1, return Beyond);
        (1, return Huge);
      ]
  in
  let* n = int_range 2 8 in
  let* consts = list_repeat n word in
  let* dests = list_repeat n dest in
  let* source =
    frequency
      [
        (4, return Pure); (4, return Calldata); (1, return Timestamp);
        (1, return Caller); (1, return Origin); (1, return Balance);
        (1, return Call_result);
      ]
  in
  let* sel = frequency [ (3, oneofl consts); (2, word) ] in
  let* depth =
    frequency
      [ (4, int_range 1 6); (1, return 1021); (1, return 1022); (1, return 1023) ]
  in
  let* gas_delta =
    frequency
      [ (6, int_range (-25) 25); (1, return 0); (1, return (-3)); (4, return 10_000) ]
  in
  let+ comparisons = bool in
  { consts; dests; source; sel; depth; gas_delta; comparisons }

(* The fast path's guards, restated: the selector carries no
   side-effect taint and no call status, the two cells a group pushes
   fit on the stack, and the gas left after the first DUP 1 covers
   every group. *)
let resolved c =
  (match c.source with Pure | Calldata -> true | _ -> false)
  && depth_of c <= 1022 && c.gas_delta >= 0

let agrees c =
  let pre, code, start = layout c in
  (* the prelude's own events, steps and gas: run it alone, then STOP *)
  let alone = execute c ~gas:10_000_000 (Array.of_list (pre @ [ Op.STOP ])) in
  let entry_gas = (22 * List.length c.consts) + c.gas_delta in
  let gas = alone.gas_used + entry_gas in
  let got = execute c ~gas code in
  let status, events, steps, left = model c ~code ~start ~gas:entry_gas in
  let dispatches =
    List.length
      (List.filter (function Evm.Trace.Dispatch _ -> true | _ -> false) got.events)
  in
  (* the model's gas goes negative on an out-of-gas; the EVM consumes
     exactly the limit *)
  let used = gas - Stdlib.max left 0 in
  let ok =
    got.status = status
    && Evm.Trace.expand got.events = alone.events @ events
    && dispatches = (if resolved c then 1 else 0)
    && got.steps = alone.steps - 1 + steps
    && got.gas_used = used
  in
  if not ok then
    QCheck2.Test.fail_reportf
      "interpreter: %s, %d steps, %d gas, %d dispatches, events:@.%a@.model: %s, %d \
       steps, %d gas, events:@.%a"
      (Evm.Trace.status_to_string got.status) got.steps got.gas_used dispatches
      (Format.pp_print_list Evm.Trace.pp_event) (Evm.Trace.expand got.events)
      (Evm.Trace.status_to_string status) (alone.steps - 1 + steps) used
      (Format.pp_print_list Evm.Trace.pp_event) (alone.events @ events);
  true

let chain_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"dispatcher chain agrees with the per-group model"
       ~count:500 ~long_factor:40 ~print:print_case gen_case agrees)

(* Fixed cases, one per guard and per branch-distance side: each fails
   if that part of the fast path is wrong, whatever the random sweep
   happens to draw. *)
let pinned =
  let base =
    { consts = [ U.of_int 7; U.of_int 9; U.of_int 11 ]; dests = [ Pad 0; Pad 1; Pad 2 ];
      source = Pure; sel = U.of_int 11; depth = 1; gas_delta = 10_000;
      comparisons = true }
  in
  let case name c =
    Alcotest.test_case name `Quick (fun () ->
        Alcotest.(check bool) (print_case c) true (agrees c))
  in
  [
    case "a hit takes its group's target" base;
    case "a miss falls through to the fallback" { base with sel = U.of_int 8 };
    case "the first of equal constants wins"
      { base with consts = [ U.of_int 9; U.of_int 9; U.of_int 9 ]; sel = U.of_int 9 };
    case "exactly the chain's gas passes it" { base with sel = U.of_int 8; gas_delta = 0 };
    case "one gas short runs out inside the chain" { base with gas_delta = -1 };
    case "block-tainted selector reports every compare and branch"
      { base with source = Timestamp; sel = U.of_int 9 };
    case "caller-tainted selector" { base with source = Caller; sel = U.of_int 9 };
    case "balance-tainted selector" { base with source = Balance; consts = [ U.one; U.zero ] ;
                                       dests = [ Pad 0; Pad 1 ] };
    case "call-result selector reports its checks"
      { base with source = Call_result; consts = [ U.zero; U.one ]; dests = [ Pad 0; Pad 1 ] };
    case "depth 1022 runs the chain" { base with depth = 1022 };
    case "depth 1023 overflows at the first PUSH" { base with depth = 1023 };
    case "an invalid target is a bad jump" { base with dests = [ Pad 0; Pad 1; Fallback ] };
    case "a target wider than an int is a bad jump" { base with dests = [ Pad 0; Pad 1; Huge ] };
    case "comparison records off" { base with comparisons = false; sel = U.of_int 8 };
  ]

(* ---------------- comparison-record gate ---------------- *)

let expanded (t : Evm.Trace.t) = { t with events = Evm.Trace.expand t.events }

let erase_cmp (t : Evm.Trace.t) =
  {
    t with
    events =
      List.map
        (function
          | Evm.Trace.Branch b -> Evm.Trace.Branch { b with cmp = None }
          | e -> e)
        (Evm.Trace.expand t.events);
  }

(* Every example contract, a few random sequences each: the trace
   without comparison records is the trace with them, erased. *)
let comparisons_gate =
  Alcotest.test_case "comparisons off equals comparisons on, cmp erased" `Quick
    (fun () ->
      List.iter
        (fun (name, src) ->
          let c = Minisol.Contract.compile src in
          let ctx comparisons =
            Mufuzz.Executor.make_ctx ~contract:c ~gas:1_000_000 ~n_senders:3
              ~attacker:true ~comparisons ()
          in
          let on = ctx true and off = ctx false in
          for s = 1 to 4 do
            let rng = Util.Rng.create (Int64.of_int s) in
            let callable = List.filter (fun (f : Abi.func) -> not f.is_constructor) c.abi in
            let fns =
              "constructor"
              :: List.init 6 (fun _ -> (Util.Rng.choose_list rng callable).Abi.name)
            in
            let seed = Mufuzz.Seed.of_sequence rng ~n_senders:3 c.abi fns in
            let r_on = Mufuzz.Executor.run_in_ctx on seed in
            let r_off = Mufuzz.Executor.run_in_ctx off seed in
            let branches_with_cmp = ref 0 in
            List.iter2
              (fun (a : Mufuzz.Executor.tx_result) (b : Mufuzz.Executor.tx_result) ->
                List.iter
                  (function
                    | Evm.Trace.Branch { cmp = Some _; _ } -> incr branches_with_cmp
                    | Evm.Trace.Branch { cmp = None; _ } | _ -> ())
                  (Evm.Trace.expand a.trace.events);
                List.iter
                  (function
                    | Evm.Trace.Branch { cmp = Some _; _ } ->
                      Alcotest.failf "%s: a comparison record with comparisons off" name
                    | _ -> ())
                  (Evm.Trace.expand b.trace.events);
                if erase_cmp a.trace <> expanded b.trace then
                  Alcotest.failf "%s seed %d tx %d: traces differ beyond cmp" name s
                    a.tx_index)
              r_on.tx_results r_off.tx_results;
            if !branches_with_cmp = 0 then
              Alcotest.failf "%s seed %d: no comparison record to erase" name s
          done)
        Corpus.Examples.all)

(* ---------------- folding a dispatch = folding its expansion ----------------

   The hot consumers fold a [Dispatch] directly; everything else reads
   [Trace.expand]. Random sequences on every example contract with a
   dispatcher chain: each consumer must give the same result on a run's
   traces as on their expansion, float bits included. *)

type subject = {
  s_name : string;
  s_contract : Minisol.Contract.t;
  s_ctx : Mufuzz.Executor.ctx;
  s_cfg : Analysis.Cfg.t;
  s_static : Oracles.Oracle.static_info;
}

let subjects =
  lazy
    (Array.of_list
       (List.filter_map
          (fun (name, src) ->
            let c = Minisol.Contract.compile src in
            if Array.length (Evm.Bytecode.artifact c.bytecode).a_chains = 0 then None
            else
              Some
                {
                  s_name = name;
                  s_contract = c;
                  s_ctx =
                    Mufuzz.Executor.make_ctx ~contract:c ~gas:1_000_000 ~n_senders:3
                      ~attacker:true ();
                  s_cfg = Analysis.Cfg.build c.bytecode;
                  s_static = Oracles.Oracle.static_info_of c;
                })
          Corpus.Examples.all))

(* contract index, RNG seed, calls after the constructor *)
let gen_run = QCheck2.Gen.(triple (int_bound 1000) (int_bound 100_000) (int_range 1 10))

let print_run (i, seed, calls) =
  let s = Lazy.force subjects in
  Printf.sprintf "%s, seed %d, %d calls" s.(i mod Array.length s).s_name seed calls

let expand_result (r : Mufuzz.Executor.tx_result) = { r with trace = expanded r.trace }

let summary_view (s : Mufuzz.Branch_summary.t) =
  ( s.keys, s.hits, Array.map Int64.bits_of_float s.dists, s.nested,
    Array.map Int64.bits_of_float s.weights )

let prefix_view (wbs : Analysis.Prefix.weighted_branch list) =
  List.map
    (fun (w : Analysis.Prefix.weighted_branch) ->
      (w.pc, w.taken, w.nested_score, w.vulnerable, w.flip_vulnerable,
       Int64.bits_of_float w.weight))
    wbs

let coverage_view results =
  let cov = Mufuzz.Coverage.create () in
  let fresh =
    List.map (fun (r : Mufuzz.Executor.tx_result) -> Mufuzz.Coverage.record cov r.trace)
      results
  in
  (fresh, Telemetry.Json.to_string (Mufuzz.Coverage.to_json cov))

let folds_agree (i, seed, calls) =
  let subjects = Lazy.force subjects in
  let s = subjects.(i mod Array.length subjects) in
  let rng = Util.Rng.create (Int64.of_int seed) in
  let callable =
    List.filter (fun (f : Abi.func) -> not f.is_constructor) s.s_contract.abi
  in
  let fns =
    "constructor"
    :: List.init calls (fun _ -> (Util.Rng.choose_list rng callable).Abi.name)
  in
  let seed = Mufuzz.Seed.of_sequence rng ~n_senders:3 s.s_contract.abi fns in
  let run = Mufuzz.Executor.run_in_ctx s.s_ctx seed in
  let exp = { run with tx_results = List.map expand_result run.tx_results } in
  let dispatched =
    List.exists
      (fun (r : Mufuzz.Executor.tx_result) ->
        List.exists (function Evm.Trace.Dispatch _ -> true | _ -> false) r.trace.events)
      run.tx_results
  in
  let summaries weigh =
    let b = Mufuzz.Branch_summary.builder ?weigh s.s_cfg in
    let on_trace = summary_view (Mufuzz.Branch_summary.summarize b run.tx_results) in
    (on_trace, summary_view (Mufuzz.Branch_summary.summarize b exp.tx_results))
  in
  let agree (a, b) = a = b in
  let inspect (r : Mufuzz.Executor.run) = Mufuzz.Executor.inspect ~static:s.s_static r in
  let checks =
    [
      ("a dispatch was recorded", dispatched);
      ("summary, weighing", agree (summaries (Some Analysis.Prefix.default_params)));
      ("summary, not weighing", agree (summaries None));
      ("oracles", inspect run = inspect exp);
      ( "prefix analysis",
        List.for_all2
          (fun (r : Mufuzz.Executor.tx_result) (e : Mufuzz.Executor.tx_result) ->
            prefix_view (Analysis.Prefix.analyze_trace s.s_cfg r.trace)
            = prefix_view (Analysis.Prefix.analyze_trace s.s_cfg e.trace))
          run.tx_results exp.tx_results );
      ("coverage record", coverage_view run.tx_results = coverage_view exp.tx_results);
    ]
  in
  match List.find_opt (fun (_, ok) -> not ok) checks with
  | Some (what, _) -> QCheck2.Test.fail_reportf "%s differs on the expansion" what
  | None -> true

let expansion =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"dispatch folds equal expansion folds" ~count:200
       ~long_factor:20 ~print:print_run gen_run folds_agree)

(* A dispatch on its own: no vulnerable event for the prefix weights, no
   alarm, and as many branches as groups passed. *)
let lone_dispatch =
  Alcotest.test_case "a dispatch is branches only" `Quick (fun () ->
      let consts = [| U.of_int 7; U.of_int 9; U.of_int 11 |] in
      let d =
        Evm.Trace.Dispatch
          { pc = 10; consts; passed = 2; hit = true; sel = U.of_int 9;
            sel_taint = T.calldata; cmps = false }
      in
      Alcotest.(check bool) "not a vulnerable event" false
        (Analysis.Prefix.is_vulnerable_event d);
      let trace =
        { Evm.Trace.status = Success; events = [ d ]; return_data = ""; gas_used = 0;
          steps = 0 }
      in
      Alcotest.(check int) "no alarm" 0
        (List.length
           (Oracles.Oracle.inspect_trace
              ~static:(Oracles.Oracle.static_info_of
                         (Minisol.Contract.compile Corpus.Examples.crowdsale))
              ~tx_index:0 ~tx_success:true trace));
      Alcotest.(check (list (pair int bool))) "branches" [ (14, false); (19, true) ]
        (Evm.Trace.branches trace))

let suite =
  [
    ("dispatch: chain model", chain_model :: pinned);
    ("dispatch: expansion", [ expansion; lone_dispatch ]);
    ("dispatch: comparisons gate", [ comparisons_gate ]);
  ]
