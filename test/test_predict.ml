(* Input prediction: solver laws at the value level, replay laws through
   the interpreter (a proposed value really flips the branch it targets),
   mask-respecting injection, the config/checkpoint codec extensions, and
   the headline differential — a magic-value guard the random mutator
   cannot pass falls to [--predict] within the same budget. *)

module U = Word.U256
module J = Telemetry.Json
module T = Evm.Trace
module S = Predict.Solver
module I = Predict.Inject
module Op = Evm.Opcode

let unit name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f

let qprop name ?(count = 300) ~print gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ~print gen f)

(* same mixed generator as test_u256: full-width words plus the small
   and boundary values where comparison corner cases live *)
let gen_u256 =
  QCheck2.Gen.(
    oneof
      [
        (let* a = int64 and* b = int64 and* c = int64 and* d = int64 in
         return
           (U.logor
              (U.shift_left (U.of_int64 a) 192)
              (U.logor
                 (U.shift_left (U.of_int64 b) 128)
                 (U.logor (U.shift_left (U.of_int64 c) 64) (U.of_int64 d)))));
        map (fun n -> U.of_int (abs n)) small_int;
        oneofl
          [
            U.zero; U.one; U.max_value; U.sub U.max_value U.one;
            U.shift_left U.one 255; U.sub (U.shift_left U.one 128) U.one;
          ];
      ])

let all_ops = [ T.Ceq; T.Clt; T.Cgt; T.Cslt; T.Csgt; T.Ciszero ]

let gen_cmp =
  QCheck2.Gen.(
    let* cmp_op = oneofl all_ops
    and* lhs = gen_u256
    and* rhs = gen_u256
    and* negated = bool in
    return
      {
        T.cmp_pc = 0; cmp_op; lhs; rhs;
        lhs_taint = T.Taint.calldata; rhs_taint = T.Taint.calldata;
        negated;
      })

let print_cmp (c : T.comparison) =
  Printf.sprintf "%s lhs=%s rhs=%s neg=%b"
    (T.cmp_op_to_string c.cmp_op) (U.to_decimal_string c.lhs)
    (U.to_decimal_string c.rhs) c.negated

(* ---------------- solver laws ---------------- *)

let solver_tests =
  [
    qprop "every candidate flips the condition to want" ~print:print_cmp
      gen_cmp (fun cmp ->
        List.for_all
          (fun want ->
            List.for_all
              (fun (side, v) ->
                let lhs, rhs =
                  match side with
                  | S.Lhs -> (v, cmp.T.rhs)
                  | S.Rhs -> (cmp.T.lhs, v)
                in
                S.eval_cond cmp ~lhs ~rhs = want)
              (S.candidates cmp ~want))
          [ true; false ]);
    qprop "uncontrolled operands propose nothing" ~print:print_cmp gen_cmp
      (fun cmp ->
        let cmp =
          { cmp with T.lhs_taint = T.Taint.storage; rhs_taint = T.Taint.block }
        in
        S.candidates cmp ~want:true = []
        && S.candidates cmp ~want:false = []
        && S.controlled_sides cmp = []);
    qprop "EQ with want=true proposes the exact magic value"
      ~print:(fun (a, b) ->
        U.to_decimal_string a ^ ", " ^ U.to_decimal_string b)
      QCheck2.Gen.(pair gen_u256 gen_u256)
      (fun (lhs, rhs) ->
        QCheck2.assume (not (U.equal lhs rhs));
        let cmp =
          { T.cmp_pc = 0; cmp_op = T.Ceq; lhs; rhs;
            lhs_taint = T.Taint.none; rhs_taint = T.Taint.calldata;
            negated = false }
        in
        List.exists
          (fun (side, v) -> side = S.Rhs && U.equal v lhs)
          (S.candidates cmp ~want:true));
    unit "input_controlled covers calldata, callvalue and caller only"
      (fun () ->
        List.iter
          (fun (t, expect) ->
            Alcotest.(check bool) "taint class" expect (S.input_controlled t))
          [
            (T.Taint.calldata, true); (T.Taint.callvalue, true);
            (T.Taint.caller, true); (T.Taint.storage, false);
            (T.Taint.block, false); (T.Taint.balance, false);
            (T.Taint.origin, false); (T.Taint.callresult, false);
            (T.Taint.union T.Taint.storage T.Taint.calldata, true);
          ]);
  ]

(* ---------------- replay laws through the interpreter ---------------- *)

(* PUSH 0; CALLDATALOAD; <prepare>; PUSH dest; JUMPI; STOP; JUMPDEST;
   STOP — the branch condition derives from the first calldata word, so
   every solver proposal maps back onto the data by construction. *)
let branch_program prepare =
  let pre = [ Op.PUSH U.zero; Op.CALLDATALOAD ] @ prepare in
  let dest = List.length pre + 3 in
  pre @ [ Op.PUSH (U.of_int dest); Op.JUMPI; Op.STOP; Op.JUMPDEST; Op.STOP ]

let addr_a = U.of_int 0xA
let addr_b = U.of_int 0xB

let run_data code data =
  let state = Evm.State.set_code Evm.State.empty addr_a (Array.of_list code) in
  let _, trace =
    Evm.Interp.execute ~block:Evm.Interp.default_block ~state
      {
        caller = addr_b; origin = addr_b; callee = addr_a; value = U.zero;
        data; gas = 1_000_000;
      }
  in
  trace

let find_branch (trace : T.t) =
  List.find_map
    (function
      | T.Branch { pc; taken; cmp; _ } -> Some (pc, taken, cmp) | _ -> None)
    trace.T.events

let replay_case name prepare d0 =
  unit name (fun () ->
      let code = branch_program prepare in
      match find_branch (run_data code (U.to_bytes_be d0)) with
      | None -> Alcotest.fail "no branch recorded"
      | Some (_, _, None) -> Alcotest.fail "branch carries no comparison"
      | Some (pc, taken, Some cmp) ->
        let controlled = S.controlled_sides cmp in
        Alcotest.(check bool) "some side is input-controlled" true
          (controlled <> []);
        List.iter
          (fun (t, v) ->
            if S.input_controlled t then
              Alcotest.(check bool) "controlled operand is the data word"
                true (U.equal v d0))
          [ (cmp.T.lhs_taint, cmp.T.lhs); (cmp.T.rhs_taint, cmp.T.rhs) ];
        let want = not taken in
        let cands = S.candidates cmp ~want in
        Alcotest.(check bool) "solver proposes something" true (cands <> []);
        List.iter
          (fun (_, v) ->
            match find_branch (run_data code (U.to_bytes_be v)) with
            | Some (pc', taken', _) ->
              Alcotest.(check int) "same branch" pc pc';
              Alcotest.(check bool)
                (Printf.sprintf "value %s flips the branch"
                   (U.to_decimal_string v))
                want taken'
            | None -> Alcotest.fail "branch vanished on replay")
          cands)

let magic = U.of_decimal_string "3163536527"
let neg n = U.sub U.zero (U.of_int n)

let replay_tests =
  [
    replay_case "EQ: exact magic value" [ Op.PUSH magic; Op.EQ ] U.one;
    replay_case "EQ negated: any differing value"
      [ Op.PUSH magic; Op.EQ; Op.ISZERO ] magic;
    replay_case "LT: boundary above" [ Op.PUSH (U.of_int 1000); Op.LT ]
      (U.of_int 3);
    replay_case "LT: boundary below" [ Op.PUSH (U.of_int 1000); Op.LT ]
      (U.of_int 5000);
    replay_case "GT: boundary below" [ Op.PUSH (U.of_int 1000); Op.GT ]
      (U.of_int 5000);
    replay_case "SLT: signed boundary" [ Op.PUSH (neg 5); Op.SLT ] (neg 10);
    replay_case "SGT: signed boundary" [ Op.PUSH (neg 5); Op.SGT ] (neg 1);
    replay_case "ISZERO: zero test both ways" [ Op.ISZERO ] (U.of_int 7);
    replay_case "ISZERO from zero" [ Op.ISZERO ] U.zero;
  ]

(* ---------------- injection laws ---------------- *)

let stream_of_words ws =
  String.concat "" (List.map U.to_bytes_be ws)

let inject_tests =
  [
    unit "windows: calldata words then none past args_len" (fun () ->
        Alcotest.(check (list int)) "two arg words" [ 0; 32 ]
          (I.windows ~taint:T.Taint.calldata ~args_len:64 ~stream_len:96);
        Alcotest.(check (list int)) "value word" [ 64 ]
          (I.windows ~taint:T.Taint.callvalue ~args_len:64 ~stream_len:96);
        Alcotest.(check (list int)) "short stream drops windows" []
          (I.windows ~taint:T.Taint.calldata ~args_len:32 ~stream_len:16));
    qprop "patch writes exactly the value and only where allowed"
      ~print:U.to_decimal_string gen_u256 (fun v ->
        let stream = stream_of_words [ U.of_int 5; U.of_int 7 ] in
        (match I.patch ~allow:(fun _ -> true) ~stream ~at:0 v with
        | Some s' ->
          U.equal (I.read_window s' 0) v
          && String.sub s' 32 32 = String.sub stream 32 32
        | None -> U.equal v (U.of_int 5) (* only the no-op is refused *))
        &&
        (* allow nothing: any change is refused *)
        match I.patch ~allow:(fun _ -> false) ~stream ~at:0 v with
        | None -> true
        | Some _ -> false);
    unit "patch refuses partial windows and no-ops" (fun () ->
        let stream = stream_of_words [ magic; U.zero ] in
        Alcotest.(check bool) "no-op refused" true
          (I.patch ~allow:(fun _ -> true) ~stream ~at:0 magic = None);
        Alcotest.(check bool) "window past end refused" true
          (I.patch ~allow:(fun _ -> true) ~stream ~at:48 U.one = None);
        (* the low bytes of [magic] must change but are protected *)
        Alcotest.(check bool) "protected byte vetoes the whole window" true
          (I.patch ~allow:(fun pos -> pos < 28) ~stream ~at:0 U.one = None));
    unit "patches ranks the window matching the observed operand first"
      (fun () ->
        let stream = stream_of_words [ U.of_int 5; U.of_int 7; U.zero ] in
        match
          I.patches ~allow:(fun _ -> true) ~taint:T.Taint.calldata
            ~current:(U.of_int 7) ~args_len:64 ~stream magic
        with
        | first :: _ ->
          Alcotest.(check bool) "second word patched first" true
            (U.equal (I.read_window first 32) magic);
          Alcotest.(check bool) "first word untouched in ranked patch" true
            (U.equal (I.read_window first 0) (U.of_int 5))
        | [] -> Alcotest.fail "no patches produced");
  ]

(* ---------------- codec extensions ---------------- *)

let strict_guard = Minisol.Contract.compile Corpus.Examples.strict_guard
let guarded_token = Minisol.Contract.compile Corpus.Examples.guarded_token

let json_update key f = function
  | J.Obj fields ->
    J.Obj (List.map (fun (k, v) -> if k = key then (k, f v) else (k, v)) fields)
  | j -> j

let json_drop key = function
  | J.Obj fields -> J.Obj (List.filter (fun (k, _) -> k <> key) fields)
  | j -> j

let codec_tests =
  [
    unit "config round-trips the predict knobs" (fun () ->
        let c =
          { Mufuzz.Config.default with predict = true; predict_attempts = 3;
            predict_max_candidates = 4 }
        in
        match
          Mufuzz.Config.of_json ~abi:strict_guard.Minisol.Contract.abi
            (Mufuzz.Config.to_json c)
        with
        | Error e -> Alcotest.fail e
        | Ok c' ->
          Alcotest.(check bool) "predict" true c'.Mufuzz.Config.predict;
          Alcotest.(check int) "attempts" 3 c'.Mufuzz.Config.predict_attempts;
          Alcotest.(check int) "candidates" 4
            c'.Mufuzz.Config.predict_max_candidates);
    unit "config decode requires the predict fields" (fun () ->
        List.iter
          (fun k ->
            let j = json_drop k (Mufuzz.Config.to_json Mufuzz.Config.default) in
            match Mufuzz.Config.of_json ~abi:strict_guard.Minisol.Contract.abi j with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "decoded a config without %s" k)
          [ "predict"; "predict_attempts"; "predict_max_candidates" ]);
  ]

(* a real mid-run snapshot to wrap in checkpoints *)
let small_snapshot =
  lazy
    (let snap = ref None in
     let hook ~final ~bus:_ ~execs thunk =
       if (not final) && execs >= 200 && Option.is_none !snap then
         snap := Some (thunk ())
     in
     let config =
       { Mufuzz.Config.default with max_executions = 600; rng_seed = 5L }
     in
     ignore (Mufuzz.Campaign.run ~config ~on_safe_point:hook strict_guard);
     match !snap with
     | Some s -> (config, s)
     | None -> Alcotest.fail "campaign never hit a safe point")

let checkpoint_tests =
  [
    slow "checkpoint round-trips sn_attempts including backoff" (fun () ->
        let config, s = Lazy.force small_snapshot in
        let s =
          { s with Mufuzz.Campaign.sn_attempts = [ ((5, true), 3); ((9, false), -2) ] }
        in
        let t =
          { Persist.Checkpoint.tool = "mufuzz"; config;
            contract = strict_guard; snapshot = s }
        in
        match Persist.Checkpoint.of_json (Persist.Checkpoint.to_json t) with
        | Error e -> Alcotest.fail e
        | Ok t' ->
          Alcotest.(check (list (pair (pair int bool) int)))
            "attempts preserved" s.Mufuzz.Campaign.sn_attempts
            t'.Persist.Checkpoint.snapshot.Mufuzz.Campaign.sn_attempts);
    slow "checkpoints without the prediction fields are rejected" (fun () ->
        let config, s = Lazy.force small_snapshot in
        let t =
          { Persist.Checkpoint.tool = "mufuzz"; config;
            contract = strict_guard; snapshot = s }
        in
        List.iter
          (fun k ->
            let j =
              Persist.Checkpoint.to_json t |> json_update "snapshot" (json_drop k)
            in
            match Persist.Checkpoint.of_json j with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "loaded a snapshot without %s" k)
          [ "attempts"; "predict_proposals" ]);
  ]

(* ---------------- campaign-level differential ---------------- *)

(* Locate the guard branch dynamically: run a probe sequence and find
   the branch whose comparison mentions [magic]; the uncovered target is
   the opposite of the observed side. *)
let guard_side contract fn_name magic =
  let fn =
    List.find
      (fun (f : Abi.func) -> f.Abi.name = fn_name)
      contract.Minisol.Contract.abi
  in
  let ctor =
    List.find
      (fun (f : Abi.func) -> f.Abi.is_constructor)
      contract.Minisol.Contract.abi
  in
  let mk fn =
    let n = Abi.args_byte_length fn + 32 in
    { Mufuzz.Seed.fn; stream = String.make n '\000'; sender = 0 }
  in
  let seed = { Mufuzz.Seed.txs = [ mk ctor; mk fn ] } in
  let ctx =
    Mufuzz.Executor.make_ctx ~contract ~gas:1_000_000 ~n_senders:3
      ~attacker:false ()
  in
  let run = Mufuzz.Executor.run_in_ctx ctx seed in
  match
    List.find_map
      (fun (r : Mufuzz.Executor.tx_result) ->
        List.find_map
          (function
            | T.Branch { pc; taken; cmp = Some c; _ }
              when U.equal c.T.lhs magic || U.equal c.T.rhs magic ->
              Some (pc, not taken)
            | _ -> None)
          (T.expand r.trace.T.events))
      run.tx_results
  with
  | Some side -> side
  | None -> Alcotest.fail "guard comparison not found in probe run"

let counter_value metrics name =
  Telemetry.Metrics.value (Telemetry.Metrics.counter metrics name)

let diff_config predict =
  { Mufuzz.Config.default with max_executions = 1200; rng_seed = 7L; predict;
    predict_attempts = 10 }

let differential_tests =
  [
    slow "predict covers the magic-value guard; the control cannot"
      (fun () ->
        let guard = guard_side strict_guard "open" magic in
        let m0 = Telemetry.Metrics.create () in
        let control =
          Mufuzz.Campaign.run ~config:(diff_config false) ~metrics:m0
            strict_guard
        in
        Alcotest.(check bool) "control misses the guard" false
          (List.mem guard control.Mufuzz.Report.covered);
        Alcotest.(check int) "prediction inert when off" 0
          (counter_value m0 "mufuzz_predict_proposed_total");
        let m1 = Telemetry.Metrics.create () in
        let predicted =
          Mufuzz.Campaign.run ~config:(diff_config true) ~metrics:m1
            strict_guard
        in
        Alcotest.(check bool) "predict covers the guard" true
          (List.mem guard predicted.Mufuzz.Report.covered);
        Alcotest.(check bool) "proposals were spent" true
          (counter_value m1 "mufuzz_predict_proposed_total" > 0);
        Alcotest.(check bool) "at least one flip recorded" true
          (counter_value m1 "mufuzz_predict_flipped_total" >= 1));
    slow "parallel predict flips the guard and stays deterministic"
      (fun () ->
        let guard = guard_side strict_guard "open" magic in
        let config = { (diff_config true) with jobs = 2 } in
        let m = Telemetry.Metrics.create () in
        let r1 = Mufuzz.Campaign.run_parallel ~config ~metrics:m strict_guard in
        Alcotest.(check bool) "jobs=2 covers the guard" true
          (List.mem guard r1.Mufuzz.Report.covered);
        Alcotest.(check bool) "jobs=2 flips via prediction" true
          (counter_value m "mufuzz_predict_flipped_total" >= 1);
        let r2 = Mufuzz.Campaign.run_parallel ~config strict_guard in
        Alcotest.(check (list (pair int bool))) "identical coverage on rerun"
          (List.sort compare r1.Mufuzz.Report.covered)
          (List.sort compare r2.Mufuzz.Report.covered));
  ]

(* ---------------- checkpoint/resume equivalence with predict on ------ *)

let normalized report =
  match Mufuzz.Report.to_json report with
  | J.Obj fields ->
    J.to_string
      (J.Obj
         (List.filter
            (fun (k, _) ->
              not
                (List.mem k
                   [ "wall_seconds"; "execs_per_sec"; "steps_per_sec" ]))
            fields))
  | j -> J.to_string j

let resume_tests =
  [
    slow "resumed predict campaign equals the uninterrupted run" (fun () ->
        let config =
          { (diff_config true) with max_executions = 1600; rng_seed = 21L }
        in
        let snap = ref None in
        let hook ~final ~bus:_ ~execs thunk =
          if (not final) && execs >= 500 && Option.is_none !snap then
            snap := Some (thunk ())
        in
        let full =
          Mufuzz.Campaign.run ~config ~on_safe_point:hook strict_guard
        in
        match !snap with
        | None -> Alcotest.fail "no snapshot captured"
        | Some s ->
          let resumed =
            Mufuzz.Campaign.run ~config ~resume:("inline", s) strict_guard
          in
          Alcotest.(check string) "same report modulo wall clock"
            (normalized full) (normalized resumed));
  ]

(* ---------------- dictionary regression ---------------- *)

let dictionary_tests =
  [
    unit "push constants carry the mint guard literal" (fun () ->
        let a = Evm.Bytecode.artifact guarded_token.Minisol.Contract.bytecode in
        Alcotest.(check bool) "1000000000 in dictionary" true
          (Array.exists
             (fun w -> U.equal w (U.of_int 1000000000))
             a.Evm.Bytecode.a_push_constants));
    unit "strict guard product is NOT a push constant" (fun () ->
        (* the differential only means something if the magic value is
           invisible to the dictionary *)
        let a = Evm.Bytecode.artifact strict_guard.Minisol.Contract.bytecode in
        Alcotest.(check bool) "factors present" true
          (Array.exists
             (fun w -> U.equal w (U.of_int 48271))
             a.Evm.Bytecode.a_push_constants);
        Alcotest.(check bool) "product absent" false
          (Array.exists (fun w -> U.equal w magic)
             a.Evm.Bytecode.a_push_constants));
    slow "the word dictionary alone solves the literal mint guard"
      (fun () ->
        let guard = guard_side guarded_token "mint" (U.of_int 1000000000) in
        let config =
          { Mufuzz.Config.default with max_executions = 3000; rng_seed = 11L }
        in
        let r = Mufuzz.Campaign.run ~config guarded_token in
        Alcotest.(check bool) "mint guard pass side covered" true
          (List.mem guard r.Mufuzz.Report.covered));
  ]

let suite =
  [
    ("predict.solver", solver_tests);
    ("predict.replay", replay_tests);
    ("predict.inject", inject_tests);
    ("predict.codec", codec_tests @ checkpoint_tests);
    ("predict.differential", differential_tests @ resume_tests);
    ("predict.dictionary", dictionary_tests);
  ]
