(* Interpreter semantics: direct bytecode programs exercising arithmetic,
   control flow, storage, value transfer, calls, failure modes and the
   instrumentation events the fuzzer depends on. *)

module U = Word.U256
module Op = Evm.Opcode

let u256 = Alcotest.testable U.pp U.equal

let unit name f = Alcotest.test_case name `Quick f

let branch_events (t : Evm.Trace.t) =
  List.filter (function Evm.Trace.Branch _ -> true | _ -> false) t.events

let addr_a = U.of_int 0xA
let addr_b = U.of_int 0xB

(* Run [code] installed at [addr_a]; returns (state, trace). *)
let run ?(state = Evm.State.empty) ?(value = U.zero) ?(data = "")
    ?(caller = addr_b) ?(gas = 1_000_000) ?config code =
  let state = Evm.State.set_code state addr_a (Array.of_list code) in
  let state = Evm.State.credit state caller (U.of_decimal_string "1000000000000000000000") in
  Evm.Interp.execute ?config ~block:Evm.Interp.default_block ~state
    { caller; origin = caller; callee = addr_a; value; data; gas }

(* PUSH v; PUSH 0; MSTORE; PUSH 32; PUSH 0; RETURN — return top word *)
let return_value compute =
  compute
  @ [ Op.PUSH U.zero; Op.MSTORE; Op.PUSH (U.of_int 32); Op.PUSH U.zero; Op.RETURN ]

let returned_word (trace : Evm.Trace.t) = U.of_bytes_be trace.return_data

let check_compute name expected compute =
  unit name (fun () ->
      let _, trace = run (return_value compute) in
      Alcotest.(check string) "status" "success"
        (Evm.Trace.status_to_string trace.status);
      Alcotest.check u256 "value" expected (returned_word trace))

let arithmetic =
  [
    check_compute "ADD" (U.of_int 5) [ Op.PUSH (U.of_int 2); Op.PUSH (U.of_int 3); Op.ADD ];
    check_compute "SUB pops top as minuend" (U.of_int 7)
      [ Op.PUSH (U.of_int 3); Op.PUSH (U.of_int 10); Op.SUB ];
    check_compute "MUL" (U.of_int 42) [ Op.PUSH (U.of_int 6); Op.PUSH (U.of_int 7); Op.MUL ];
    check_compute "DIV" (U.of_int 4) [ Op.PUSH (U.of_int 3); Op.PUSH (U.of_int 12); Op.DIV ];
    check_compute "DIV by zero" U.zero [ Op.PUSH U.zero; Op.PUSH (U.of_int 12); Op.DIV ];
    check_compute "MOD" (U.of_int 2) [ Op.PUSH (U.of_int 5); Op.PUSH (U.of_int 12); Op.MOD ];
    check_compute "EXP" (U.of_int 81) [ Op.PUSH (U.of_int 4); Op.PUSH (U.of_int 3); Op.EXP ];
    check_compute "LT true" U.one [ Op.PUSH (U.of_int 5); Op.PUSH (U.of_int 3); Op.LT ];
    check_compute "GT false" U.zero [ Op.PUSH (U.of_int 5); Op.PUSH (U.of_int 3); Op.GT ];
    check_compute "EQ" U.one [ Op.PUSH (U.of_int 9); Op.PUSH (U.of_int 9); Op.EQ ];
    check_compute "ISZERO" U.one [ Op.PUSH U.zero; Op.ISZERO ];
    check_compute "NOT" U.max_value [ Op.PUSH U.zero; Op.NOT ];
    check_compute "SHL" (U.of_int 8) [ Op.PUSH U.one; Op.PUSH (U.of_int 3); Op.SHL ];
    check_compute "SHR" (U.of_int 2) [ Op.PUSH (U.of_int 8); Op.PUSH (U.of_int 2); Op.SHR ];
    check_compute "BYTE" (U.of_int 0xff)
      [ Op.PUSH (U.of_int 0xff); Op.PUSH (U.of_int 31); Op.BYTE ];
    check_compute "ADDMOD" (U.of_int 1)
      [ Op.PUSH (U.of_int 3); Op.PUSH (U.of_int 5); Op.PUSH (U.of_int 5); Op.ADDMOD ];
    check_compute "DUP1" (U.of_int 14)
      [ Op.PUSH (U.of_int 7); Op.DUP 1; Op.ADD ];
    check_compute "SWAP1" (U.of_int 3)
      [ Op.PUSH (U.of_int 4); Op.PUSH (U.of_int 1); Op.SWAP 1; Op.SUB ];
  ]

let control_flow =
  [
    unit "JUMP to dest" (fun () ->
        (* 0:PUSH 3, 1:JUMP, 2:INVALID, 3:JUMPDEST, 4:STOP *)
        let _, trace =
          run [ Op.PUSH (U.of_int 3); Op.JUMP; Op.INVALID; Op.JUMPDEST; Op.STOP ]
        in
        Alcotest.(check string) "ok" "success" (Evm.Trace.status_to_string trace.status));
    unit "JUMP to non-JUMPDEST fails" (fun () ->
        let _, trace = run [ Op.PUSH (U.of_int 2); Op.JUMP; Op.STOP ] in
        Alcotest.(check string) "bad" "bad-jump" (Evm.Trace.status_to_string trace.status));
    unit "JUMPI taken and not taken emit branch events" (fun () ->
        let code cond =
          [ Op.PUSH (U.of_int cond); Op.PUSH (U.of_int 5); Op.SWAP 1;
            (* stack: [cond; dest] -> want [dest; cond] on top: dest top *) ]
        in
        ignore code;
        (* simpler: PUSH cond; PUSH dest; JUMPI *)
        let prog cond =
          [ Op.PUSH (U.of_int cond); Op.PUSH (U.of_int 4); Op.JUMPI; Op.STOP;
            Op.JUMPDEST; Op.STOP ]
        in
        let _, t1 = run (prog 1) in
        let _, t0 = run (prog 0) in
        Alcotest.(check (list (pair int bool))) "taken" [ (2, true) ] (Evm.Trace.branches t1);
        Alcotest.(check (list (pair int bool))) "not taken" [ (2, false) ]
          (Evm.Trace.branches t0));
    unit "branch distance from comparison" (fun () ->
        (* LT pops its first operand from the top: 3 < 5 is true, and the
           distance to flip (make it false) is 5 - 3 = 2 *)
        let prog =
          [ Op.PUSH (U.of_int 5); Op.PUSH (U.of_int 3); Op.LT;
            Op.PUSH (U.of_int 6); Op.JUMPI; Op.STOP; Op.JUMPDEST; Op.STOP ]
        in
        let _, trace = run prog in
        match branch_events trace with
        | [ Evm.Trace.Branch { taken; dist_to_flip; _ } ] ->
          Alcotest.(check bool) "taken" true taken;
          Alcotest.(check (float 0.001)) "distance" 2.0 dist_to_flip
        | _ -> Alcotest.fail "expected one branch event");
    unit "branch distance on the false side" (fun () ->
        (* 5 < 3 is false; distance to make it true is 5 - 3 + 1 = 3 *)
        let prog =
          [ Op.PUSH (U.of_int 3); Op.PUSH (U.of_int 5); Op.LT;
            Op.PUSH (U.of_int 6); Op.JUMPI; Op.STOP; Op.JUMPDEST; Op.STOP ]
        in
        let _, trace = run prog in
        match branch_events trace with
        | [ Evm.Trace.Branch { taken; dist_to_flip; _ } ] ->
          Alcotest.(check bool) "not taken" false taken;
          Alcotest.(check (float 0.001)) "distance" 3.0 dist_to_flip
        | _ -> Alcotest.fail "expected one branch event");
    unit "ISZERO flips distance sides" (fun () ->
        (* 3 < 5 true; ISZERO makes cond false; flipping = making 3<5 false,
           distance 5-3 = 2 *)
        let prog =
          [ Op.PUSH (U.of_int 5); Op.PUSH (U.of_int 3); Op.LT; Op.ISZERO;
            Op.PUSH (U.of_int 7); Op.JUMPI; Op.STOP; Op.JUMPDEST; Op.STOP ]
        in
        let _, trace = run prog in
        match branch_events trace with
        | [ Evm.Trace.Branch { taken; dist_to_flip; _ } ] ->
          Alcotest.(check bool) "not taken" false taken;
          Alcotest.(check (float 0.001)) "distance" 2.0 dist_to_flip
        | _ -> Alcotest.fail "expected one branch event");
    unit "out of gas on infinite loop" (fun () ->
        let prog = [ Op.JUMPDEST; Op.PUSH U.zero; Op.JUMP ] in
        let _, trace = run ~gas:10_000 prog in
        Alcotest.(check string) "oog" "out-of-gas"
          (Evm.Trace.status_to_string trace.status));
    unit "stack underflow reported" (fun () ->
        let _, trace = run [ Op.ADD ] in
        Alcotest.(check string) "stackerr" "stack-error"
          (Evm.Trace.status_to_string trace.status));
  ]

let storage_and_state =
  [
    unit "SSTORE persists on success" (fun () ->
        let prog =
          [ Op.PUSH (U.of_int 99); Op.PUSH (U.of_int 1); Op.SSTORE; Op.STOP ]
        in
        let st, trace = run prog in
        Alcotest.(check string) "ok" "success" (Evm.Trace.status_to_string trace.status);
        Alcotest.check u256 "slot1" (U.of_int 99)
          (Evm.State.storage_get st addr_a U.one));
    unit "REVERT rolls back storage" (fun () ->
        let prog =
          [ Op.PUSH (U.of_int 99); Op.PUSH (U.of_int 1); Op.SSTORE;
            Op.PUSH U.zero; Op.PUSH U.zero; Op.REVERT ]
        in
        let st, trace = run prog in
        Alcotest.(check string) "reverted" "reverted"
          (Evm.Trace.status_to_string trace.status);
        Alcotest.check u256 "slot1 untouched" U.zero
          (Evm.State.storage_get st addr_a U.one));
    unit "value transfer credited on success" (fun () ->
        let st, trace = run ~value:(U.of_int 1234) [ Op.STOP ] in
        Alcotest.(check string) "ok" "success" (Evm.Trace.status_to_string trace.status);
        Alcotest.check u256 "balance" (U.of_int 1234) (Evm.State.balance st addr_a));
    unit "value transfer rolled back on revert" (fun () ->
        let st, _ =
          run ~value:(U.of_int 1234) [ Op.PUSH U.zero; Op.PUSH U.zero; Op.REVERT ]
        in
        Alcotest.check u256 "no balance" U.zero (Evm.State.balance st addr_a));
    unit "CALLVALUE visible" (fun () ->
        let _, trace = run ~value:(U.of_int 88) (return_value [ Op.CALLVALUE ]) in
        Alcotest.check u256 "cv" (U.of_int 88) (returned_word trace));
    unit "CALLDATALOAD zero-pads" (fun () ->
        let data = "\x01\x02" in
        let _, trace =
          run ~data (return_value [ Op.PUSH U.zero; Op.CALLDATALOAD ])
        in
        let expect = U.of_bytes_be (data ^ String.make 30 '\000') in
        Alcotest.check u256 "word" expect (returned_word trace));
    unit "SELFDESTRUCT moves balance and deletes code" (fun () ->
        let st, trace =
          run ~value:(U.of_int 500) [ Op.PUSH addr_b; Op.SELFDESTRUCT ]
        in
        Alcotest.(check string) "ok" "success" (Evm.Trace.status_to_string trace.status);
        Alcotest.(check int) "code gone" 0 (Array.length (Evm.State.code st addr_a));
        (* caller had 10^21, sent 500, got 500 back as beneficiary *)
        Alcotest.check u256 "balance back"
          (U.of_decimal_string "1000000000000000000000")
          (Evm.State.balance st addr_b));
  ]

let events =
  [
    unit "TIMESTAMP into JUMPI raises block-state event" (fun () ->
        let prog =
          [ Op.TIMESTAMP; Op.PUSH (U.of_int 4); Op.JUMPI; Op.STOP; Op.JUMPDEST;
            Op.STOP ]
        in
        let _, trace = run prog in
        let has =
          List.exists
            (function Evm.Trace.Block_state_use { sink = "jumpi"; _ } -> true | _ -> false)
            trace.events
        in
        Alcotest.(check bool) "event" true has);
    unit "ORIGIN in compare raises origin event" (fun () ->
        let prog = return_value [ Op.ORIGIN; Op.PUSH (U.of_int 1); Op.EQ ] in
        let _, trace = run prog in
        let has =
          List.exists
            (function Evm.Trace.Origin_use _ -> true | _ -> false)
            trace.events
        in
        Alcotest.(check bool) "event" true has);
    unit "BALANCE + EQ raises strict balance compare" (fun () ->
        let prog =
          return_value [ Op.ADDRESS; Op.BALANCE; Op.PUSH (U.of_int 5); Op.EQ ]
        in
        let _, trace = run prog in
        let has =
          List.exists
            (function Evm.Trace.Balance_compare { strict_eq = true; _ } -> true | _ -> false)
            trace.events
        in
        Alcotest.(check bool) "event" true has);
    unit "ADD overflow emits event" (fun () ->
        let prog = return_value [ Op.PUSH U.max_value; Op.PUSH (U.of_int 2); Op.ADD ] in
        let _, trace = run prog in
        let has =
          List.exists
            (function Evm.Trace.Arith_overflow { op = "ADD"; _ } -> true | _ -> false)
            trace.events
        in
        Alcotest.(check bool) "event" true has);
    unit "no overflow event for in-range ADD" (fun () ->
        let prog = return_value [ Op.PUSH (U.of_int 1); Op.PUSH (U.of_int 2); Op.ADD ] in
        let _, trace = run prog in
        let has =
          List.exists
            (function Evm.Trace.Arith_overflow _ -> true | _ -> false)
            trace.events
        in
        Alcotest.(check bool) "no event" false has);
    unit "memory preserves taint (param-style roundtrip)" (fun () ->
        (* CALLDATALOAD -> MSTORE -> MLOAD -> EQ should still count as a
           calldata-tainted comparison feeding JUMPI *)
        let prog =
          [ Op.PUSH U.zero; Op.CALLDATALOAD;
            Op.PUSH (U.of_int 64); Op.MSTORE;
            Op.PUSH (U.of_int 64); Op.MLOAD;
            Op.PUSH (U.of_int 5); Op.EQ;
            Op.PUSH (U.of_int 10); Op.JUMPI; Op.STOP; Op.JUMPDEST; Op.STOP ]
        in
        let _, trace = run ~data:(String.make 32 '\001') prog in
        match branch_events trace with
        | [ Evm.Trace.Branch { cond_taint; _ } ] ->
          Alcotest.(check bool) "calldata taint survives memory" true
            (Evm.Trace.Taint.has cond_taint Evm.Trace.Taint.calldata)
        | _ -> Alcotest.fail "expected one branch");
  ]

let calls =
  [
    unit "CALL executes callee and returns status 1" (fun () ->
        let callee = [| Op.STOP |] in
        let state = Evm.State.set_code Evm.State.empty addr_b callee in
        let prog =
          return_value
            [ Op.PUSH U.zero; Op.PUSH U.zero; Op.PUSH U.zero; Op.PUSH U.zero;
              Op.PUSH U.zero; Op.PUSH addr_b; Op.PUSH (U.of_int 50_000); Op.CALL ]
        in
        let _, trace = run ~state prog in
        Alcotest.check u256 "status" U.one (returned_word trace));
    unit "CALL to reverting callee returns 0" (fun () ->
        let callee = [| Op.PUSH U.zero; Op.PUSH U.zero; Op.REVERT |] in
        let state = Evm.State.set_code Evm.State.empty addr_b callee in
        let prog =
          return_value
            [ Op.PUSH U.zero; Op.PUSH U.zero; Op.PUSH U.zero; Op.PUSH U.zero;
              Op.PUSH U.zero; Op.PUSH addr_b; Op.PUSH (U.of_int 50_000); Op.CALL ]
        in
        let _, trace = run ~state prog in
        Alcotest.check u256 "status" U.zero (returned_word trace));
    unit "CALL with value moves balance" (fun () ->
        let prog =
          return_value
            [ Op.PUSH U.zero; Op.PUSH U.zero; Op.PUSH U.zero; Op.PUSH U.zero;
              Op.PUSH (U.of_int 77); Op.PUSH addr_b; Op.PUSH (U.of_int 50_000);
              Op.CALL ]
        in
        (* fund the contract first via tx value *)
        let st, trace = run ~value:(U.of_int 100) prog in
        Alcotest.check u256 "status" U.one (returned_word trace);
        Alcotest.check u256 "contract keeps 23" (U.of_int 23)
          (Evm.State.balance st addr_a));
    unit "DELEGATECALL writes caller's storage" (fun () ->
        (* callee stores 42 at slot 7; via delegatecall the write lands in
           the caller's storage *)
        let callee = [| Op.PUSH (U.of_int 42); Op.PUSH (U.of_int 7); Op.SSTORE; Op.STOP |] in
        let state = Evm.State.set_code Evm.State.empty addr_b callee in
        let prog =
          [ Op.PUSH U.zero; Op.PUSH U.zero; Op.PUSH U.zero; Op.PUSH U.zero;
            Op.PUSH addr_b; Op.PUSH (U.of_int 50_000); Op.DELEGATECALL; Op.POP;
            Op.STOP ]
        in
        let st, _ = run ~state prog in
        Alcotest.check u256 "caller storage" (U.of_int 42)
          (Evm.State.storage_get st addr_a (U.of_int 7));
        Alcotest.check u256 "callee storage untouched" U.zero
          (Evm.State.storage_get st addr_b (U.of_int 7)));
    unit "call depth bounded" (fun () ->
        (* contract calls itself recursively; must terminate *)
        let prog =
          [ Op.JUMPDEST;
            Op.PUSH U.zero; Op.PUSH U.zero; Op.PUSH U.zero; Op.PUSH U.zero;
            Op.PUSH U.zero; Op.PUSH addr_a; Op.PUSH (U.of_int 500_000); Op.CALL;
            Op.POP; Op.STOP ]
        in
        let _, trace = run ~gas:2_000_000 prog in
        (* success or OOG are both acceptable terminations *)
        Alcotest.(check bool) "terminates" true
          (trace.status = Evm.Trace.Success || trace.status = Evm.Trace.Out_of_gas));
    unit "attacker account triggers reentry event" (fun () ->
        let prog =
          [ Op.PUSH U.zero; Op.PUSH U.zero; Op.PUSH U.zero; Op.PUSH U.zero;
            Op.PUSH (U.of_int 10); Op.PUSH Evm.Interp.attacker_address;
            Op.PUSH (U.of_int 100_000); Op.CALL; Op.POP; Op.STOP ]
        in
        let _, trace = run ~value:(U.of_int 100) prog in
        let has =
          List.exists
            (function Evm.Trace.Reentrant_call _ -> true | _ -> false)
            trace.events
        in
        Alcotest.(check bool) "reentry" true has);
  ]

let suite =
  [
    ("evm: arithmetic", arithmetic);
    ("evm: control flow", control_flow);
    ("evm: storage & state", storage_and_state);
    ("evm: instrumentation events", events);
    ("evm: calls", calls);
  ]

let encoding_tests =
  let unit = unit in
  [
    unit "encode/decode roundtrip on compiled contracts" (fun () ->
        List.iter
          (fun (_, src) ->
            let c = Minisol.Contract.compile src in
            let rt = Evm.Encoding.decode (Evm.Encoding.encode c.bytecode) in
            if rt <> c.bytecode then Alcotest.fail "roundtrip mismatch")
          Corpus.Examples.all);
    unit "byte size matches Bytecode.byte_size" (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.crowdsale in
        Alcotest.(check int) "sizes agree"
          (Evm.Bytecode.byte_size c.bytecode)
          (String.length (Evm.Encoding.encode c.bytecode)));
    unit "PUSH widths are minimal" (fun () ->
        Alcotest.(check int) "PUSH1" 0x60 (Evm.Encoding.opcode_byte (Op.PUSH U.one));
        Alcotest.(check int) "PUSH32" 0x7f (Evm.Encoding.opcode_byte (Op.PUSH U.max_value)));
    unit "decode rejects unknown opcodes" (fun () ->
        match Evm.Encoding.decode "\x0c" with
        | exception Evm.Encoding.Decode_error (_, 0) -> ()
        | _ -> Alcotest.fail "expected decode error");
    unit "decode rejects truncated push" (fun () ->
        match Evm.Encoding.decode "\x61\x01" with
        | exception Evm.Encoding.Decode_error (_, 0) -> ()
        | _ -> Alcotest.fail "expected decode error");
    unit "canonical bytes: selector dispatch prologue" (fun () ->
        let c = Minisol.Contract.compile "contract E { uint256 x; }" in
        let hex = Evm.Encoding.encode_hex c.bytecode in
        (* starts with PUSH1 0 CALLDATALOAD PUSH1 224 SHR *)
        Alcotest.(check string) "prologue" "60003560e01c"
          (String.sub hex 0 12));
  ]

let suite = suite @ [ ("evm: byte encoding", encoding_tests) ]

let log_tests =
  [
    unit "LOG captures topics in the trace" (fun () ->
        let prog =
          [ Op.PUSH (U.of_int 7); Op.PUSH (U.of_int 9); Op.PUSH U.zero;
            Op.PUSH U.zero; Op.LOG 2; Op.STOP ]
        in
        let _, trace = run prog in
        match
          List.find_opt (function Evm.Trace.Log _ -> true | _ -> false)
            trace.events
        with
        | Some (Evm.Trace.Log { topics; _ }) ->
          Alcotest.(check (list string)) "topics" [ "9"; "7" ]
            (List.map U.to_decimal_string topics)
        | _ -> Alcotest.fail "no log event");
    unit "Minisol emit compiles to LOG" (fun () ->
        let c =
          Minisol.Contract.compile
            {|contract L { event Ping(uint256 a);
               function f() public { emit Ping(42); } }|}
        in
        let addr = U.of_int 0xC0 in
        let st = Minisol.Contract.deploy Evm.State.empty addr c in
        let f = List.find (fun (f : Abi.func) -> f.Abi.name = "f") c.abi in
        let _, trace =
          Evm.Interp.execute ~block:Evm.Interp.default_block ~state:st
            { caller = addr_b; origin = addr_b; callee = addr; value = U.zero;
              data = Abi.encode_call f []; gas = 1_000_000 }
        in
        Alcotest.(check bool) "log present" true
          (List.exists (function Evm.Trace.Log _ -> true | _ -> false)
             trace.events));
  ]

let suite = suite @ [ ("evm: logs", log_tests) ]

(* Robustness: the interpreter must classify ANY instruction sequence with
   a status — never raise, never hang (gas bounds loops). *)
let random_ops_gen =
  let open QCheck2.Gen in
  let op =
    oneof
      [
        oneofl
          [ Op.STOP; Op.ADD; Op.MUL; Op.SUB; Op.DIV; Op.SDIV; Op.MOD; Op.SMOD;
            Op.ADDMOD; Op.MULMOD; Op.EXP; Op.SIGNEXTEND; Op.LT; Op.GT; Op.SLT;
            Op.SGT; Op.EQ; Op.ISZERO; Op.AND; Op.OR; Op.XOR; Op.NOT; Op.BYTE;
            Op.SHL; Op.SHR; Op.SAR; Op.SHA3; Op.ADDRESS; Op.BALANCE; Op.ORIGIN;
            Op.CALLER; Op.CALLVALUE; Op.CALLDATALOAD; Op.CALLDATASIZE;
            Op.CALLDATACOPY; Op.CODESIZE; Op.BLOCKHASH; Op.COINBASE;
            Op.TIMESTAMP; Op.NUMBER; Op.DIFFICULTY; Op.GASLIMIT;
            Op.SELFBALANCE; Op.POP; Op.MLOAD; Op.MSTORE; Op.MSTORE8; Op.SLOAD;
            Op.SSTORE; Op.JUMP; Op.JUMPI; Op.PC; Op.MSIZE; Op.GAS; Op.JUMPDEST;
            Op.CALL; Op.DELEGATECALL; Op.STATICCALL; Op.RETURN; Op.REVERT;
            Op.INVALID; Op.SELFDESTRUCT ];
        map (fun n -> Op.PUSH (U.of_int (abs n mod 64))) small_int;
        map (fun n -> Op.DUP (1 + (abs n mod 16))) small_int;
        map (fun n -> Op.SWAP (1 + (abs n mod 16))) small_int;
        map (fun n -> Op.LOG (abs n mod 5)) small_int;
      ]
  in
  list_size (int_range 1 60) op

let robustness =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"random bytecode always terminates cleanly"
         ~count:300
         ~print:(fun ops ->
           String.concat "; " (List.map Op.to_string ops))
         random_ops_gen
         (fun ops ->
           let _, trace = run ~gas:50_000 ops in
           (* any status is fine; reaching here means no exception *)
           ignore trace.status;
           true));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"random bytecode with random calldata"
         ~count:150
         ~print:(fun (ops, _) -> String.concat "; " (List.map Op.to_string ops))
         QCheck2.Gen.(pair random_ops_gen (string_size (int_bound 96)))
         (fun (ops, data) ->
           let _, trace = run ~gas:50_000 ~data ops in
           ignore trace.status;
           true));
  ]

let suite = suite @ [ ("evm: robustness", robustness) ]

let encoding_property =
  [
    unit "byte encoding round-trips on a generated population" (fun () ->
        List.iter
          (fun (s : Corpus.Generator.spec) ->
            let c = Corpus.Generator.compile s in
            let rt = Evm.Encoding.decode (Evm.Encoding.encode c.bytecode) in
            if rt <> c.bytecode then Alcotest.failf "%s: roundtrip mismatch" s.name)
          (Corpus.Generator.population ~seed:55L ~n:12 Corpus.Generator.Small
             ~bug_rate:0.5));
  ]

let suite = suite @ [ ("evm: encoding property", encoding_property) ]

let config_tests =
  [
    unit "attacker disabled means no reentry events" (fun () ->
        let prog =
          [ Op.PUSH U.zero; Op.PUSH U.zero; Op.PUSH U.zero; Op.PUSH U.zero;
            Op.PUSH (U.of_int 10); Op.PUSH Evm.Interp.attacker_address;
            Op.PUSH (U.of_int 100_000); Op.CALL; Op.POP; Op.STOP ]
        in
        let config = { Evm.Interp.default_config with attacker = None } in
        let _, trace = run ~config ~value:(U.of_int 100) prog in
        Alcotest.(check bool) "no reentry" false
          (List.exists
             (function Evm.Trace.Reentrant_call _ -> true | _ -> false)
             trace.events));
    unit "reentry budget limits nesting" (fun () ->
        let prog =
          [ Op.PUSH U.zero; Op.PUSH U.zero; Op.PUSH U.zero; Op.PUSH U.zero;
            Op.PUSH (U.of_int 10); Op.PUSH Evm.Interp.attacker_address;
            Op.PUSH (U.of_int 200_000); Op.CALL; Op.POP; Op.STOP ]
        in
        let config = { Evm.Interp.default_config with max_reentries = 1 } in
        let _, trace = run ~config ~value:(U.of_int 100) prog in
        let reentries =
          List.length
            (List.filter
               (function Evm.Trace.Reentrant_call _ -> true | _ -> false)
               trace.events)
        in
        Alcotest.(check int) "exactly one reentry" 1 reentries);
    unit "gas accounting reported" (fun () ->
        let _, trace = run [ Op.PUSH U.one; Op.POP; Op.STOP ] in
        Alcotest.(check bool) "positive gas" true (trace.gas_used > 0);
        Alcotest.(check bool) "bounded" true (trace.gas_used < 100));
    unit "out-of-gas consumes exactly the gas limit" (fun () ->
        (* the second PUSH leaves 2 of 5, the third would need 3 *)
        let _, trace = run ~gas:5 [ Op.PUSH U.one; Op.PUSH U.one; Op.PUSH U.one ] in
        Alcotest.(check string) "status" "out-of-gas"
          (Evm.Trace.status_to_string trace.status);
        Alcotest.(check int) "gas used" 5 trace.gas_used);
    unit "advance_block moves time forward" (fun () ->
        let b = Evm.Interp.default_block in
        let b' = Evm.Interp.advance_block b in
        Alcotest.(check bool) "number+1" true
          (U.equal b'.number (U.add b.number U.one));
        Alcotest.(check bool) "timestamp+13" true
          (U.equal b'.timestamp (U.add b.timestamp (U.of_int 13))));
  ]

let suite = suite @ [ ("evm: interpreter config", config_tests) ]
