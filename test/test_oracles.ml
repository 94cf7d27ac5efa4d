(* Bug oracles: each of the nine classes detected on its canonical
   pattern, and not raised on the safe twins. *)

module O = Oracles.Oracle
module U = Word.U256

let unit name f = Alcotest.test_case name `Quick f

(* Run a deterministic MuFuzz campaign and collect found classes. *)
let fuzz ?(budget = 3000) src =
  let c = Minisol.Contract.compile src in
  let config =
    { Mufuzz.Config.default with max_executions = budget; rng_seed = 99L }
  in
  let report = Mufuzz.Campaign.run ~config c in
  List.sort_uniq compare
    (List.map (fun (f : O.finding) -> f.cls) report.findings)

let expects ?budget name src cls =
  unit name (fun () ->
      Alcotest.(check bool)
        (Printf.sprintf "finds %s" (O.class_to_string cls))
        true
        (List.mem cls (fuzz ?budget src)))

let rejects name src cls =
  unit name (fun () ->
      Alcotest.(check bool)
        (Printf.sprintf "does not flag %s" (O.class_to_string cls))
        false
        (List.mem cls (fuzz src)))

let positive_tests =
  [
    expects "BD: timestamp-gated payout" Corpus.Examples.timed_vault O.BD;
    expects "UD: delegatecall forwarder" Corpus.Examples.proxy_wallet O.UD;
    expects "EF: piggy bank freezes ether" Corpus.Examples.piggy_bank O.EF;
    expects "IO: token transfer underflow" Corpus.Examples.token_overflow O.IO;
    expects "RE: simple DAO" Corpus.Examples.simple_dao O.RE;
    expects "US: unprotected selfdestruct" Corpus.Examples.suicidal O.US;
    expects "TO: tx.origin auth" Corpus.Examples.origin_auth O.TO;
    expects "BD: guess game timestamp randomness" Corpus.Examples.guess_number O.BD;
    expects ~budget:5000 "SE: lottery strict balance equality" Corpus.Examples.lottery
      O.SE;
  ]

let negative_tests =
  [
    rejects "owner-guarded selfdestruct is not US"
      {|contract Safe { address owner;
         constructor() public { owner = msg.sender; }
         function close() public { require(msg.sender == owner); selfdestruct(owner); } }|}
      O.US;
    rejects "guarded arithmetic is not IO"
      {|contract Safe { uint256 total;
         function add(uint256 v) public {
           require(total + v >= total);
           total += v; } }|}
      O.IO;
    rejects "checked send is not UE"
      {|contract Safe { mapping(address => uint256) owed;
         function deposit() public payable { owed[msg.sender] += msg.value; }
         function claim() public {
           uint256 a = owed[msg.sender];
           owed[msg.sender] = 0;
           bool ok = msg.sender.send(a);
           require(ok); } }|}
      O.UE;
    rejects "contract with a withdraw path is not EF"
      {|contract Safe {
         function deposit() public payable { }
         function withdraw() public { msg.sender.transfer(this.balance); } }|}
      O.EF;
    rejects "pull-payment pattern is not RE"
      {|contract Safe { mapping(address => uint256) credit;
         function donate(address to) public payable { credit[to] += msg.value; }
         function withdraw() public {
           uint256 a = credit[msg.sender];
           credit[msg.sender] = 0;
           if (a > 0) { msg.sender.transfer(a); } } }|}
      O.RE;
  ]

let structural_tests =
  [
    unit "dedup keeps one finding per class and site" (fun () ->
        let f cls pc = { O.cls; pc; tx_index = 0; detail = "" } in
        let deduped = O.dedup [ f O.BD 5; f O.BD 5; f O.BD 6; f O.IO 5 ] in
        Alcotest.(check int) "three" 3 (List.length deduped));
    unit "static info detects value-out instructions" (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.crowdsale in
        let s = O.static_info_of c in
        Alcotest.(check bool) "crowdsale can send" true s.has_value_out;
        let p = Minisol.Contract.compile Corpus.Examples.piggy_bank in
        let sp = O.static_info_of p in
        Alcotest.(check bool) "piggy bank cannot" false sp.has_value_out);
    unit "EF requires value actually received" (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.piggy_bank in
        let s = O.static_info_of c in
        Alcotest.(check int) "no EF without deposits" 0
          (List.length (O.inspect_campaign ~static:s ~received_value:false []));
        Alcotest.(check int) "EF with deposits" 1
          (List.length (O.inspect_campaign ~static:s ~received_value:true [])));
    unit "class list is stable" (fun () ->
        Alcotest.(check int) "nine classes" 9 (List.length O.all_classes));
  ]

let suite =
  [
    ("oracles: positives", positive_tests);
    ("oracles: negatives", negative_tests);
    ("oracles: structure", structural_tests);
  ]

(* A miniature of Table III as a regression test: across a stratified
   sample of the labelled suite MuFuzz must find most labels and raise
   nothing on the safe controls. *)
let sample_suite_test =
  Alcotest.test_case "suite sample: high recall, zero safe-control noise" `Slow
    (fun () ->
      let sample =
        [ "BDv02"; "BDv05"; "UDv00"; "UDv03"; "EFv04"; "IOv05"; "IOv10";
          "IOv12"; "REv01"; "USv04"; "TOv01"; "UEv02" ]
      in
      let found_labels = ref 0 and total_labels = ref 0 in
      List.iter
        (fun name ->
          let l =
            List.find (fun (l : Corpus.Vuln.labelled) -> l.name = name)
              Corpus.Vuln.suite
          in
          let found = fuzz ~budget:2500 l.source in
          List.iter
            (fun cls ->
              incr total_labels;
              if List.mem cls found then incr found_labels)
            (List.sort_uniq compare l.labels))
        sample;
      let recall = float_of_int !found_labels /. float_of_int !total_labels in
      if recall < 0.7 then
        Alcotest.failf "recall %.2f below 0.7 (%d/%d)" recall !found_labels
          !total_labels;
      (* safe controls stay silent *)
      List.iter
        (fun (l : Corpus.Vuln.labelled) ->
          if l.labels = [] then
            let found = fuzz ~budget:1000 l.source in
            if found <> [] then
              Alcotest.failf "%s flagged %s" l.name
                (String.concat ","
                   (List.map Oracles.Oracle.class_to_string found)))
        Corpus.Vuln.suite)

let suite = suite @ [ ("oracles: suite sample", [ sample_suite_test ]) ]

(* Detection of the newly diversified pattern families. *)
let vuln_of name =
  (List.find (fun (l : Corpus.Vuln.labelled) -> l.name = name) Corpus.Vuln.suite)
    .source

let flavor_detection =
  [
    expects ~budget:3000 "RE: withdraw-all flavor" (vuln_of "REv01") O.RE;
    expects ~budget:3000 "RE: cross-function flavor" (vuln_of "REv02") O.RE;
    expects ~budget:4000 "US: magic-number kill switch" (vuln_of "USv03") O.US;
    expects ~budget:3000 "UE: send in a loop" (vuln_of "UEv02") O.UE;
    expects ~budget:3000 "IO: loop-accumulated sum" (vuln_of "IOv05") O.IO;
    expects ~budget:3000 "IO: admin-priced purchase" (vuln_of "IOv06") O.IO;
    expects ~budget:3000 "BD: deadline bypass" (vuln_of "BDv02") O.BD;
    expects ~budget:3000 "BD: blockhash randomness" (vuln_of "BDv03") O.BD;
    expects ~budget:3000 "EF: internal-transfer illusion" (vuln_of "EFv01") O.EF;
  ]

let suite = suite @ [ ("oracles: flavor detection", flavor_detection) ]

(* Direct unit tests over hand-built traces (no EVM in the loop). *)
let mk_trace events =
  { Evm.Trace.status = Evm.Trace.Success; events; return_data = ""; gas_used = 0; steps = 0 }

let static_none =
  { O.has_value_out = true; payable_functions = [] }

let classes_of findings = List.sort_uniq compare (List.map (fun (f : O.finding) -> f.cls) findings)

let trace_unit_tests =
  [
    unit "UE fires only for failing unchecked calls in successful txs" (fun () ->
        let call ~success ~id =
          Evm.Trace.External_call
            { id; pc = 10; kind = Evm.Trace.Call; target = U.one;
              target_taint = 0; value = U.zero; gas = 50_000; success;
              caller_guard_before = false }
        in
        let f trace tx_success =
          classes_of (O.inspect_trace ~static:static_none ~tx_index:0 ~tx_success trace)
        in
        (* failing + unchecked + tx success -> UE *)
        Alcotest.(check bool) "fires" true
          (List.mem O.UE (f (mk_trace [ call ~success:false ~id:0 ]) true));
        (* successful call -> no UE *)
        Alcotest.(check bool) "ok call silent" false
          (List.mem O.UE (f (mk_trace [ call ~success:true ~id:0 ]) true));
        (* failing but checked -> no UE *)
        Alcotest.(check bool) "checked silent" false
          (List.mem O.UE
             (f
                (mk_trace
                   [ call ~success:false ~id:0;
                     Evm.Trace.Call_result_checked { call_id = 0 } ])
                true));
        (* failing + unchecked but the tx reverted -> no UE *)
        Alcotest.(check bool) "reverted tx silent" false
          (List.mem O.UE (f (mk_trace [ call ~success:false ~id:0 ]) false)));
    unit "IO needs influenceable taint and a successful tx" (fun () ->
        let ov taint = Evm.Trace.Arith_overflow { pc = 5; op = "ADD"; taint } in
        let f trace tx_success =
          classes_of (O.inspect_trace ~static:static_none ~tx_index:0 ~tx_success trace)
        in
        Alcotest.(check bool) "calldata taint fires" true
          (List.mem O.IO (f (mk_trace [ ov Evm.Trace.Taint.calldata ]) true));
        Alcotest.(check bool) "untainted silent" false
          (List.mem O.IO (f (mk_trace [ ov Evm.Trace.Taint.none ]) true));
        Alcotest.(check bool) "block taint alone silent" false
          (List.mem O.IO (f (mk_trace [ ov Evm.Trace.Taint.block ]) true));
        Alcotest.(check bool) "reverted tx silent" false
          (List.mem O.IO (f (mk_trace [ ov Evm.Trace.Taint.calldata ]) false)));
    unit "RE needs a state write after a risky call" (fun () ->
        let call =
          Evm.Trace.External_call
            { id = 0; pc = 10; kind = Evm.Trace.Call; target = U.one;
              target_taint = Evm.Trace.Taint.caller; value = U.one; gas = 50_000;
              success = true; caller_guard_before = false }
        in
        let write after =
          Evm.Trace.Storage_write
            { slot = U.one; value = U.one; pc = 20; after_external_call = after }
        in
        let f events =
          classes_of (O.inspect_trace ~static:static_none ~tx_index:0 ~tx_success:true
                        (mk_trace events))
        in
        Alcotest.(check bool) "call + post-write fires" true
          (List.mem O.RE (f [ call; write true ]));
        Alcotest.(check bool) "call alone silent" false (List.mem O.RE (f [ call ]));
        Alcotest.(check bool) "pre-write alone silent" false
          (List.mem O.RE (f [ write false; call ])));
    unit "RE through a fixed target needs a reentry anywhere in the trace" (fun () ->
        (* a constant call target is not influenceable, so only an observed
           reentry makes the call risky; the reentry event may come after
           the call and the write it explains *)
        let call =
          Evm.Trace.External_call
            { id = 0; pc = 10; kind = Evm.Trace.Call; target = U.one;
              target_taint = Evm.Trace.Taint.none; value = U.one; gas = 50_000;
              success = true; caller_guard_before = false }
        in
        let write =
          Evm.Trace.Storage_write
            { slot = U.one; value = U.one; pc = 20; after_external_call = true }
        in
        let reentry = Evm.Trace.Reentrant_call { pc = 0 } in
        let f events =
          classes_of (O.inspect_trace ~static:static_none ~tx_index:0 ~tx_success:true
                        (mk_trace events))
        in
        Alcotest.(check bool) "no reentry silent" false (List.mem O.RE (f [ call; write ]));
        Alcotest.(check bool) "reentry before fires" true
          (List.mem O.RE (f [ reentry; call; write ]));
        Alcotest.(check bool) "reentry after fires" true
          (List.mem O.RE (f [ call; write; reentry ])));
    unit "US respects the caller guard" (fun () ->
        let sd guarded =
          Evm.Trace.Selfdestruct
            { pc = 3; caller_guard_before = guarded; beneficiary_taint = 0 }
        in
        let f events =
          classes_of (O.inspect_trace ~static:static_none ~tx_index:0 ~tx_success:true
                        (mk_trace events))
        in
        Alcotest.(check bool) "unguarded fires" true (List.mem O.US (f [ sd false ]));
        Alcotest.(check bool) "guarded silent" false (List.mem O.US (f [ sd true ])));
    unit "SE fires only on strict equality" (fun () ->
        let bc strict = Evm.Trace.Balance_compare { pc = 4; strict_eq = strict } in
        let f events =
          classes_of (O.inspect_trace ~static:static_none ~tx_index:0 ~tx_success:true
                        (mk_trace events))
        in
        Alcotest.(check bool) "eq fires" true (List.mem O.SE (f [ bc true ]));
        Alcotest.(check bool) "lt silent" false (List.mem O.SE (f [ bc false ])));
    unit "UD needs a calldata-tainted target" (fun () ->
        let dc taint =
          Evm.Trace.External_call
            { id = 0; pc = 8; kind = Evm.Trace.Delegatecall; target = U.one;
              target_taint = taint; value = U.zero; gas = 50_000; success = true;
              caller_guard_before = false }
        in
        let f events =
          classes_of (O.inspect_trace ~static:static_none ~tx_index:0 ~tx_success:true
                        (mk_trace events))
        in
        Alcotest.(check bool) "calldata fires" true
          (List.mem O.UD (f [ dc Evm.Trace.Taint.calldata ]));
        Alcotest.(check bool) "storage target silent" false
          (List.mem O.UD (f [ dc Evm.Trace.Taint.storage ])));
  ]

let suite = suite @ [ ("oracles: trace units", trace_unit_tests) ]
