(* Golden-trace snapshots: the branch-event stream of a fixed seed on
   each example contract, hashed and pinned.

   The fingerprint covers every JUMPI the interpreter reports — pc,
   taken direction and the sFuzz branch distance — across the whole
   transaction sequence. Any change to the compiler, the interpreter's
   branch instrumentation or the seed byte-stream layout shows up here
   as a hash mismatch, and the same seed executed on worker domains
   must fingerprint identically to the sequential run (the --jobs 1 vs
   --jobs 2 determinism contract). *)

let gas = Mufuzz.Config.default.gas_per_tx
let n_senders = Mufuzz.Config.default.n_senders
let attacker = Mufuzz.Config.default.attacker_enabled

(* One fixed seed per contract: the derived sequence, concretised with
   a pinned RNG stream. *)
let fixed_seed (c : Minisol.Contract.t) =
  let rng = Util.Rng.create 7L in
  Mufuzz.Seed.of_sequence rng ~n_senders c.abi
    ("constructor" :: Mufuzz.Campaign.derive_sequence c)

let branch_fingerprint (run : Mufuzz.Executor.run) =
  let buf = Buffer.create 512 in
  List.iter
    (fun (r : Mufuzz.Executor.tx_result) ->
      List.iter
        (fun (e : Evm.Trace.event) ->
          match e with
          | Evm.Trace.Branch { pc; taken; dist_to_flip; _ } ->
            Buffer.add_string buf
              (Printf.sprintf "%d:%d:%b:%h;" r.tx_index pc taken dist_to_flip)
          | _ -> ())
        (Evm.Trace.expand r.trace.events))
    run.tx_results;
  Crypto.Keccak.hash_hex (Buffer.contents buf)

let fingerprint_of source =
  let c = Minisol.Contract.compile source in
  let seed = fixed_seed c in
  branch_fingerprint
    (Mufuzz.Executor.run_seed ~contract:c ~gas ~n_senders ~attacker seed)

(* Pinned snapshots (regenerate by reading the test failure diff after
   an intentional instrumentation change). *)
let golden =
  [
    ( "crowdsale",
      Corpus.Examples.crowdsale,
      "eee1223ba922f2f7326c23a393c5153f38398272e9f8047c2f611ee45569f97a" );
    ( "guess_number",
      Corpus.Examples.guess_number,
      "db87e4772fedf336a47e661d44d160d5d1d72b0dfe27d6a5705e08c7807b3b99" );
    ( "simple_dao",
      Corpus.Examples.simple_dao,
      "b9e99fe56ffc76f14f43132517d8d9c97c2216c14b76f6ac73a68d3a918ef773" );
    ( "token_overflow",
      Corpus.Examples.token_overflow,
      "11b8896dfc3690c5a194a7cf421d180bfeeae085845b10a4355752f1212d751f" );
  ]

let snapshot_tests =
  List.map
    (fun (name, source, expected) ->
      Alcotest.test_case (name ^ " branch stream matches snapshot") `Quick
        (fun () ->
          Alcotest.(check string) "golden hash" expected (fingerprint_of source)))
    golden

let determinism_tests =
  [
    Alcotest.test_case "fingerprint is stable across repeated runs" `Quick
      (fun () ->
        let h1 = fingerprint_of Corpus.Examples.crowdsale in
        let h2 = fingerprint_of Corpus.Examples.crowdsale in
        Alcotest.(check string) "same hash" h1 h2);
    Alcotest.test_case "state cache does not change the branch stream" `Quick
      (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.simple_dao in
        let seed = fixed_seed c in
        let plain =
          Mufuzz.Executor.run_seed ~contract:c ~gas ~n_senders ~attacker seed
        in
        let cache = Mufuzz.State_cache.create () in
        (* run twice through the same cache: cold, then prefix-hit *)
        let _ =
          Mufuzz.Executor.run_seed ~contract:c ~gas ~n_senders ~attacker ~cache
            seed
        in
        let cached =
          Mufuzz.Executor.run_seed ~contract:c ~gas ~n_senders ~attacker ~cache
            seed
        in
        Alcotest.(check string) "same fingerprint"
          (branch_fingerprint plain)
          (branch_fingerprint cached));
    Alcotest.test_case "worker domains fingerprint like the coordinator"
      `Quick
      (fun () ->
        let contracts =
          List.map
            (fun (_, source, _) -> Minisol.Contract.compile source)
            golden
        in
        let sequential =
          List.map
            (fun c ->
              branch_fingerprint
                (Mufuzz.Executor.run_seed ~contract:c ~gas ~n_senders ~attacker
                   (fixed_seed c)))
            contracts
        in
        let parallel =
          Mufuzz.Pool.with_pool ~jobs:2 (fun pool ->
              Mufuzz.Pool.map pool
                (fun c ->
                  branch_fingerprint
                    (Mufuzz.Executor.run_seed ~contract:c ~gas ~n_senders
                       ~attacker (fixed_seed c)))
                contracts)
        in
        List.iter2
          (fun a b -> Alcotest.(check string) "jobs=1 = jobs=2" a b)
          sequential parallel);
    Alcotest.test_case "campaigns agree across --jobs 1 and --jobs 2" `Slow
      (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.crowdsale in
        let run jobs =
          Mufuzz.Campaign.run_parallel
            ~config:
              { Mufuzz.Config.default with max_executions = 400; jobs }
            c
        in
        let r1 = run 1 and r2 = run 2 in
        let classes (r : Mufuzz.Report.t) =
          List.sort_uniq compare
            (List.map (fun (f : Oracles.Oracle.finding) -> f.cls) r.findings)
        in
        Alcotest.(check bool) "same bug classes" true
          (classes r1 = classes r2));
  ]

(* Whole-campaign snapshots: the Keccak digest of the JSON report with
   the wall-clock fields and the per-domain [parallel] block removed.
   These pin every count a campaign reports (coverage, findings,
   occurrences, witnesses, growth curve, probe and proposal totals), so
   a refactor of the campaign loops that changes any RNG draw or
   feedback fold shows up here. At jobs=2 [steps] is left out as well:
   it only became complete there once the coordinator's own executions
   were counted. *)
let report_digest ?(drop = []) report =
  let drop =
    [ "wall_seconds"; "execs_per_sec"; "steps_per_sec"; "parallel" ] @ drop
  in
  match Mufuzz.Report.to_json report with
  | Telemetry.Json.Obj fields ->
    Crypto.Keccak.hash_hex
      (Telemetry.Json.to_string
         (Telemetry.Json.Obj
            (List.filter (fun (k, _) -> not (List.mem k drop)) fields)))
  | _ -> Alcotest.fail "report is not an object"

let crowdsale = lazy (Minisol.Contract.compile Corpus.Examples.crowdsale)
let strict_guard = lazy (Minisol.Contract.compile Corpus.Examples.strict_guard)

let at400 = { Mufuzz.Config.default with max_executions = 400 }

let predict_config =
  { Mufuzz.Config.default with
    max_executions = 1200;
    rng_seed = 7L;
    predict = true;
    predict_attempts = 10 }

(* (name, contract, config, pinned digest) *)
let campaign_goldens =
  [
    ( "crowdsale jobs=1",
      crowdsale,
      at400,
      "269f2ef7dd4c279224ed97eec7e418568efcf6c4aff6012e83dcabaf57df31ef" );
    ( "crowdsale jobs=2",
      crowdsale,
      { at400 with jobs = 2 },
      "470de3d755880c66f6eb1c8b30795f13aa747a58f9829dbebf0545f043f233a9" );
    ( "strict_guard predict jobs=1",
      strict_guard,
      predict_config,
      "926e96fc371df44043e0117184229c7534da12ac02fc55ec775c68d8ae86321c" );
    ( "strict_guard predict jobs=2",
      strict_guard,
      { predict_config with jobs = 2 },
      "aab917ca65f39194d197495c98920dd93e7b63d1bb0a2c8304568b66c05af71e" );
    ( "crowdsale blackbox jobs=1",
      crowdsale,
      { at400 with blackbox = true },
      "539549d34bc5919c72b623804b56df34257186c25663d76ce869884b7f3b427c" );
    ( "crowdsale no mask jobs=1",
      crowdsale,
      Mufuzz.Config.ablation_no_mask at400,
      "758cded4b0f35c74e9c98da334791d4a9266d0929e918ca07941c1ac34505b7f" );
    ( "crowdsale no energy jobs=1",
      crowdsale,
      Mufuzz.Config.ablation_no_energy at400,
      "9bd5549dc0bab7bd10addfbcc19e2d0c3e389d31a069500d17e25f0c5462511b" );
    ( "crowdsale random sequence jobs=1",
      crowdsale,
      Mufuzz.Config.ablation_no_sequence at400,
      "773b1a337a341da6431787dc7e917f330dbcac7e734280c0d6885811fcfe5c66" );
  ]

let campaign_tests =
  List.map
    (fun (name, contract, (config : Mufuzz.Config.t), expected) ->
      Alcotest.test_case (name ^ " report matches snapshot") `Quick (fun () ->
          let r = Mufuzz.Campaign.run_parallel ~config (Lazy.force contract) in
          let drop = if config.jobs > 1 then [ "steps" ] else [] in
          Alcotest.(check string) "report digest" expected
            (report_digest ~drop r)))
    campaign_goldens

(* The [New_branch_side] stream a listening campaign emits, pinned by
   count and digest. The campaign computes these events only when a
   sink is attached, so the report digests above never see them. *)
let new_side_digest (config : Mufuzz.Config.t) contract =
  let ring = Telemetry.Sink.ring ~capacity:100_000 in
  ignore
    (Mufuzz.Campaign.run_parallel ~config ~sinks:[ Telemetry.Sink.ring_sink ring ]
       contract);
  let sides =
    List.filter_map
      (fun (e : Telemetry.Event.t) ->
        match e with
        | New_branch_side _ -> Some (Telemetry.Json.to_string (Telemetry.Event.to_json e))
        | _ -> None)
      (Telemetry.Sink.ring_contents ring)
  in
  (List.length sides, Crypto.Keccak.hash_hex (String.concat "\n" sides))

(* (name, contract, config, pinned event count, pinned digest) *)
let new_side_goldens =
  [
    ( "crowdsale jobs=1",
      crowdsale,
      at400,
      21,
      "4d3dda037abc92a4bab3911e2a3a309d0097a323795ce01a6fbbb9f96582916e" );
    ( "crowdsale jobs=2",
      crowdsale,
      { at400 with jobs = 2 },
      22,
      "564293df5fa70a404e8599b85e1f0215954cf6650bbef9ad93854af5ff0fa8b3" );
    ( "strict_guard predict jobs=1",
      strict_guard,
      predict_config,
      14,
      "bafa6f441557286447441e4c884471b3c4972a999bc22b75757a4aacfae839c5" );
  ]

let telemetry_tests =
  List.map
    (fun (name, contract, config, count, digest) ->
      Alcotest.test_case (name ^ " new-branch-side events match snapshot") `Quick
        (fun () ->
          let n, d = new_side_digest config (Lazy.force contract) in
          Alcotest.(check (pair int string)) "count and digest" (count, digest) (n, d)))
    new_side_goldens

let suite =
  [
    ("golden.snapshots", snapshot_tests);
    ("golden.determinism", determinism_tests);
    ("golden.campaigns", campaign_tests);
    ("golden.telemetry", telemetry_tests);
  ]
