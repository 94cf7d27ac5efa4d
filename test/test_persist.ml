(* Campaign persistence: codec round-trip laws, corrupt-input
   rejection, the rotated checkpoint store, and the headline
   guarantee — a campaign resumed from a mid-run checkpoint finishes
   with the same report the uninterrupted run produces. *)

module J = Telemetry.Json

let unit name f = Alcotest.test_case name `Quick f

let qprop name ?(count = 200) ~print gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ~print gen f)

let fn_u name =
  { Abi.name; inputs = [ Abi.Uint256 ]; payable = true; is_constructor = false }

let contract = Minisol.Contract.compile Corpus.Examples.crowdsale

let abi = contract.Minisol.Contract.abi

let base_config =
  { Mufuzz.Config.default with max_executions = 2500; rng_seed = 99L }

(* one sequential campaign with a mid-run snapshot captured at the
   first safe point past [at] executions; memoised — several tests
   compare against the same reference run *)
let reference =
  lazy
    (let snap = ref None in
     let hook ~final ~bus:_ ~execs thunk =
       if (not final) && execs >= 800 && Option.is_none !snap then
         snap := Some (thunk ())
     in
     let report =
       Mufuzz.Campaign.run ~config:base_config ~on_safe_point:hook contract
     in
     match !snap with
     | Some s -> (report, s)
     | None -> Alcotest.fail "reference campaign never hit a safe point")

(* report comparison modulo the wall-clock fields the spec excludes,
   and optionally further fields *)
let normalized ?(drop = []) report =
  let drop = [ "wall_seconds"; "execs_per_sec"; "steps_per_sec" ] @ drop in
  match Mufuzz.Report.to_json report with
  | J.Obj fields ->
    J.to_string (J.Obj (List.filter (fun (k, _) -> not (List.mem k drop)) fields))
  | j -> J.to_string j

(* scratch dirs route through Util.Fileio so an aborted test run
   cannot strand persist-tmp-* litter in the working tree — the
   at_exit hook sweeps everything the process created *)
let temp_dir () = Util.Fileio.temp_dir ~prefix:"persist-tmp" ()

let no_temp_leftovers dir =
  Array.for_all
    (fun name ->
      not
        (String.length name >= 4
        && String.sub name (String.length name - 4) 4 = ".tmp"))
    (Sys.readdir dir)

(* ---------------- atomic file writes ---------------- *)

let fileio_tests =
  [
    unit "write_atomic writes and overwrites" (fun () ->
        let dir = temp_dir () in
        let path = Filename.concat dir "f.txt" in
        Util.Fileio.write_atomic path "first";
        Alcotest.(check string) "first" "first" (Util.Fileio.read_file path);
        Util.Fileio.write_atomic path "second";
        Alcotest.(check string) "second" "second" (Util.Fileio.read_file path);
        Alcotest.(check bool) "no temp files" true (no_temp_leftovers dir));
    unit "save_corpus is atomic" (fun () ->
        let dir = temp_dir () in
        let path = Filename.concat dir "corpus.txt" in
        let rng = Util.Rng.create 1L in
        let seed = Mufuzz.Seed.of_sequence rng ~n_senders:2 [ fn_u "a" ] [ "a" ] in
        Mufuzz.Replay.save_corpus path [ seed ];
        let loaded, skipped = Mufuzz.Replay.load_corpus ~abi:[ fn_u "a" ] path in
        Alcotest.(check int) "one seed" 1 (List.length loaded);
        Alcotest.(check int) "none skipped" 0 (List.length skipped);
        Alcotest.(check bool) "no temp files" true (no_temp_leftovers dir));
  ]

(* ---------------- RNG save/restore ---------------- *)

let rng_tests =
  [
    qprop "restore continues the exact stream"
      ~print:(fun (s, k) -> Printf.sprintf "seed=%Ld skip=%d" s k)
      QCheck2.Gen.(pair (map Int64.of_int int) (int_range 0 50))
      (fun (seed, skip) ->
        let r = Util.Rng.create seed in
        for _ = 1 to skip do
          ignore (Util.Rng.int r 1000)
        done;
        let saved = Util.Rng.save r in
        let expect = List.init 16 (fun _ -> Util.Rng.int r 1_000_000) in
        let r' = Util.Rng.restore saved in
        let got = List.init 16 (fun _ -> Util.Rng.int r' 1_000_000) in
        expect = got);
    unit "state survives the decimal-string codec" (fun () ->
        let r = Util.Rng.create (-7L) in
        ignore (Util.Rng.int r 99);
        let s = Int64.to_string (Util.Rng.save r) in
        let r' = Util.Rng.restore (Int64.of_string s) in
        Alcotest.(check int) "next draw" (Util.Rng.int r 1000)
          (Util.Rng.int r' 1000));
  ]

(* ---------------- codec round trips ---------------- *)

let hex_digits = "0123456789abcdef"

let mask_json_gen =
  QCheck2.Gen.(
    pair (int_range 1 64)
      (string_size ~gen:(map (String.get hex_digits) (int_range 0 15))
         (int_range 1 80)))

let codec_tests =
  [
    qprop "mask json round trip"
      ~print:(fun (s, b) -> Printf.sprintf "stride=%d bits=%s" s b)
      mask_json_gen
      (fun (stride, bits) ->
        let j = J.Obj [ ("stride", J.Int stride); ("bits", J.String bits) ] in
        match Mufuzz.Mask.of_json j with
        | Error e -> QCheck2.Test.fail_reportf "of_json: %s" e
        | Ok m -> J.to_string (Mufuzz.Mask.to_json m) = J.to_string j);
    unit "mask of_json rejects bad input" (fun () ->
        let bad =
          [
            J.Obj [ ("stride", J.Int 0); ("bits", J.String "f") ];
            J.Obj [ ("stride", J.Int 4); ("bits", J.String "") ];
            J.Obj [ ("stride", J.Int 4); ("bits", J.String "xyz") ];
            J.Obj [ ("stride", J.Int 4) ];
          ]
        in
        List.iter
          (fun j ->
            match Mufuzz.Mask.of_json j with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "accepted %s" (J.to_string j))
          bad);
    unit "coverage json round trip on campaign output" (fun () ->
        let report, _ = Lazy.force reference in
        ignore report;
        let _, snap = Lazy.force reference in
        let j = Mufuzz.Coverage.to_json snap.Mufuzz.Campaign.sn_coverage in
        match Mufuzz.Coverage.of_json j with
        | Error e -> Alcotest.fail e
        | Ok cov ->
          Alcotest.(check string) "stable" (J.to_string j)
            (J.to_string (Mufuzz.Coverage.to_json cov)));
    unit "coverage of_json rejects pcs the side key cannot encode" (fun () ->
        let doc pc =
          let dist = [ ("pc", J.Int pc); ("taken", J.Bool false); ("d", J.Float 2.0) ] in
          J.Obj [ ("hits", J.List []); ("dists", J.List [ J.Obj dist ]) ]
        in
        List.iter
          (fun pc ->
            match Mufuzz.Coverage.of_json (doc pc) with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "accepted pc %d" pc)
          [ -1; min_int; (max_int asr 1) + 1 ];
        match Mufuzz.Coverage.of_json (doc (max_int asr 1)) with
        | Error e -> Alcotest.fail e
        | Ok cov ->
          Alcotest.(check (option (float 0.0))) "largest pc keeps its side" (Some 2.0)
            (Mufuzz.Coverage.best_distance cov (max_int asr 1, false)));
    unit "coverage of_json rejects n=0 and dists on covered sides" (fun () ->
        let hit n = J.Obj [ ("pc", J.Int 3); ("taken", J.Bool true); ("n", J.Int n) ] in
        let dist = J.Obj [ ("pc", J.Int 3); ("taken", J.Bool true); ("d", J.Float 1.0) ] in
        let doc hits dists =
          J.Obj [ ("hits", J.List hits); ("dists", J.List dists) ]
        in
        (match Mufuzz.Coverage.of_json (doc [ hit 0 ] []) with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted n=0");
        match Mufuzz.Coverage.of_json (doc [ hit 2 ] [ dist ]) with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted dist on covered side");
    unit "seed json round trip" (fun () ->
        let rng = Util.Rng.create 5L in
        let names =
          List.filter_map
            (fun (f : Abi.func) ->
              if f.is_constructor then None else Some f.Abi.name)
            abi
        in
        let seed =
          Mufuzz.Seed.of_sequence rng ~n_senders:3 abi ("constructor" :: names)
        in
        let j = Mufuzz.Seed.to_json seed in
        match Mufuzz.Seed.of_json ~abi j with
        | Error e -> Alcotest.fail e
        | Ok seed' ->
          Alcotest.(check string) "stable" (J.to_string j)
            (J.to_string (Mufuzz.Seed.to_json seed')));
    unit "seed of_json rejects unknown functions" (fun () ->
        let j =
          J.List
            [
              J.Obj
                [
                  ("fn", J.String "no_such_fn");
                  ("sender", J.Int 0);
                  ("stream", J.String "");
                ];
            ]
        in
        match Mufuzz.Seed.of_json ~abi j with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted unknown function");
    unit "energy weights round trip in canonical order" (fun () ->
        let tbl = Hashtbl.create 8 in
        Hashtbl.replace tbl (9, true) 0.25;
        Hashtbl.replace tbl (3, false) 1.5;
        Hashtbl.replace tbl (3, true) 0.125;
        let j = Mufuzz.Energy.weights_to_json tbl in
        match Mufuzz.Energy.weights_of_json j with
        | Error e -> Alcotest.fail e
        | Ok tbl' ->
          Alcotest.(check string) "stable" (J.to_string j)
            (J.to_string (Mufuzz.Energy.weights_to_json tbl'));
          Alcotest.(check int) "size" 3 (Hashtbl.length tbl'));
    unit "config json round trip (non-default fields)" (fun () ->
        let rng = Util.Rng.create 2L in
        let seed = Mufuzz.Seed.of_sequence rng ~n_senders:2 abi [ "constructor" ] in
        let config =
          { base_config with
            Mufuzz.Config.jobs = 4;
            round_batch = 8;
            sequence_mode = Mufuzz.Config.Seq_random;
            blackbox = true;
            trace_path = Some "t.jsonl";
            checkpoint_dir = Some "ck";
            checkpoint_every_execs = 123;
            checkpoint_every_seconds = 1.5;
            checkpoint_keep = 7;
            max_seconds = 3.25;
            initial_corpus = [ seed ];
            rng_seed = -123456789L }
        in
        let j = Mufuzz.Config.to_json config in
        match Mufuzz.Config.of_json ~abi j with
        | Error e -> Alcotest.fail e
        | Ok config' ->
          Alcotest.(check string) "stable" (J.to_string j)
            (J.to_string (Mufuzz.Config.to_json config')));
  ]

(* ---------------- checkpoint documents ---------------- *)

let make_checkpoint () =
  let _, snap = Lazy.force reference in
  {
    Persist.Checkpoint.tool = "MuFuzz";
    config = base_config;
    contract;
    snapshot = snap;
  }

(* rewrite one top-level field of a rendered checkpoint *)
let with_field name v ckpt =
  match Persist.Checkpoint.to_json ckpt with
  | J.Obj fields ->
    J.Obj (List.map (fun (k, old) -> (k, if k = name then v else old)) fields)
  | j -> j

(* rewrite the pc of the first coverage hit inside a rendered checkpoint *)
let with_first_hit_pc pc ckpt =
  let rewrite name f = function
    | J.Obj fields -> J.Obj (List.map (fun (k, v) -> (k, if k = name then f v else v)) fields)
    | j -> j
  in
  let first_pc = function
    | J.List (hit :: rest) -> J.List (rewrite "pc" (fun _ -> J.Int pc) hit :: rest)
    | j -> j
  in
  rewrite "snapshot" (rewrite "coverage" (rewrite "hits" first_pc))
    (Persist.Checkpoint.to_json ckpt)

let checkpoint_tests =
  [
    unit "rejects coverage pcs outside the side-key range" (fun () ->
        (* a pc past [max_int asr 1] would alias another side's key *)
        List.iter
          (fun pc ->
            match Persist.Checkpoint.of_json (with_first_hit_pc pc (make_checkpoint ())) with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "accepted coverage pc %d" pc)
          [ -1; -2; (max_int asr 1) + 1; max_int ];
        match Persist.Checkpoint.of_json (with_first_hit_pc 7 (make_checkpoint ())) with
        | Error e -> Alcotest.failf "an in-range pc was rejected: %s" e
        | Ok _ -> ());
    unit "to_string/of_string round trip, byte-stable" (fun () ->
        let c = make_checkpoint () in
        let s = Persist.Checkpoint.to_string c in
        match Persist.Checkpoint.of_string s with
        | Error e -> Alcotest.fail e
        | Ok c' ->
          Alcotest.(check string) "same rendering" s
            (Persist.Checkpoint.to_string c');
          Alcotest.(check string) "tool" "MuFuzz" c'.tool;
          Alcotest.(check int) "execs" c.snapshot.sn_execs c'.snapshot.sn_execs);
    unit "rejects garbage and truncation" (fun () ->
        let s = Persist.Checkpoint.to_string (make_checkpoint ()) in
        List.iter
          (fun bad ->
            match Persist.Checkpoint.of_string bad with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail "accepted corrupt input")
          [ "{nope"; ""; String.sub s 0 (String.length s / 2) ]);
    unit "rejects wrong format tag" (fun () ->
        let j = with_field "format" (J.String "mufuzz-repro") (make_checkpoint ()) in
        match Persist.Checkpoint.of_json j with
        | Error e ->
          Alcotest.(check bool) "mentions format" true
            (String.length e > 0)
        | Ok _ -> Alcotest.fail "accepted wrong format");
    unit "rejects future versions" (fun () ->
        List.iter
          (fun v ->
            let j = with_field "version" (J.Int v) (make_checkpoint ()) in
            match Persist.Checkpoint.of_json j with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "accepted version %d" v)
          [ 999; 1; 2 ]);
    unit "rejects source tampering (hash mismatch)" (fun () ->
        let j =
          with_field "source"
            (J.String (Corpus.Examples.crowdsale ^ " "))
            (make_checkpoint ())
        in
        match Persist.Checkpoint.of_json j with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted tampered source");
    unit "rejects out-of-range entry indices" (fun () ->
        let c = make_checkpoint () in
        match Persist.Checkpoint.to_json c with
        | J.Obj fields ->
          let fields =
            List.map
              (fun (k, v) ->
                if k <> "snapshot" then (k, v)
                else
                  match v with
                  | J.Obj sf ->
                    ( k,
                      J.Obj
                        (List.map
                           (fun (sk, sv) ->
                             if sk = "queue" then (sk, J.List [ J.Int 999999 ])
                             else (sk, sv))
                           sf) )
                  | other -> (k, other))
              fields
          in
          (match Persist.Checkpoint.of_json (J.Obj fields) with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "accepted dangling queue index")
        | _ -> Alcotest.fail "checkpoint is not an object");
  ]

(* ---------------- the rotated store ---------------- *)

let store_tests =
  [
    unit "file naming is sortable and recognisable" (fun () ->
        Alcotest.(check string) "padded" "checkpoint-000000000042.json"
          (Persist.Store.file_name 42);
        Alcotest.(check bool) "accepts own names" true
          (Persist.Store.is_checkpoint_file (Persist.Store.file_name 7));
        List.iter
          (fun n ->
            Alcotest.(check bool) n false (Persist.Store.is_checkpoint_file n))
          [ "report.json"; "checkpoint-.json"; "checkpoint-12x.json"; "x" ]);
    unit "save rotates down to keep, load_latest picks newest" (fun () ->
        let dir = temp_dir () in
        let store = Persist.Store.create ~dir ~keep:2 in
        let c = make_checkpoint () in
        let save execs =
          ignore
            (Persist.Store.save store
               { c with snapshot = { c.snapshot with sn_execs = execs } })
        in
        save 100;
        save 200;
        save 300;
        Alcotest.(check int) "kept 2" 2 (List.length (Persist.Store.list store));
        Alcotest.(check bool) "no temp files" true (no_temp_leftovers dir);
        match Persist.Store.load_latest dir with
        | Error e -> Alcotest.fail e
        | Ok (path, loaded) ->
          Alcotest.(check int) "newest" 300 loaded.snapshot.sn_execs;
          Alcotest.(check string) "path name" (Persist.Store.file_name 300)
            (Filename.basename path));
    unit "load_latest falls back past a corrupt newest file" (fun () ->
        let dir = temp_dir () in
        let store = Persist.Store.create ~dir ~keep:3 in
        let c = make_checkpoint () in
        ignore (Persist.Store.save store c);
        Util.Fileio.write_atomic
          (Filename.concat dir (Persist.Store.file_name (c.snapshot.sn_execs + 1)))
          "{torn";
        (match Persist.Store.load_latest dir with
        | Error e -> Alcotest.fail e
        | Ok (_, loaded) ->
          Alcotest.(check int) "older good one" c.snapshot.sn_execs
            loaded.snapshot.sn_execs);
        match Persist.Store.load_latest (temp_dir ()) with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "empty dir should not load");
  ]

(* ---------------- kill-and-resume determinism ---------------- *)

let resume_tests =
  [
    unit "sequential resume reproduces the uninterrupted report" (fun () ->
        let report_a, snap = Lazy.force reference in
        let report_b =
          Mufuzz.Campaign.run ~config:base_config ~resume:("test", snap) contract
        in
        Alcotest.(check string) "reports equal modulo wall clock"
          (normalized report_a) (normalized report_b);
        Alcotest.(check bool) "stopped on budget" true
          (report_b.stop_reason = Mufuzz.Report.Budget_exhausted));
    unit "resume through the disk codec is equally deterministic" (fun () ->
        let report_a, _ = Lazy.force reference in
        let dir = temp_dir () in
        let store = Persist.Store.create ~dir ~keep:1 in
        ignore (Persist.Store.save store (make_checkpoint ()));
        match Persist.Store.load_latest dir with
        | Error e -> Alcotest.fail e
        | Ok (path, ckpt) ->
          let report_b =
            Mufuzz.Campaign.run ~config:ckpt.config ~resume:(path, ckpt.snapshot)
              ckpt.contract
          in
          Alcotest.(check string) "reports equal modulo wall clock"
            (normalized report_a) (normalized report_b));
    unit "parallel resume reproduces the uninterrupted report" (fun () ->
        let config =
          { base_config with Mufuzz.Config.jobs = 2; max_executions = 3000 }
        in
        let snap = ref None in
        let hook ~final ~bus:_ ~execs thunk =
          if (not final) && execs >= 600 && Option.is_none !snap then
            snap := Some (thunk ())
        in
        let report_a =
          Mufuzz.Campaign.run_parallel ~config ~on_safe_point:hook contract
        in
        let snap =
          match !snap with
          | Some s -> s
          | None -> Alcotest.fail "no mid-run safe point at jobs 2"
        in
        let report_b =
          Mufuzz.Campaign.run_parallel ~config ~resume:("test", snap) contract
        in
        (* [parallel] holds per-domain timings and scheduling counts *)
        Alcotest.(check string) "reports equal modulo wall clock"
          (normalized ~drop:[ "parallel" ] report_a)
          (normalized ~drop:[ "parallel" ] report_b));
    unit "checkpoint driver writes on cadence, campaign emits events" (fun () ->
        let dir = temp_dir () in
        let config =
          { base_config with
            Mufuzz.Config.max_executions = 1200;
            checkpoint_dir = Some dir;
            checkpoint_every_execs = 300;
            checkpoint_keep = 2 }
        in
        let metrics = Telemetry.Metrics.create () in
        let driver =
          match
            Persist.Driver.of_config ~metrics ~tool:"MuFuzz" ~contract config
          with
          | Some d -> d
          | None -> Alcotest.fail "driver should be on"
        in
        let ring = Telemetry.Sink.ring ~capacity:4096 in
        let report =
          Mufuzz.Campaign.run ~config
            ~sinks:[ Telemetry.Sink.ring_sink ring ]
            ~metrics
            ~on_safe_point:(Persist.Driver.hook driver)
            contract
        in
        ignore report;
        let files = Sys.readdir dir in
        Alcotest.(check int) "rotation kept 2" 2 (Array.length files);
        let written =
          Telemetry.Metrics.value
            (Telemetry.Metrics.counter metrics "mufuzz_checkpoint_written_total")
        in
        Alcotest.(check bool) "wrote several" true (written >= 3);
        let events =
          List.filter
            (fun e -> Telemetry.Event.kind e = "checkpoint-written")
            (Telemetry.Sink.ring_contents ring)
        in
        Alcotest.(check int) "one event per write" written (List.length events);
        (* the final checkpoint resumes to the same end state *)
        match Persist.Store.load_latest dir with
        | Error e -> Alcotest.fail e
        | Ok (path, ckpt) ->
          let resumed =
            Mufuzz.Campaign.run ~config:ckpt.config
              ~resume:(path, ckpt.snapshot) ckpt.contract
          in
          Alcotest.(check string) "same report" (normalized report)
            (normalized resumed));
    unit "max_seconds stops the campaign with time-exhausted" (fun () ->
        let config =
          { base_config with
            Mufuzz.Config.max_executions = 100_000_000;
            max_seconds = 0.15 }
        in
        let report = Mufuzz.Campaign.run ~config contract in
        Alcotest.(check bool) "stopped on time" true
          (report.stop_reason = Mufuzz.Report.Time_exhausted);
        Alcotest.(check bool) "did not run the whole budget" true
          (report.executions < config.max_executions);
        Alcotest.(check string) "stop reason serialises" "time-exhausted"
          (Mufuzz.Report.stop_reason_to_string report.stop_reason));
  ]

let suite =
  [
    ("persist: fileio", fileio_tests);
    ("persist: rng", rng_tests);
    ("persist: codecs", codec_tests);
    ("persist: checkpoint", checkpoint_tests);
    ("persist: store", store_tests);
    ("persist: resume", resume_tests);
  ]
