(* The fuzzing service: protocol codec laws, scheduler fairness
   (FIFO, priority, round-robin), cancellation semantics, and the
   headline guarantee — a campaign run in preempted time slices
   produces the same final report as an uninterrupted run. *)

module J = Telemetry.Json
module Protocol = Serve.Protocol
module Engine = Serve.Engine

let unit name f = Alcotest.test_case name `Quick f

let qprop name ?(count = 200) ~print gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ~print gen f)

(* Engine state directories live under the system temp dir — never the
   working directory, which would litter the repo root when the test
   binary is run outside the dune sandbox — and every one is removed on
   process exit by Util.Fileio's at_exit sweep. *)
let temp_dir () = Util.Fileio.temp_dir ~prefix:"serve-tmp" ()

let engine ?(slice_execs = 150) () =
  Engine.create ~slice_execs ~state_dir:(temp_dir ())
    ~metrics:(Telemetry.Metrics.create ()) ()

let submission ?budget ?(seed = 7L) ?(priority = 0) source =
  {
    Protocol.sub_source = `Inline source;
    sub_budget = budget;
    sub_seed = Some seed;
    sub_tool = None;
    sub_jobs = None;
    sub_priority = priority;
  }

let submit_ok t s =
  match Engine.submit t s with
  | Ok fields -> (
    match List.assoc_opt "id" fields with
    | Some (J.String id) -> id
    | _ -> Alcotest.fail "submit response has no id")
  | Error (_, msg) -> Alcotest.failf "submit rejected: %s" msg

let field name = function
  | Ok fields -> List.assoc_opt name fields
  | Error (_, msg) -> Alcotest.failf "expected Ok, got error: %s" msg

let state_of t id =
  match field "state" (Engine.status t id) with
  | Some (J.String s) -> s
  | _ -> Alcotest.fail "status response has no state"

(* ---------------- protocol ---------------- *)

let expect_error code = function
  | Error (c, _) when c = code -> ()
  | Error (c, msg) ->
    Alcotest.failf "wrong error code %s: %s" (Protocol.code_string c) msg
  | Ok _ -> Alcotest.fail "expected an error"

let protocol_tests =
  [
    unit "parse: bare ops" (fun () ->
        List.iter
          (fun (line, expected) ->
            match Protocol.parse_request line with
            | Ok r when r = expected -> ()
            | Ok _ -> Alcotest.failf "wrong parse for %s" line
            | Error (_, msg) -> Alcotest.failf "%s: %s" line msg)
          [
            ({|{"op":"ping"}|}, Protocol.Ping);
            ({|{"op":"list"}|}, Protocol.List_campaigns);
            ({|{"op":"metrics"}|}, Protocol.Metrics);
            ({|{"op":"shutdown"}|}, Protocol.Shutdown);
            ({|{"op":"hello","protocol":1}|}, Protocol.Hello (Some 1));
            ({|{"op":"status","id":"c0001"}|}, Protocol.Status "c0001");
            ({|{"op":"cancel","id":"x"}|}, Protocol.Cancel "x");
          ]);
    unit "parse: submit round-trip" (fun () ->
        let line =
          {|{"op":"submit","source":"contract C {}","budget":123,"seed":"-9223372036854775808","tool":"sFuzz","jobs":2,"priority":5}|}
        in
        match Protocol.parse_request line with
        | Ok (Protocol.Submit s) ->
          Alcotest.(check bool) "source" true (s.sub_source = `Inline "contract C {}");
          Alcotest.(check (option int)) "budget" (Some 123) s.sub_budget;
          Alcotest.(check (option int64)) "seed" (Some Int64.min_int) s.sub_seed;
          Alcotest.(check (option string)) "tool" (Some "sFuzz") s.sub_tool;
          Alcotest.(check (option int)) "jobs" (Some 2) s.sub_jobs;
          Alcotest.(check int) "priority" 5 s.sub_priority
        | Ok _ -> Alcotest.fail "parsed as non-submit"
        | Error (_, msg) -> Alcotest.fail msg);
    unit "parse: malformed inputs are structured errors" (fun () ->
        expect_error Protocol.Bad_request (Protocol.parse_request "not json");
        expect_error Protocol.Bad_request (Protocol.parse_request {|{"x":1}|});
        expect_error Protocol.Bad_request
          (Protocol.parse_request {|{"op":"status"}|});
        expect_error Protocol.Bad_request
          (Protocol.parse_request {|{"op":"submit"}|});
        expect_error Protocol.Bad_request
          (Protocol.parse_request {|{"op":"submit","source":"c","file":"f"}|});
        expect_error Protocol.Bad_request
          (Protocol.parse_request {|{"op":"submit","source":"c","budget":"x"}|});
        expect_error Protocol.Unknown_op
          (Protocol.parse_request {|{"op":"frobnicate"}|}));
    unit "parse: an out-of-range budget is a bad request, not 0" (fun () ->
        expect_error Protocol.Bad_request
          (Protocol.parse_request
             {|{"op":"submit","source":"c","budget":99999999999999999999}|}));
    unit "responses: ok and error shapes" (fun () ->
        (match J.of_string (Protocol.ok [ ("x", J.Int 1) ]) with
        | Ok j ->
          Alcotest.(check (option bool)) "ok" (Some true)
            (Option.bind (J.member "ok" j) J.to_bool);
          Alcotest.(check (option int)) "x" (Some 1)
            (Option.bind (J.member "x" j) J.to_int)
        | Error e -> Alcotest.fail e);
        match J.of_string (Protocol.error ~code:Protocol.Unknown_id "nope") with
        | Ok j ->
          Alcotest.(check (option bool)) "ok" (Some false)
            (Option.bind (J.member "ok" j) J.to_bool);
          Alcotest.(check (option string)) "code" (Some "unknown-id")
            (Option.bind (J.member "code" j) J.string_value)
        | Error e -> Alcotest.fail e);
    qprop "submit numeric fields survive a JSON round-trip" ~count:100
      ~print:(fun (b, s, p) -> Printf.sprintf "(%d, %Ld, %d)" b s p)
      QCheck2.Gen.(triple (int_range 1 1_000_000) (map Int64.of_int int) int)
      (fun (budget, seed, priority) ->
        let line =
          J.to_string
            (J.Obj
               [
                 ("op", J.String "submit");
                 ("source", J.String "contract C {}");
                 ("budget", J.Int budget);
                 ("seed", J.String (Int64.to_string seed));
                 ("priority", J.Int priority);
               ])
        in
        match Protocol.parse_request line with
        | Ok (Protocol.Submit s) ->
          s.sub_budget = Some budget && s.sub_seed = Some seed
          && s.sub_priority = priority
        | _ -> false);
  ]

(* ---------------- scheduler ---------------- *)

let scheduler_tests =
  [
    unit "equal priority is FIFO" (fun () ->
        let t = engine () in
        let a = submit_ok t (submission ~budget:200 Corpus.Examples.crowdsale) in
        let b = submit_ok t (submission ~budget:200 Corpus.Examples.simple_dao) in
        let c = submit_ok t (submission ~budget:200 Corpus.Examples.piggy_bank) in
        (* queue positions reflect submission order *)
        List.iteri
          (fun i id ->
            Alcotest.(check (option int))
              (id ^ " position") (Some i)
              (match field "position" (Engine.status t id) with
              | Some (J.Int p) -> Some p
              | _ -> None))
          [ a; b; c ];
        (* a 200-exec budget fits in one 150+slack slice? No — two
           slices; still, first slice of each follows submission order *)
        let first_slices =
          List.init 3 (fun _ -> Option.get (Engine.step t)) |> List.sort_uniq compare
        in
        Alcotest.(check (list string)) "first slices in order" [ a; b; c ]
          (List.sort compare first_slices);
        Alcotest.(check string) "first slice is the first submission" a
          (List.nth first_slices 0));
    unit "higher priority runs first, FIFO within a priority" (fun () ->
        let t = engine () in
        let low = submit_ok t (submission ~budget:200 Corpus.Examples.crowdsale) in
        let hi1 =
          submit_ok t
            (submission ~budget:200 ~priority:5 Corpus.Examples.simple_dao)
        in
        let hi2 =
          submit_ok t
            (submission ~budget:200 ~priority:5 Corpus.Examples.piggy_bank)
        in
        Alcotest.(check (option string)) "first slice" (Some hi1) (Engine.step t);
        Alcotest.(check (option string)) "second slice" (Some hi2) (Engine.step t);
        ignore low);
    unit "equal priority round-robins across slices" (fun () ->
        let t = engine ~slice_execs:100 () in
        let a = submit_ok t (submission ~budget:400 Corpus.Examples.crowdsale) in
        let b = submit_ok t (submission ~budget:400 Corpus.Examples.simple_dao) in
        let slices = List.init 4 (fun _ -> Option.get (Engine.step t)) in
        Alcotest.(check (list string)) "alternating" [ a; b; a; b ] slices);
    unit "a late high-priority submission preempts at the next slice"
      (fun () ->
        let t = engine ~slice_execs:100 () in
        let low = submit_ok t (submission ~budget:400 Corpus.Examples.crowdsale) in
        Alcotest.(check (option string)) "low runs alone" (Some low)
          (Engine.step t);
        let hi =
          submit_ok t
            (submission ~budget:200 ~priority:9 Corpus.Examples.simple_dao)
        in
        Alcotest.(check (option string)) "high jumps the queue" (Some hi)
          (Engine.step t);
        Alcotest.(check string) "low is parked mid-run" "running"
          (state_of t low));
    unit "run_to_completion finishes everything" (fun () ->
        let t = engine () in
        let ids =
          List.map
            (fun src -> submit_ok t (submission ~budget:300 src))
            [
              Corpus.Examples.crowdsale;
              Corpus.Examples.simple_dao;
              Corpus.Examples.piggy_bank;
            ]
        in
        Engine.run_to_completion t;
        Alcotest.(check bool) "nothing runnable" false (Engine.has_runnable t);
        List.iter
          (fun id ->
            Alcotest.(check string) (id ^ " state") "completed" (state_of t id))
          ids);
  ]

(* ---------------- cancellation ---------------- *)

let cancel_tests =
  [
    unit "cancel while queued" (fun () ->
        let t = engine () in
        let a = submit_ok t (submission ~budget:200 Corpus.Examples.crowdsale) in
        let b = submit_ok t (submission ~budget:200 Corpus.Examples.simple_dao) in
        (match Engine.cancel t b with
        | Ok _ -> ()
        | Error (_, msg) -> Alcotest.fail msg);
        Alcotest.(check string) "b cancelled" "cancelled" (state_of t b);
        Engine.run_to_completion t;
        Alcotest.(check string) "a unaffected" "completed" (state_of t a);
        Alcotest.(check string) "b stays cancelled" "cancelled" (state_of t b);
        (* cancelling a terminal campaign is a bad-state error *)
        expect_error Protocol.Bad_state (Engine.cancel t b);
        expect_error Protocol.Bad_state (Engine.cancel t a);
        (* and its report never exists *)
        expect_error Protocol.Bad_state (Engine.report t b));
    unit "cancel while running frees the scheduler" (fun () ->
        let t = engine ~slice_execs:100 () in
        let a = submit_ok t (submission ~budget:1000 Corpus.Examples.crowdsale) in
        Alcotest.(check (option string)) "slice" (Some a) (Engine.step t);
        Alcotest.(check string) "mid-run" "running" (state_of t a);
        (match Engine.cancel t a with
        | Ok _ -> ()
        | Error (_, msg) -> Alcotest.fail msg);
        Alcotest.(check string) "cancelled" "cancelled" (state_of t a);
        Alcotest.(check bool) "nothing runnable" false (Engine.has_runnable t);
        Alcotest.(check (option string)) "no more slices" None (Engine.step t));
    unit "unknown id is unknown-id" (fun () ->
        let t = engine () in
        expect_error Protocol.Unknown_id (Engine.status t "c9999");
        expect_error Protocol.Unknown_id (Engine.cancel t "c9999"));
    unit "a FIFO source path is rejected without blocking" (fun () ->
        let fifo = Filename.concat (temp_dir ()) "source.fifo" in
        Unix.mkfifo fifo 0o600;
        let returned = Atomic.make false in
        (* a daemon that opens the path blocks until a writer appears:
           after a grace period this helper becomes that writer, so the
           test fails instead of hanging *)
        let helper =
          Domain.spawn (fun () ->
              let deadline = Unix.gettimeofday () +. 2.0 in
              while (not (Atomic.get returned)) && Unix.gettimeofday () < deadline do
                Unix.sleepf 0.01
              done;
              if not (Atomic.get returned) then
                match Unix.openfile fifo [ O_WRONLY; O_NONBLOCK ] 0 with
                | fd -> Unix.close fd
                | exception Unix.Unix_error _ -> ())
        in
        let t = engine () in
        let t0 = Unix.gettimeofday () in
        let r = Engine.submit t { (submission "") with sub_source = `File fifo } in
        let elapsed = Unix.gettimeofday () -. t0 in
        Atomic.set returned true;
        Domain.join helper;
        Alcotest.(check bool) "returned before the helper's writer" true (elapsed < 1.0);
        expect_error Protocol.Bad_request r;
        Alcotest.(check bool) "nothing queued" false (Engine.has_runnable t));
    unit "source files that are not small regular files are rejected" (fun () ->
        let dir = temp_dir () in
        (* a contract that compiles, padded past the cap *)
        let big = Filename.concat dir "big.sol" in
        Util.Fileio.write_atomic big
          (Corpus.Examples.crowdsale ^ String.make Protocol.max_source_bytes ' ');
        let t = engine () in
        List.iter
          (fun path ->
            expect_error Protocol.Bad_request
              (Engine.submit t { (submission "") with sub_source = `File path }))
          [ big; dir; Filename.concat dir "missing.sol" ];
        Alcotest.(check bool) "nothing queued" false (Engine.has_runnable t));
    unit "a regular source file is read" (fun () ->
        let path = Filename.concat (temp_dir ()) "c.sol" in
        Util.Fileio.write_atomic path Corpus.Examples.crowdsale;
        let t = engine () in
        ignore (submit_ok t { (submission "") with sub_source = `File path }));
    unit "jobs above the pool cap are a bad request" (fun () ->
        let t = engine () in
        match
          Engine.submit t
            { (submission Corpus.Examples.crowdsale) with
              sub_jobs = Some (Mufuzz.Pool.max_jobs + 1) }
        with
        | Error (Protocol.Bad_request, msg) ->
          Alcotest.(check string) "names the cap"
            (Printf.sprintf "jobs must be at most %d, got %d" Mufuzz.Pool.max_jobs
               (Mufuzz.Pool.max_jobs + 1))
            msg
        | _ -> Alcotest.fail "expected a bad request");
    unit "uncompilable source is rejected at submit" (fun () ->
        let t = engine () in
        expect_error Protocol.Bad_request
          (Engine.submit t (submission "contract { nonsense"));
        Alcotest.(check bool) "nothing queued" false (Engine.has_runnable t));
  ]

(* ---------------- preempt/resume equivalence ---------------- *)

(* the spec's comparison: everything except wall-clock rates *)
let normalized json =
  match json with
  | J.Obj fields ->
    J.Obj
      (List.filter
         (fun (k, _) ->
           not
             (List.mem k [ "wall_seconds"; "execs_per_sec"; "steps_per_sec" ]))
         fields)
  | j -> j

let equivalence_tests =
  [
    unit "sliced campaign report equals the uninterrupted run" (fun () ->
        let budget = 2000 in
        let seed = 99L in
        let t = engine ~slice_execs:300 () in
        let id =
          submit_ok t (submission ~budget ~seed Corpus.Examples.crowdsale)
        in
        Engine.run_to_completion t;
        let sliced =
          match Engine.report t id with
          | Ok j -> j
          | Error (_, msg) -> Alcotest.fail msg
        in
        (* the engine really did slice it *)
        (match field "slices" (Engine.status t id) with
        | Some (J.Int n) when n > 1 -> ()
        | Some (J.Int n) -> Alcotest.failf "only %d slice(s); no preemption" n
        | _ -> Alcotest.fail "no slice count");
        let profile = Option.get (Baselines.Fuzzers.find "MuFuzz") in
        let config =
          profile.configure
            {
              Mufuzz.Config.default with
              max_executions = budget;
              rng_seed = seed;
            }
        in
        let uninterrupted =
          Baselines.Fuzzers.run profile ~config
            (Minisol.Contract.compile Corpus.Examples.crowdsale)
        in
        Alcotest.(check string) "reports equal"
          (J.to_string (normalized (Mufuzz.Report.to_json uninterrupted)))
          (J.to_string (normalized sliced)));
    unit "an unreadable meta.json is skipped on restart" (fun () ->
        let dir = temp_dir () in
        Unix.mkdir (Filename.concat dir "c0001") 0o755;
        Unix.mkdir (Filename.concat (Filename.concat dir "c0001") "meta.json") 0o755;
        let t =
          Engine.create ~state_dir:dir ~metrics:(Telemetry.Metrics.create ()) ()
        in
        Alcotest.(check int) "nothing restored" 0 (List.length (Engine.list_campaigns t)));
    unit "a restarted engine resumes from the checkpoint" (fun () ->
        let budget = 2000 in
        let seed = 99L in
        let dir = temp_dir () in
        let metrics = Telemetry.Metrics.create () in
        let t = Engine.create ~slice_execs:300 ~state_dir:dir ~metrics () in
        let id =
          submit_ok t (submission ~budget ~seed Corpus.Examples.crowdsale)
        in
        (* a few slices, then the daemon "dies" *)
        ignore (Engine.step t);
        ignore (Engine.step t);
        Alcotest.(check string) "mid-run" "running" (state_of t id);
        Engine.shutdown t;
        let t2 = Engine.create ~slice_execs:300 ~state_dir:dir ~metrics () in
        Alcotest.(check string) "restored as running" "running"
          (state_of t2 id);
        Engine.run_to_completion t2;
        let resumed =
          match Engine.report t2 id with
          | Ok j -> j
          | Error (_, msg) -> Alcotest.fail msg
        in
        let profile = Option.get (Baselines.Fuzzers.find "MuFuzz") in
        let config =
          profile.configure
            {
              Mufuzz.Config.default with
              max_executions = budget;
              rng_seed = seed;
            }
        in
        let uninterrupted =
          Baselines.Fuzzers.run profile ~config
            (Minisol.Contract.compile Corpus.Examples.crowdsale)
        in
        Alcotest.(check string) "reports equal"
          (J.to_string (normalized (Mufuzz.Report.to_json uninterrupted)))
          (J.to_string (normalized resumed)));
    unit "the checkpoint metric counts every slice checkpoint" (fun () ->
        let metrics = Telemetry.Metrics.create () in
        let t =
          Engine.create ~slice_execs:100 ~state_dir:(temp_dir ()) ~metrics ()
        in
        let id = submit_ok t (submission ~budget:500 Corpus.Examples.crowdsale) in
        Engine.run_to_completion t;
        let slices =
          match field "slices" (Engine.status t id) with
          | Some (J.Int n) -> n
          | _ -> Alcotest.fail "no slice count"
        in
        let events =
          Util.Fileio.read_file
            (Filename.concat (Filename.concat (Engine.state_dir t) id)
               "events.jsonl")
        in
        let written =
          List.length
            (List.filter
               (fun line ->
                 match Result.bind (J.of_string line) Telemetry.Event.of_json with
                 | Ok (Telemetry.Event.Checkpoint_written _) -> true
                 | _ -> false)
               (String.split_on_char '\n' events))
        in
        Alcotest.(check int) "one checkpoint per preempted slice" (slices - 1)
          written;
        Alcotest.(check int) "mufuzz_checkpoint_written_total" written
          (Telemetry.Metrics.value
             (Telemetry.Metrics.counter metrics
                "mufuzz_checkpoint_written_total")));
    unit "checkpoints live in the campaign's namespace" (fun () ->
        let t = engine ~slice_execs:100 () in
        let id = submit_ok t (submission ~budget:500 Corpus.Examples.crowdsale) in
        ignore (Engine.step t);
        ignore (Engine.step t);
        Alcotest.(check (list string)) "one namespace" [ id ]
          (Persist.Store.namespaces (Engine.state_dir t));
        match
          Persist.Store.load_latest (Filename.concat (Engine.state_dir t) id)
        with
        | Ok (_, ckpt) ->
          Alcotest.(check string) "tool" "MuFuzz" ckpt.Persist.Checkpoint.tool
        | Error e -> Alcotest.fail e);
  ]

let suite =
  [
    ("serve protocol", protocol_tests);
    ("serve scheduler", scheduler_tests);
    ("serve cancel", cancel_tests);
    ("serve equivalence", equivalence_tests);
  ]
