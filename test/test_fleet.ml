(* lib/fleet: shard codec laws, summary merge algebra, ledger state
   machine, and the worker's kill-and-resume determinism. *)

let qcheck ?(count = 100) ~name ~print gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ~print gen f)

let temp_dir () = Util.Fileio.temp_dir ~prefix:"fleet-tmp" ()

(* ---------------- shard codec ---------------- *)

let entry_gen =
  let open QCheck2.Gen in
  let name = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
  let source = string_size ~gen:printable (int_range 0 40) in
  map (fun (name, source) -> { Fleet.Shard.name; source }) (pair name source)

let entries_gen =
  QCheck2.Gen.(list_size (int_range 0 30) entry_gen)

let print_entries es =
  String.concat ";"
    (List.map (fun (e : Fleet.Shard.entry) -> e.name) es)

let read_all ~dir manifest =
  List.concat
    (List.init (Fleet.Shard.shards manifest) (fun k ->
         match
           Fleet.Shard.fold ~dir ~shard:k ~manifest ~init:[]
             ~f:(fun acc _ e -> e :: acc)
         with
         | Ok acc -> List.rev acc
         | Error e -> Alcotest.failf "shard %d: %s" k e))

let shard_roundtrip =
  qcheck ~name:"shard: write/fold round-trips any corpus"
    ~print:(fun (es, k) -> Printf.sprintf "%s k=%d" (print_entries es) k)
    QCheck2.Gen.(pair entries_gen (int_range 1 5))
    (fun (entries, shards) ->
      Util.Fileio.with_temp_dir ~prefix:"fleet-rt" (fun dir ->
          let m = Fleet.Shard.write_list ~dir ~shards entries in
          let m' =
            match Fleet.Shard.load_manifest dir with
            | Ok m' -> m'
            | Error e -> Alcotest.failf "manifest: %s" e
          in
          (* manifest counts agree with the written split *)
          let counted =
            List.fold_left
              (fun n (s : Fleet.Shard.shard_info) -> n + s.si_count)
              0 m'.Fleet.Shard.m_shards
          in
          m = m'
          && counted = List.length entries
          && read_all ~dir m' = entries))

let corrupt_file path f =
  let s = Util.Fileio.read_file path in
  Util.Fileio.write_atomic path (f s)

(* replace the first occurrence of [pat] in [s] with [rep] *)
let replace_first ~pat ~rep s =
  let n = String.length s and np = String.length pat in
  let rec find i =
    if i + np > n then None
    else if String.sub s i np = pat then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> Alcotest.failf "pattern %S not found" pat
  | Some i -> String.sub s 0 i ^ rep ^ String.sub s (i + np) (n - i - np)

let expect_fold_error ~dir what =
  match Fleet.Shard.load_manifest dir with
  | Error _ -> () (* manifest-level rejection also counts *)
  | Ok m -> (
    match
      Fleet.Shard.fold ~dir ~shard:0 ~manifest:m ~init:0 ~f:(fun n _ _ -> n + 1)
    with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: corruption accepted" what)

let some_entries =
  List.init 6 (fun i ->
      { Fleet.Shard.name = Printf.sprintf "c%d" i;
        source = Printf.sprintf "contract C%d {}" i })

let shard_rejects_corruption () =
  let check what f =
    Util.Fileio.with_temp_dir ~prefix:"fleet-corrupt" (fun dir ->
        ignore (Fleet.Shard.write_list ~dir ~shards:2 some_entries);
        f dir;
        expect_fold_error ~dir what)
  in
  check "flipped source byte" (fun dir ->
      corrupt_file
        (Filename.concat dir (Fleet.Shard.shard_file 0))
        (fun s ->
          (* flip a character inside a contract body, not the JSON framing *)
          String.map (fun c -> if c = 'C' then 'X' else c) s));
  check "truncated shard" (fun dir ->
      corrupt_file
        (Filename.concat dir (Fleet.Shard.shard_file 0))
        (fun s -> String.sub s 0 (String.length s - 20)));
  check "trailing garbage" (fun dir ->
      corrupt_file
        (Filename.concat dir (Fleet.Shard.shard_file 0))
        (fun s -> s ^ "{\"name\":\"extra\"}\n"));
  check "version skew" (fun dir ->
      corrupt_file
        (Filename.concat dir (Fleet.Shard.shard_file 0))
        (replace_first ~pat:"\"version\":1" ~rep:"\"version\":99"));
  check "manifest count lie" (fun dir ->
      corrupt_file
        (Filename.concat dir Fleet.Shard.manifest_file)
        (replace_first ~pat:"\"total\":6" ~rep:"\"total\":7"));
  check "shard file is a directory" (fun dir ->
      let path = Filename.concat dir (Fleet.Shard.shard_file 0) in
      Sys.remove path;
      Unix.mkdir path 0o755)

let shard_balanced_bounds () =
  (* the contiguous split covers [0, total) exactly once *)
  List.iter
    (fun (total, shards) ->
      let covered =
        List.concat
          (List.init shards (fun k ->
               let a, b = Fleet.Shard.bounds ~total ~shards k in
               List.init (b - a) (fun i -> a + i)))
      in
      Alcotest.(check (list int))
        (Printf.sprintf "bounds %d/%d" total shards)
        (List.init total Fun.id) covered)
    [ (0, 1); (1, 3); (7, 3); (50, 8); (16, 16); (5, 7) ]

(* ---------------- summary algebra ---------------- *)

let obs_gen =
  let open QCheck2.Gen in
  let* total = int_range 0 40 in
  let* final = int_range 0 total in
  let* execs = int_range 1 200 in
  let* steps = int_range 0 10_000 in
  let* curve_points = int_range 0 5 in
  let* over_time =
    list_size (return curve_points)
      (pair (int_range 0 200) (int_range 0 total))
  in
  let* classes =
    list_size (int_range 0 3)
      (pair (oneofl [ "BD"; "IO"; "RE"; "TO" ]) (int_range 1 9))
  in
  return
    {
      Fleet.Summary.o_execs = execs;
      o_steps = steps;
      o_total_sides = total;
      o_final_covered = final;
      o_over_time = over_time;
      o_classes =
        List.sort_uniq (fun (a, _) (b, _) -> compare a b) classes;
    }

let summary_gen =
  let open QCheck2.Gen in
  let* folds =
    list_size (int_range 0 8)
      (pair (oneofl [ "MuFuzz"; "sFuzz" ]) (pair (oneofl [ "small"; "large" ]) obs_gen))
  in
  let* failures =
    list_size (int_range 0 3)
      (pair
         (string_size ~gen:(char_range 'a' 'z') (int_range 1 6))
         (string_size ~gen:(char_range 'a' 'z') (int_range 1 6)))
  in
  return
    (List.fold_left
       (fun acc (name, reason) -> Fleet.Summary.fold_failure acc ~name ~reason)
       (List.fold_left
          (fun acc (tool, (size, obs)) ->
            Fleet.Summary.contract_done
              (Fleet.Summary.fold acc ~tool ~size ~budget:100 obs))
          (Fleet.Summary.empty ~buckets:5)
          folds)
       failures)

let print_summary s = Fleet.Summary.to_string s

let summary_merge_commutes =
  qcheck ~name:"summary: merge is commutative and associative"
    ~print:(fun (a, (b, c)) ->
      print_summary a ^ " | " ^ print_summary b ^ " | " ^ print_summary c)
    QCheck2.Gen.(pair summary_gen (pair summary_gen summary_gen))
    (fun (a, (b, c)) ->
      let open Fleet.Summary in
      to_string (merge a b) = to_string (merge b a)
      && to_string (merge (merge a b) c) = to_string (merge a (merge b c)))

let summary_json_roundtrip =
  qcheck ~name:"summary: JSON round-trip" ~print:print_summary summary_gen
    (fun s ->
      match Fleet.Summary.of_string (Fleet.Summary.to_string s) with
      | Ok s' -> Fleet.Summary.to_string s' = Fleet.Summary.to_string s
      | Error e -> QCheck2.Test.fail_reportf "decode: %s" e)

let summary_upct () =
  Alcotest.(check int) "50%" 50_000_000 (Fleet.Summary.upct ~total:2 ~covered:1);
  Alcotest.(check int) "0 total" 0 (Fleet.Summary.upct ~total:0 ~covered:0);
  Alcotest.(check int) "rounds" 33_333_333
    (Fleet.Summary.upct ~total:3 ~covered:1);
  Alcotest.(check int) "full" 100_000_000
    (Fleet.Summary.upct ~total:7 ~covered:7)

let summary_bucketing () =
  (* curve buckets replicate the bench harness's coverage_at grid *)
  let obs =
    {
      Fleet.Summary.o_execs = 100;
      o_steps = 0;
      o_total_sides = 10;
      o_final_covered = 8;
      o_over_time = [ (10, 2); (50, 5); (100, 8) ];
      o_classes = [];
    }
  in
  let s =
    Fleet.Summary.fold
      (Fleet.Summary.empty ~buckets:5)
      ~tool:"MuFuzz" ~size:"small" ~budget:100 obs
  in
  let cell = List.assoc ("MuFuzz", "small") s.Fleet.Summary.s_cells in
  (* thresholds 20/40/60/80/100 → covered 2/2/5/5/8 of 10 sides *)
  Alcotest.(check (array int))
    "curve"
    [| 20_000_000; 20_000_000; 50_000_000; 50_000_000; 80_000_000 |]
    cell.Fleet.Summary.c_curve

(* ---------------- config ---------------- *)

let config_roundtrip () =
  let c =
    { Fleet.Config.default with seed = -7L; budget_small = 77; buckets = 4 }
  in
  (match Fleet.Config.of_string (Fleet.Config.to_string c) with
  | Ok c' -> Alcotest.(check string) "round trip" (Fleet.Config.to_string c)
               (Fleet.Config.to_string c')
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool)
    "digest differs on budget change" false
    (Fleet.Config.digest c
    = Fleet.Config.digest { c with budget_small = 78 });
  (match
     Fleet.Config.validate_tools { c with tools = [ "NoSuchFuzzer" ] }
   with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unknown tool accepted");
  (* an out-of-range integer must not decode as 0 *)
  let text =
    replace_first ~pat:{|"checkpoint_every":500|}
      ~rep:{|"checkpoint_every":1e20|} (Fleet.Config.to_string c)
  in
  match Fleet.Config.of_string text with
  | Error _ -> ()
  | Ok c' -> Alcotest.failf "checkpoint_every 1e20 decoded as %d" c'.checkpoint_every

(* ---------------- ledger ---------------- *)

let ledger_state_machine () =
  let l = Fleet.Ledger.create ~manifest_hash:"m" ~config_digest:"c" ~shards:3 in
  let l, s0 = Option.get (Fleet.Ledger.acquire l ~worker:0) in
  let l, s1 = Option.get (Fleet.Ledger.acquire l ~worker:1) in
  Alcotest.(check (pair int int)) "lowest pending first" (0, 1) (s0, s1);
  let l = Fleet.Ledger.mark_done l ~shard:s0 ~contracts:5 ~failed:1 in
  (* worker 1 dies: its lease goes back, counted as a reassignment *)
  let l = Fleet.Ledger.mark_pending l ~shard:s1 in
  Alcotest.(check int) "reassignments" 1 l.Fleet.Ledger.lg_reassignments;
  let l, s1' = Option.get (Fleet.Ledger.acquire l ~worker:2) in
  Alcotest.(check int) "reassigned shard re-leases" s1 s1';
  let l, s2 = Option.get (Fleet.Ledger.acquire l ~worker:0) in
  Alcotest.(check int) "last shard" 2 s2;
  Alcotest.(check bool) "exhausted" true (Fleet.Ledger.acquire l ~worker:9 = None);
  (* coordinator crash: all leases reclaimed *)
  let l, n = Fleet.Ledger.reclaim_all l in
  Alcotest.(check int) "reclaimed" 2 n;
  Alcotest.(check int) "done survives reclaim" 1 (Fleet.Ledger.done_count l);
  Util.Fileio.with_temp_dir ~prefix:"fleet-ledger" (fun dir ->
      Fleet.Ledger.save ~dir l;
      match Fleet.Ledger.load ~dir with
      | Ok (Some l') ->
        Alcotest.(check string) "save/load round trip"
          (Telemetry.Json.to_string (Fleet.Ledger.to_json l))
          (Telemetry.Json.to_string (Fleet.Ledger.to_json l'))
      | Ok None -> Alcotest.fail "ledger vanished"
      | Error e -> Alcotest.fail e);
  Util.Fileio.with_temp_dir ~prefix:"fleet-ledger" (fun dir ->
      Unix.mkdir (Filename.concat dir Fleet.Ledger.file) 0o755;
      match Fleet.Ledger.load ~dir with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "a directory was read as the ledger")

(* ---------------- worker kill-and-resume determinism -------------- *)

let tiny_corpus dir =
  let specs =
    Corpus.Generator.population ~seed:9L ~n:3 Corpus.Generator.Small
      ~bug_rate:0.5
  in
  let entries =
    List.map
      (fun (s : Corpus.Generator.spec) ->
        { Fleet.Shard.name = s.name; source = s.source })
      specs
  in
  ignore (Fleet.Shard.write_list ~dir ~shards:1 entries)

let tiny_config =
  {
    Fleet.Config.tools = [ "MuFuzz"; "sFuzz" ];
    budget_small = 40;
    budget_large = 60;
    seed = 0L;
    checkpoint_every = 10;
    buckets = 5;
  }

let worker_resume_deterministic () =
  Util.Fileio.with_temp_dir ~prefix:"fleet-resume" (fun root ->
      let corpus = Filename.concat root "corpus" in
      tiny_corpus corpus;
      (* reference: one uninterrupted worker run *)
      let reference =
        match
          Fleet.Worker.run_shard ~state:(Filename.concat root "ref") ~corpus
            ~shard:0 ~config:tiny_config ()
        with
        | Ok s -> Fleet.Summary.to_string s
        | Error e -> Alcotest.fail e
      in
      (* killed run: interrupt at a different safe-point count each
         attempt, resuming in the same state dir until it completes —
         like a worker being SIGKILLed over and over *)
      let state = Filename.concat root "killed" in
      let kills = ref 0 in
      let rec attempt budget =
        let calls = ref 0 in
        let interrupt () =
          incr calls;
          !calls > budget
        in
        match
          Fleet.Worker.run_shard ~interrupt ~state ~corpus ~shard:0
            ~config:tiny_config ()
        with
        | Ok s -> Fleet.Summary.to_string s
        | Error e -> Alcotest.fail e
        | exception Fleet.Worker.Interrupted ->
          incr kills;
          (* vary the kill point so successive attempts die mid-campaign,
             between tools, and between contracts *)
          attempt (budget + 3)
      in
      let resumed = attempt 2 in
      Alcotest.(check bool) "was actually interrupted" true (!kills > 0);
      Alcotest.(check string) "same summary after repeated kills" reference
        resumed;
      (* a third run over the finished state is a no-op replay *)
      match
        Fleet.Worker.run_shard ~state ~corpus ~shard:0 ~config:tiny_config ()
      with
      | Ok s ->
        Alcotest.(check string) "idempotent when complete" reference
          (Fleet.Summary.to_string s)
      | Error e -> Alcotest.fail e)

let worker_records_failures () =
  Util.Fileio.with_temp_dir ~prefix:"fleet-fail" (fun root ->
      let corpus = Filename.concat root "corpus" in
      let entries =
        [
          { Fleet.Shard.name = "ok";
            source = "contract Ok { uint x; function f() public { x = 1; } }" };
          { Fleet.Shard.name = "broken"; source = "contract {{{" };
        ]
      in
      ignore (Fleet.Shard.write_list ~dir:corpus ~shards:1 entries);
      let config = { tiny_config with tools = [ "MuFuzz" ] } in
      match
        Fleet.Worker.run_shard ~state:(Filename.concat root "st") ~corpus
          ~shard:0 ~config ()
      with
      | Error e -> Alcotest.fail e
      | Ok s ->
        Alcotest.(check int) "both contracts counted" 2
          s.Fleet.Summary.s_contracts;
        Alcotest.(check int) "one failure" 1
          (List.length s.Fleet.Summary.s_failed);
        Alcotest.(check string) "failure names the contract" "broken"
          (fst (List.hd s.Fleet.Summary.s_failed)))

(* A progress file that cannot be read is a structured error, not an
   escaping [Sys_error]. *)
let worker_unreadable_progress () =
  Util.Fileio.with_temp_dir ~prefix:"fleet-progress" (fun root ->
      let corpus = Filename.concat root "corpus" in
      tiny_corpus corpus;
      let state = Filename.concat root "st" in
      let shard_dir = Filename.concat state (Fleet.Worker.shard_dir_name 0) in
      Unix.mkdir state 0o755;
      Unix.mkdir shard_dir 0o755;
      Unix.mkdir (Filename.concat shard_dir Fleet.Worker.progress_file) 0o755;
      match
        Fleet.Worker.run_shard ~state ~corpus ~shard:0 ~config:tiny_config ()
      with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "a directory was read as progress")

(* ---------------- daemon dispatch ---------------- *)

(* A scripted stand-in for [mufuzz serve]: it greets one client,
   accepts [submits] submissions (each campaign completes at once with
   a fixed report), and drops the connection on the next one. *)
let fake_daemon ~path ~submits =
  let module J = Telemetry.Json in
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 1;
  Domain.spawn (fun () ->
      let fd, _ = Unix.accept sock in
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      let reply line = output_string oc (line ^ "\n"); flush oc in
      reply Serve.Protocol.greeting;
      let report =
        {|{"ok":true,"report":{"executions":40,"steps":900,"total_branch_sides":6,"covered_branches":4,"over_time":[{"execs":40,"covered":4}],"unique_findings":[]}}|}
      in
      let rec serve accepted =
        match input_line ic with
        | exception End_of_file -> ()
        | line -> (
          let op =
            Result.to_option (J.of_string line)
            |> Fun.flip Option.bind (J.member "op")
            |> Fun.flip Option.bind J.string_value
          in
          match op with
          | Some "submit" when accepted = submits -> ()
          | Some "submit" ->
            reply {|{"ok":true,"id":"c0001"}|};
            serve (accepted + 1)
          | Some "status" ->
            reply {|{"ok":true,"state":"completed"}|};
            serve accepted
          | _ ->
            reply report;
            serve accepted)
      in
      serve 0;
      Unix.close fd;
      Unix.close sock)

let daemon_lost_mid_shard () =
  Util.Fileio.with_temp_dir ~prefix:"fleet-lost" (fun root ->
      let corpus = Filename.concat root "corpus" in
      tiny_corpus corpus;
      let path = Filename.concat root "d.sock" in
      (* both tools of the first contract complete, then the daemon goes
         away on the second contract's first campaign *)
      let daemon = fake_daemon ~path ~submits:2 in
      let state = Filename.concat root "st" in
      let result =
        Fleet.Worker.run_shard ~daemon:(Serve.Client.Unix_socket path) ~state
          ~corpus ~shard:0 ~config:tiny_config ()
      in
      Domain.join daemon;
      (match result with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "a lost daemon finished the shard");
      let progress =
        Util.Fileio.read_file
          (Filename.concat
             (Filename.concat state (Fleet.Worker.shard_dir_name 0))
             Fleet.Worker.progress_file)
      in
      let module J = Telemetry.Json in
      match J.of_string progress with
      | Error e -> Alcotest.fail e
      | Ok j ->
        Alcotest.(check (option int)) "first contract recorded" (Some 1)
          (Option.bind (J.member "done" j) J.to_int);
        let failed =
          match Option.bind (J.member "summary" j) (J.member "failed") with
          | Some (J.List l) -> List.length l
          | _ -> Alcotest.fail "progress summary has no failed list"
        in
        Alcotest.(check int) "no campaign failure recorded" 0 failed)

let driver_unreachable_daemon () =
  Util.Fileio.with_temp_dir ~prefix:"fleet-nodaemon" (fun root ->
      let corpus = Filename.concat root "corpus" in
      tiny_corpus corpus;
      let state = Filename.concat root "st" in
      let options =
        {
          (Fleet.Driver.default_options ~state ~corpus ~config:tiny_config
             ~dispatch:
               (Fleet.Driver.Daemons
                  [ Serve.Client.Unix_socket (Filename.concat root "none.sock") ]))
          with
          worker_argv =
            Some (fun ~shard:_ -> Alcotest.fail "spawned a worker for a dead daemon");
        }
      in
      (match Fleet.Driver.run options with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "ran against an unreachable daemon");
      (* resumable: the shard went back to pending, not to a lease *)
      match Fleet.Ledger.load ~dir:state with
      | Ok (Some l) ->
        Alcotest.(check bool) "no shard leased" true
          (Array.for_all (( = ) Fleet.Ledger.Pending) l.Fleet.Ledger.lg_states)
      | Ok None -> Alcotest.fail "no ledger written"
      | Error e -> Alcotest.fail e)

let driver_unreadable_config () =
  Util.Fileio.with_temp_dir ~prefix:"fleet-config" (fun root ->
      let corpus = Filename.concat root "corpus" in
      tiny_corpus corpus;
      let state = Filename.concat root "st" in
      Unix.mkdir state 0o755;
      Unix.mkdir (Filename.concat state Fleet.Driver.config_file) 0o755;
      match
        Fleet.Driver.run
          (Fleet.Driver.default_options ~state ~corpus ~config:tiny_config
             ~dispatch:(Fleet.Driver.Processes 1))
      with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "a directory was read as the fleet config")

(* ---------------- end-to-end: driver with in-process math --------- *)

let driver_csvs () =
  (* fold two tools over two sizes and render; spot-check the CSV shape *)
  let s =
    List.fold_left
      (fun acc (tool, size, covered) ->
        Fleet.Summary.fold acc ~tool ~size ~budget:100
          {
            Fleet.Summary.o_execs = 100;
            o_steps = 10;
            o_total_sides = 4;
            o_final_covered = covered;
            o_over_time = [ (100, covered) ];
            o_classes = [ ("TO", 2) ];
          })
      (Fleet.Summary.empty ~buckets:2)
      [ ("MuFuzz", "small", 4); ("MuFuzz", "large", 2); ("sFuzz", "small", 3) ]
  in
  let tools = [ "sFuzz"; "MuFuzz" ] in
  let fig5 = Fleet.Summary.fig5_csv s ~tools ~size:"small" ~budget:100 in
  Alcotest.(check string) "fig5"
    "execs,sFuzz,MuFuzz\n50,0.00,0.00\n100,75.00,100.00\n" fig5;
  let fig6 = Fleet.Summary.fig6_csv s ~tools in
  Alcotest.(check string) "fig6"
    "fuzzer,small,large\nsFuzz,75.00,0.00\nMuFuzz,100.00,50.00\n" fig6;
  let findings = Fleet.Summary.findings_csv s ~tools in
  Alcotest.(check string) "findings"
    "tool,size,class,contracts,occurrences\n\
     sFuzz,small,TO,1,2\n\
     MuFuzz,small,TO,1,2\n\
     MuFuzz,large,TO,1,2\n"
    findings

let suite =
  [
    ( "fleet: shard codec",
      [
        shard_roundtrip;
        Alcotest.test_case "rejects corruption" `Quick shard_rejects_corruption;
        Alcotest.test_case "balanced bounds" `Quick shard_balanced_bounds;
      ] );
    ( "fleet: summary algebra",
      [
        summary_merge_commutes;
        summary_json_roundtrip;
        Alcotest.test_case "upct fixed point" `Quick summary_upct;
        Alcotest.test_case "bucketing matches bench grid" `Quick
          summary_bucketing;
        Alcotest.test_case "csv rendering" `Quick driver_csvs;
      ] );
    ( "fleet: config & ledger",
      [
        Alcotest.test_case "config codec and digest" `Quick config_roundtrip;
        Alcotest.test_case "ledger state machine" `Quick ledger_state_machine;
      ] );
    ( "fleet: worker resume",
      [
        Alcotest.test_case "kill/resume is deterministic" `Slow
          worker_resume_deterministic;
        Alcotest.test_case "failures recorded, shard survives" `Quick
          worker_records_failures;
        Alcotest.test_case "unreadable progress is an error" `Quick
          worker_unreadable_progress;
      ] );
    ( "fleet: driver",
      [
        Alcotest.test_case "a daemon lost mid-shard is not a campaign failure"
          `Quick daemon_lost_mid_shard;
        Alcotest.test_case "an unreachable daemon is a resumable error" `Quick
          driver_unreachable_daemon;
        Alcotest.test_case "an unreadable fleet config is an error" `Quick
          driver_unreadable_config;
      ] );
  ]
