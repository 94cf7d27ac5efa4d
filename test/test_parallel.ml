(* The multicore campaign machinery: the domain pool, commutative
   coverage merging, order-independent per-worker RNG streams, and the
   [run_parallel] contract (jobs=1 bit-identical to the sequential
   runner, jobs>1 deterministic and budget-exact). *)

let unit name f = Alcotest.test_case name `Quick f

let qprop name ?(count = 200) ~print gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ~print gen f)

(* ------------------------------------------------------------------ *)
(* Coverage.merge                                                      *)

let trace_of events =
  { Evm.Trace.status = Evm.Trace.Success; events; return_data = ""; gas_used = 0; steps = 0 }

let branch (pc, taken, d) =
  Evm.Trace.Branch
    { pc; taken; dist_to_flip = float_of_int d +. 0.5; cond_taint = 0; cmp = None }

(* small pc range so traces collide on branch identities often *)
let events_gen =
  QCheck2.Gen.(
    list_size (int_range 0 20)
      (map branch (triple (int_range 0 7) bool (int_range 0 9))))

let print_events evs =
  String.concat ";"
    (List.map
       (function
         | Evm.Trace.Branch { pc; taken; dist_to_flip; _ } ->
           Printf.sprintf "(%d,%b,%.1f)" pc taken dist_to_flip
         | _ -> "?")
       evs)

let cov_of events =
  let cov = Mufuzz.Coverage.create () in
  ignore (Mufuzz.Coverage.record cov (trace_of events));
  cov

(* the observable state the campaign reads: covered set, frontier, and
   best distance toward every frontier side *)
let observe cov =
  let covered = List.sort compare (Mufuzz.Coverage.covered cov) in
  let frontier = List.sort compare (Mufuzz.Coverage.uncovered_frontier cov) in
  let dists =
    List.map (fun b -> (b, Mufuzz.Coverage.best_distance cov b)) frontier
  in
  (covered, dists, Mufuzz.Coverage.total_sides_known cov)

let merge_tests =
  [
    qprop "merge is commutative" ~count:300
      ~print:(QCheck2.Print.pair print_events print_events)
      QCheck2.Gen.(pair events_gen events_gen)
      (fun (ea, eb) ->
        let ab = cov_of ea and ba = cov_of eb in
        Mufuzz.Coverage.merge ~into:ab (cov_of eb);
        Mufuzz.Coverage.merge ~into:ba (cov_of ea);
        observe ab = observe ba);
    qprop "merge is idempotent" ~count:300 ~print:print_events events_gen
      (fun evs ->
        let dst = cov_of evs in
        Mufuzz.Coverage.merge ~into:dst (cov_of evs);
        let once = observe dst in
        Mufuzz.Coverage.merge ~into:dst (cov_of evs);
        observe dst = once);
    qprop "merge = recording the same traces directly" ~count:300
      ~print:(QCheck2.Print.pair print_events print_events)
      QCheck2.Gen.(pair events_gen events_gen)
      (fun (ea, eb) ->
        let merged = cov_of ea in
        Mufuzz.Coverage.merge ~into:merged (cov_of eb);
        let direct = Mufuzz.Coverage.create () in
        ignore (Mufuzz.Coverage.record direct (trace_of ea));
        ignore (Mufuzz.Coverage.record direct (trace_of eb));
        observe merged = observe direct);
    qprop "merge associates over three shards" ~count:200
      ~print:(QCheck2.Print.triple print_events print_events print_events)
      QCheck2.Gen.(triple events_gen events_gen events_gen)
      (fun (ea, eb, ec) ->
        (* (a<-b)<-c versus a<-(b<-c) *)
        let left = cov_of ea in
        Mufuzz.Coverage.merge ~into:left (cov_of eb);
        Mufuzz.Coverage.merge ~into:left (cov_of ec);
        let bc = cov_of eb in
        Mufuzz.Coverage.merge ~into:bc (cov_of ec);
        let right = cov_of ea in
        Mufuzz.Coverage.merge ~into:right bc;
        observe left = observe right);
  ]

(* ------------------------------------------------------------------ *)
(* Rng.derive                                                          *)

let stream_prefix rng n = List.init n (fun _ -> Util.Rng.next_int64 rng)

let derive_tests =
  [
    qprop "derive is a pure function of (seed, index)" ~count:200
      ~print:QCheck2.Print.(pair int64 int)
      QCheck2.Gen.(pair int64 (int_range 0 64))
      (fun (seed, i) ->
        stream_prefix (Util.Rng.derive seed i) 8
        = stream_prefix (Util.Rng.derive seed i) 8);
    qprop "derived stream independent of sibling derivation order"
      ~count:200
      ~print:QCheck2.Print.(pair int64 int)
      QCheck2.Gen.(pair int64 (int_range 0 16))
      (fun (seed, i) ->
        (* deriving (and drawing from) other indices first must not
           perturb stream [i] *)
        let fresh = stream_prefix (Util.Rng.derive seed i) 8 in
        for j = 16 downto 0 do
          ignore (stream_prefix (Util.Rng.derive seed j) 3)
        done;
        fresh = stream_prefix (Util.Rng.derive seed i) 8);
    qprop "distinct indices give pairwise distinct streams" ~count:200
      ~print:QCheck2.Print.(pair int64 (pair int int))
      QCheck2.Gen.(pair int64 (pair (int_range 0 64) (int_range 0 64)))
      (fun (seed, (i, j)) ->
        i = j
        || stream_prefix (Util.Rng.derive seed i) 4
           <> stream_prefix (Util.Rng.derive seed j) 4);
    unit "derived streams differ from the coordinator stream" (fun () ->
        let coord = stream_prefix (Util.Rng.create 42L) 4 in
        for i = 0 to 7 do
          if stream_prefix (Util.Rng.derive 42L i) 4 = coord then
            Alcotest.failf "stream %d collides with the coordinator" i
        done);
  ]

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)

let pool_tests =
  [
    unit "jobs are clamped to >= 1" (fun () ->
        Mufuzz.Pool.with_pool ~jobs:0 (fun p ->
            Alcotest.(check int) "size" 1 (Mufuzz.Pool.size p)));
    unit "jobs above the cap are refused before any domain starts" (fun () ->
        let cap = Mufuzz.Pool.max_jobs in
        Alcotest.(check bool) "below the runtime's 128 domains" true (cap < 128);
        Alcotest.(check (result int string)) "at the cap" (Ok cap)
          (Mufuzz.Pool.check_jobs cap);
        Alcotest.(check (result int string)) "clamped up" (Ok 1)
          (Mufuzz.Pool.check_jobs 0);
        Alcotest.(check (result int string)) "over the cap"
          (Error (Printf.sprintf "jobs must be at most %d, got %d" cap (cap + 1)))
          (Mufuzz.Pool.check_jobs (cap + 1));
        let refused f =
          match f () with
          | exception Invalid_argument _ -> true
          | _ -> false
        in
        Alcotest.(check bool) "create" true
          (refused (fun () -> Mufuzz.Pool.create ~jobs:(cap + 1) ()));
        Alcotest.(check bool) "with_borrowed" true
          (refused (fun () -> Mufuzz.Pool.with_borrowed ~jobs:max_int ignore)));
    unit "run_batch returns results in submission order" (fun () ->
        Mufuzz.Pool.with_pool ~jobs:3 (fun p ->
            let tasks = Array.init 23 (fun i _worker -> i * i) in
            let out = Mufuzz.Pool.run_batch p tasks in
            Alcotest.(check (array int))
              "squares"
              (Array.init 23 (fun i -> i * i))
              out));
    unit "tasks see worker ids in range" (fun () ->
        Mufuzz.Pool.with_pool ~jobs:3 (fun p ->
            let ids = Mufuzz.Pool.run_batch p (Array.make 16 (fun w -> w)) in
            Array.iter
              (fun w ->
                if w < 0 || w >= Mufuzz.Pool.size p then
                  Alcotest.failf "worker id %d out of range" w)
              ids));
    unit "map preserves order across many batches" (fun () ->
        Mufuzz.Pool.with_pool ~jobs:2 (fun p ->
            let items = List.init 50 (fun i -> i) in
            Alcotest.(check (list int))
              "doubled"
              (List.map (fun i -> i * 2) items)
              (Mufuzz.Pool.map p (fun i -> i * 2) items);
            (* pool is reusable: a second batch on the same domains *)
            Alcotest.(check (list string))
              "stringed"
              (List.map string_of_int items)
              (Mufuzz.Pool.map p string_of_int items);
            let s = Mufuzz.Pool.stats p in
            Alcotest.(check int)
              "all tasks accounted"
              100
              (Array.fold_left ( + ) 0 s.tasks_run)));
    unit "task exceptions surface as Task_error after the batch drains"
      (fun () ->
        Mufuzz.Pool.with_pool ~jobs:2 (fun p ->
            (match
               Mufuzz.Pool.run_batch p
                 [| (fun _ -> 1); (fun _ -> failwith "boom"); (fun _ -> 3) |]
             with
            | _ -> Alcotest.fail "expected Task_error"
            | exception Mufuzz.Pool.Task_error (Failure msg) ->
              Alcotest.(check string) "payload" "boom" msg
            | exception Mufuzz.Pool.Task_error e ->
              Alcotest.failf "unexpected payload %s" (Printexc.to_string e));
            (* the pool survives a failed batch *)
            Alcotest.(check (array int))
              "next batch runs" [| 7 |]
              (Mufuzz.Pool.run_batch p [| (fun _ -> 7) |])))
  ]

(* ------------------------------------------------------------------ *)
(* run_parallel                                                        *)

let crowdsale = lazy (Minisol.Contract.compile Corpus.Examples.crowdsale)

let finding_key (f : Oracles.Oracle.finding) = (f.cls, f.pc)

(* everything observable except wall-clock time and per-domain stats *)
let essence (r : Mufuzz.Report.t) =
  ( r.contract_name,
    r.executions,
    r.covered_branches,
    List.sort compare r.covered,
    r.total_branch_sides,
    List.sort compare (List.map finding_key r.findings),
    r.over_time,
    r.seeds_in_queue )

let campaign_tests =
  [
    unit "jobs=1 is the sequential campaign, field for field" (fun () ->
        let config =
          { Mufuzz.Config.default with max_executions = 700; jobs = 1 }
        in
        let c = Lazy.force crowdsale in
        let seq = Mufuzz.Campaign.run ~config c in
        let par = Mufuzz.Campaign.run_parallel ~config c in
        if essence seq <> essence par then
          Alcotest.fail "jobs=1 diverged from the sequential runner";
        (match par.parallel with
        | None -> ()
        | Some _ -> Alcotest.fail "jobs=1 must not report parallel stats");
        Alcotest.(check string)
          "identical text report" (* wall time excepted *)
          (Mufuzz.Report.to_text { seq with wall_seconds = 0.0 })
          (Mufuzz.Report.to_text { par with wall_seconds = 0.0 }));
    unit "jobs=2 is deterministic and budget-exact" (fun () ->
        let config =
          { Mufuzz.Config.default with max_executions = 600; jobs = 2 }
        in
        let c = Lazy.force crowdsale in
        let a = Mufuzz.Campaign.run_parallel ~config c in
        let b = Mufuzz.Campaign.run_parallel ~config c in
        Alcotest.(check int) "budget honoured" 600 a.executions;
        if essence a <> essence b then
          Alcotest.fail "same (rng_seed, jobs) must reproduce";
        match a.parallel with
        | Some p ->
          Alcotest.(check int) "jobs recorded" 2 p.jobs;
          Alcotest.(check int)
            "per-domain execs sum to the total" a.executions
            (List.fold_left
               (fun acc (d : Mufuzz.Report.domain_stat) -> acc + d.d_execs)
               0 p.domains)
        | None -> Alcotest.fail "parallel stats missing");
    unit "jobs=2 finds what the sequential campaign finds" (fun () ->
        (* different schedules explore differently, but on this small
           contract both must cover every side and expose the planted
           bug class *)
        let budget = 800 in
        let c = Lazy.force crowdsale in
        let seq =
          Mufuzz.Campaign.run
            ~config:{ Mufuzz.Config.default with max_executions = budget }
            c
        in
        let par =
          Mufuzz.Campaign.run_parallel
            ~config:
              { Mufuzz.Config.default with max_executions = budget; jobs = 2 }
            c
        in
        Alcotest.(check int)
          "same coverage" seq.covered_branches par.covered_branches;
        Alcotest.(check (list (pair int bool)))
          "same sides"
          (List.sort compare seq.covered)
          (List.sort compare par.covered);
        Alcotest.(check bool)
          "same bug classes" true
          (List.sort_uniq compare
             (List.map (fun (f : Oracles.Oracle.finding) -> f.cls) seq.findings)
          = List.sort_uniq compare
              (List.map (fun (f : Oracles.Oracle.finding) -> f.cls) par.findings)));
    unit "black-box jobs=2 counts every execution's steps like jobs=1"
      (fun () ->
        (* black-box seeds come off the campaign stream in the same order
           at any width, so both runs execute the same seeds: every
           execution the coordinator dispatches must reach the totals *)
        let config =
          { Mufuzz.Config.default with max_executions = 400; blackbox = true }
        in
        let c = Lazy.force crowdsale in
        let seq = Mufuzz.Campaign.run_parallel ~config c in
        let par = Mufuzz.Campaign.run_parallel ~config:{ config with jobs = 2 } c in
        Alcotest.(check int) "executions" seq.executions par.executions;
        Alcotest.(check bool) "steps counted" true (seq.steps > 0);
        Alcotest.(check int) "steps" seq.steps par.steps);
    unit "an explicit pool is reusable across campaigns" (fun () ->
        Mufuzz.Pool.with_pool ~jobs:2 (fun pool ->
            let config =
              { Mufuzz.Config.default with max_executions = 300; jobs = 2 }
            in
            let c = Lazy.force crowdsale in
            let a = Mufuzz.Campaign.run_parallel ~config ~pool c in
            let b = Mufuzz.Campaign.run_parallel ~config ~pool c in
            Alcotest.(check bool) "reproducible on a shared pool" true
              (essence a = essence b)));
    unit "run_many preserves input order" (fun () ->
        let c = Lazy.force crowdsale in
        let config =
          { Mufuzz.Config.default with max_executions = 150 }
        in
        Mufuzz.Pool.with_pool ~jobs:2 (fun pool ->
            let names =
              List.map
                (function
                  | Ok (r : Mufuzz.Report.t) -> r.contract_name
                  | Error (f : Mufuzz.Campaign.failure) -> f.failed_contract)
                (Mufuzz.Campaign.run_many ~config ~pool [ c; c; c ])
            in
            Alcotest.(check (list string))
              "order"
              [ c.Minisol.Contract.name; c.name; c.name ]
              names));
    unit "run_many survives a bad corpus member" (fun () ->
        let c = Lazy.force crowdsale in
        (* a contract with no ABI at all cannot even bootstrap a seed:
           its campaign raises — the fleet-robustness regression is that
           the siblings still complete and the failure is structured *)
        let broken = { c with Minisol.Contract.abi = [] } in
        let config = { Mufuzz.Config.default with max_executions = 100 } in
        let results = Mufuzz.Campaign.run_many ~config [ c; broken; c ] in
        (match results with
        | [ Ok a; Error f; Ok b ] ->
          Alcotest.(check string) "first ok" c.Minisol.Contract.name
            a.contract_name;
          Alcotest.(check string) "failure names the contract"
            c.Minisol.Contract.name f.failed_contract;
          Alcotest.(check bool) "failure carries a reason" true
            (String.length f.failed_reason > 0);
          Alcotest.(check string) "third ok" c.Minisol.Contract.name
            b.contract_name
        | _ -> Alcotest.fail "expected [Ok; Error; Ok]");
        ());
  ]

(* ------------------------------------------------------------------ *)
(* borrowed pools                                                      *)

(* The domains a pool's [jobs] workers run on: one task per worker, each
   held until every worker has taken one, so no worker can steal a
   sibling's task. *)
let worker_domains pool =
  let jobs = Mufuzz.Pool.size pool in
  let started = Atomic.make 0 in
  let task _ =
    Atomic.incr started;
    let deadline = Unix.gettimeofday () +. 10.0 in
    while Atomic.get started < jobs && Unix.gettimeofday () < deadline do
      Domain.cpu_relax ()
    done;
    (Domain.self () :> int)
  in
  let ids = Mufuzz.Pool.run_batch pool (Array.make jobs task) in
  List.sort_uniq compare (Array.to_list ids)

let borrowed_domains jobs = Mufuzz.Pool.with_borrowed ~jobs worker_domains

let disjoint a b = List.for_all (fun x -> not (List.mem x b)) a

let borrow_tests =
  let config = { Mufuzz.Config.default with max_executions = 300; jobs = 2 } in
  let on_fresh_pool ?metrics c =
    Mufuzz.Pool.with_pool ?metrics ~jobs:2 (fun pool ->
        Mufuzz.Campaign.run_parallel ~config ~pool ?metrics c)
  in
  [
    unit "consecutive borrowed campaigns report as on fresh pools" (fun () ->
        let c = Lazy.force crowdsale in
        let a = Mufuzz.Campaign.run_parallel ~config c in
        let b = Mufuzz.Campaign.run_parallel ~config c in
        let fresh = on_fresh_pool c in
        Alcotest.(check bool) "first borrow" true (essence a = essence fresh);
        Alcotest.(check bool) "second borrow" true (essence b = essence fresh));
    unit "a second borrow at the same jobs reuses the parked domains" (fun () ->
        let a = borrowed_domains 2 in
        Alcotest.(check int) "two workers" 2 (List.length a);
        Alcotest.(check (list int)) "same domains" a (borrowed_domains 2));
    unit "a borrow at another jobs replaces the parked pool" (fun () ->
        let two = borrowed_domains 2 in
        let three = borrowed_domains 3 in
        Alcotest.(check int) "three workers" 3 (List.length three);
        Alcotest.(check bool) "new domains" true (disjoint two three);
        Alcotest.(check (list int)) "now parked" three (borrowed_domains 3);
        (* the two-worker pool was shut down, not kept beside the other *)
        let two' = borrowed_domains 2 in
        Alcotest.(check bool) "fresh again" true
          (disjoint two' two && disjoint two' three));
    unit "pool telemetry counts only the borrowing campaign" (fun () ->
        let c = Lazy.force crowdsale in
        let tasks m =
          Telemetry.Metrics.value (Telemetry.Metrics.counter m "mufuzz_pool_tasks_total")
        in
        let merge_wait m =
          Telemetry.Metrics.gauge_value
            (Telemetry.Metrics.gauge m "mufuzz_pool_merge_wait_seconds")
        in
        let m1 = Telemetry.Metrics.create () and m2 = Telemetry.Metrics.create () in
        ignore (Mufuzz.Campaign.run_parallel ~config ~metrics:m1 c);
        let r2 = Mufuzz.Campaign.run_parallel ~config ~metrics:m2 c in
        let mf = Telemetry.Metrics.create () in
        ignore (on_fresh_pool ~metrics:mf c);
        Alcotest.(check bool) "tasks counted" true (tasks mf > 0);
        Alcotest.(check int) "first campaign's tasks" (tasks mf) (tasks m1);
        Alcotest.(check int) "second campaign's tasks" (tasks mf) (tasks m2);
        match r2.parallel with
        | Some p ->
          Alcotest.(check (float 0.0))
            "merge wait since the borrow" p.merge_wait_seconds (merge_wait m2)
        | None -> Alcotest.fail "parallel stats missing");
    unit "a sequential campaign retires the parked pool" (fun () ->
        let before = borrowed_domains 2 in
        ignore
          (Mufuzz.Campaign.run
             ~config:{ config with max_executions = 50; jobs = 1 }
             (Lazy.force crowdsale));
        Alcotest.(check bool) "fresh domains" true
          (disjoint before (borrowed_domains 2)));
    unit "a borrow whose task raised leaves a usable pool" (fun () ->
        let c = Lazy.force crowdsale in
        let before = borrowed_domains 2 in
        (match
           Mufuzz.Pool.with_borrowed ~jobs:2 (fun p ->
               Mufuzz.Pool.run_batch p [| (fun _ -> ()); (fun _ -> failwith "boom") |])
         with
        | _ -> Alcotest.fail "expected Task_error"
        | exception Mufuzz.Pool.Task_error (Failure _) -> ());
        Alcotest.(check (list int)) "still parked" before (borrowed_domains 2);
        let r = Mufuzz.Campaign.run_parallel ~config c in
        Alcotest.(check bool) "next campaign runs" true
          (essence r = essence (on_fresh_pool c)));
  ]

let suite =
  [
    ("parallel: coverage merge", merge_tests);
    ("parallel: rng streams", derive_tests);
    ("parallel: pool", pool_tests);
    ("parallel: campaign", campaign_tests);
    ("parallel: borrowed pool", borrow_tests);
  ]
