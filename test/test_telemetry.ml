(* The telemetry subsystem: JSON codec, event round-trips, ring-buffer
   bounds, lock-free metrics under domain contention, and the campaign
   smoke contract (trace exec-completed count = report executions, in
   both the sequential and the parallel runner). *)

module J = Telemetry.Json
module E = Telemetry.Event
module M = Telemetry.Metrics

let unit name f = Alcotest.test_case name `Quick f

let qprop name ?(count = 300) ~print gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ~print gen f)

(* ------------------------------------------------------------------ *)
(* JSON codec                                                          *)

let rec json_gen depth =
  let open QCheck2.Gen in
  let leaf =
    oneof
      [
        return J.Null;
        map (fun b -> J.Bool b) bool;
        map (fun n -> J.Int n) (int_range (-1000000) 1000000);
        map (fun f -> J.Float f) (float_range (-1e9) 1e9);
        map (fun s -> J.String s) (string_size (int_range 0 12));
      ]
  in
  if depth = 0 then leaf
  else
    oneof
      [
        leaf;
        map (fun l -> J.List l) (list_size (int_range 0 4) (json_gen (depth - 1)));
        map
          (fun kvs ->
            (* duplicate keys would make round-trip comparison ambiguous *)
            let seen = Hashtbl.create 8 in
            J.Obj
              (List.filter
                 (fun (k, _) ->
                   if Hashtbl.mem seen k then false
                   else (Hashtbl.replace seen k (); true))
                 kvs))
          (list_size (int_range 0 4)
             (QCheck2.Gen.pair (string_size (int_range 0 6)) (json_gen (depth - 1))));
      ]

(* Float printing goes through a shortest-round-trip format, so parsed
   numbers compare equal structurally; Int stays Int because integral
   decimals parse back to Int. *)
let rec json_eq a b =
  match (a, b) with
  | J.Float x, J.Float y -> x = y || (x <> x && y <> y)
  | J.Int x, J.Int y -> x = y
  | J.Int x, J.Float y | J.Float y, J.Int x -> float_of_int x = y
  | J.List xs, J.List ys ->
    List.length xs = List.length ys && List.for_all2 json_eq xs ys
  | J.Obj xs, J.Obj ys ->
    List.length xs = List.length ys
    && List.for_all2 (fun (k, v) (k', v') -> k = k' && json_eq v v') xs ys
  | _ -> a = b

let json_tests =
  [
    qprop "print/parse round trip" ~print:(fun j -> J.to_string j) (json_gen 3)
      (fun j ->
        match J.of_string (J.to_string j) with
        | Ok j' -> json_eq j j'
        | Error e -> QCheck2.Test.fail_reportf "parse error: %s" e);
    unit "escapes round trip" (fun () ->
        let s = "a\"b\\c\nd\te\x01f\xe2\x82\xac" in
        match J.of_string (J.to_string (J.String s)) with
        | Ok (J.String s') -> Alcotest.(check string) "string" s s'
        | Ok _ -> Alcotest.fail "not a string"
        | Error e -> Alcotest.fail e);
    unit "trailing garbage rejected" (fun () ->
        match J.of_string "{} x" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "should reject");
    unit "integral decimals parse to Int" (fun () ->
        match J.of_string "[1, 2.5, -3]" with
        | Ok (J.List [ J.Int 1; J.Float 2.5; J.Int (-3) ]) -> ()
        | Ok j -> Alcotest.failf "unexpected parse: %s" (J.to_string j)
        | Error e -> Alcotest.fail e);
    unit "member/accessors" (fun () ->
        let j = J.Obj [ ("a", J.Int 7); ("b", J.Bool true) ] in
        Alcotest.(check (option int)) "a" (Some 7)
          (Option.bind (J.member "a" j) J.to_int);
        Alcotest.(check (option bool)) "b" (Some true)
          (Option.bind (J.member "b" j) J.to_bool);
        Alcotest.(check bool) "missing" true (J.member "c" j = None));
    unit "to_int rejects integers outside the int range" (fun () ->
        Alcotest.(check (option int)) "1e20" None (J.to_int (J.Float 1e20));
        Alcotest.(check (option int)) "2^62" None
          (J.to_int (J.Float 4611686018427387904.));
        Alcotest.(check (option int)) "-2^62" (Some min_int)
          (J.to_int (J.Float (-4611686018427387904.)));
        Alcotest.(check (option int)) "integral float" (Some 3)
          (J.to_int (J.Float 3.0));
        match J.of_string "99999999999999999999" with
        | Ok j -> Alcotest.(check (option int)) "oversized literal" None (J.to_int j)
        | Error e -> Alcotest.fail e);
  ]

(* ------------------------------------------------------------------ *)
(* Decoder toolkit                                                     *)

module D = J.Decode

let decode d s =
  match J.of_string s with Ok j -> d j | Error e -> Alcotest.fail e

let result_t = Alcotest.(result (list int) string)

let decode_tests =
  let open D in
  let pair j =
    let* tx = field "tx" int j in
    let* n = field "n" int j in
    Ok (tx + n)
  in
  let doc = field "snapshot" (field "entries" (list (field "masks" (list pair)))) in
  [
    unit "errors carry the JSON path" (fun () ->
        Alcotest.check
          Alcotest.(result (list (list int)) string)
          "nested path"
          (Error "snapshot.entries[1].masks[0].tx: expected int")
          (decode doc
             {|{"snapshot":{"entries":[{"masks":[]},{"masks":[{"tx":"x","n":1}]}]}}|});
        Alcotest.check result_t "missing field"
          (Error "[0].n: missing field")
          (decode (list pair) {|[{"tx":1}]|});
        Alcotest.check result_t "bare check message"
          (Error "[1]: negative")
          (decode
             (list (fun j ->
                  let* n = int j in
                  if n < 0 then Error "negative" else Ok n))
             "[1,-2]");
        Alcotest.check result_t "ok" (Ok [ 3; 5 ])
          (decode (list pair) {|[{"tx":1,"n":2},{"tx":2,"n":3}]|}));
    unit "field_opt, nullable and int64_decimal" (fun () ->
        let opt = Alcotest.(result (option int) string) in
        Alcotest.check opt "absent" (Ok None) (decode (field_opt "a" int) "{}");
        Alcotest.check opt "null" (Ok None) (decode (field_opt "a" int) {|{"a":null}|});
        Alcotest.check opt "ill-typed" (Error "a: expected int")
          (decode (field_opt "a" int) {|{"a":true}|});
        Alcotest.check opt "nullable needs the field" (Error "a: missing field")
          (decode (field "a" (nullable int)) "{}");
        Alcotest.check opt "out of range" (Error "a: expected int")
          (decode (field_opt "a" int) {|{"a":1e20}|});
        Alcotest.check
          Alcotest.(result int64 string)
          "int64" (Ok Int64.max_int)
          (decode int64_decimal {|"9223372036854775807"|}));
    unit "header is an exact match" (fun () ->
        let h = header ~format:"f" ~version:2 in
        let unit_r = Alcotest.(result unit string) in
        Alcotest.check unit_r "match" (Ok ()) (decode h {|{"format":"f","version":2}|});
        Alcotest.check unit_r "older" (Error "version: 1 not supported (this build reads 2)")
          (decode h {|{"format":"f","version":1}|});
        Alcotest.check unit_r "format" (Error {|format: expected "f", got "g"|})
          (decode h {|{"format":"g","version":2}|});
        Alcotest.check unit_r "not an object" (Error "expected object") (decode h "[]"));
  ]

(* ------------------------------------------------------------------ *)
(* Event JSON round trip                                               *)

let event_gen =
  let open QCheck2.Gen in
  let nat = int_range 0 100000 in
  oneof
    [
      map2 (fun worker fresh -> E.Exec_completed { worker; fresh }) nat bool;
      map3
        (fun pc taken covered -> E.New_branch_side { pc; taken; covered })
        nat bool nat;
      map2 (fun txs queue_len -> E.Seed_enqueued { txs; queue_len }) nat nat;
      map2 (fun tx_index probes -> E.Mask_updated { tx_index; probes }) nat nat;
      map (fun energy -> E.Energy_reassigned { energy }) nat;
      map3
        (fun cls pc tx_index -> E.Finding_raised { cls; pc; tx_index })
        (string_size (int_range 0 8))
        nat nat;
      map2 (fun thief victim -> E.Pool_steal { thief; victim }) nat nat;
      map3
        (fun round execs covered -> E.Batch_merge { round; execs; covered })
        nat nat nat;
      map2
        (fun execs path -> E.Checkpoint_written { execs; path })
        nat (string_size ~gen:printable (int_range 0 30));
      map2
        (fun execs path -> E.Checkpoint_loaded { execs; path })
        nat (string_size ~gen:printable (int_range 0 30));
      map2 (fun shard worker -> E.Fleet_shard_leased { shard; worker }) nat nat;
      map3
        (fun shard contracts failed ->
          E.Fleet_shard_done { shard; contracts; failed })
        nat nat nat;
      map2
        (fun shard worker -> E.Fleet_lease_reassigned { shard; worker })
        nat nat;
    ]

let event_tests =
  [
    qprop "to_json/of_json round trip" ~print:(Format.asprintf "%a" E.pp)
      event_gen (fun ev ->
        match E.of_json (E.to_json ev) with
        | Ok ev' -> ev = ev'
        | Error e -> QCheck2.Test.fail_reportf "of_json: %s" e);
    qprop "JSONL line round trip" ~print:(Format.asprintf "%a" E.pp) event_gen
      (fun ev ->
        (* the full trace pipeline: event -> line -> parse -> event *)
        let line = J.to_string (E.to_json ev) in
        (not (String.contains line '\n'))
        &&
        match Result.bind (J.of_string line) E.of_json with
        | Ok ev' -> ev = ev'
        | Error e -> QCheck2.Test.fail_reportf "round trip: %s" e);
    unit "kind tags are kebab-case and distinct" (fun () ->
        let kinds =
          List.map E.kind
            [
              E.Exec_completed { worker = 0; fresh = false };
              E.New_branch_side { pc = 0; taken = true; covered = 1 };
              E.Seed_enqueued { txs = 1; queue_len = 1 };
              E.Mask_updated { tx_index = 0; probes = 0 };
              E.Energy_reassigned { energy = 1 };
              E.Finding_raised { cls = "RE"; pc = 0; tx_index = 0 };
              E.Pool_steal { thief = 1; victim = 0 };
              E.Batch_merge { round = 1; execs = 1; covered = 1 };
              E.Checkpoint_written { execs = 1; path = "ck/a.json" };
              E.Checkpoint_loaded { execs = 1; path = "ck/a.json" };
              E.Fleet_shard_leased { shard = 0; worker = 1 };
              E.Fleet_shard_done { shard = 0; contracts = 8; failed = 1 };
              E.Fleet_lease_reassigned { shard = 0; worker = 1 };
            ]
        in
        Alcotest.(check int) "distinct" 13 (List.length (List.sort_uniq compare kinds));
        List.iter
          (fun k ->
            Alcotest.(check bool) (k ^ " is kebab") true
              (String.for_all
                 (fun c -> (c >= 'a' && c <= 'z') || c = '-')
                 k))
          kinds);
  ]

(* ------------------------------------------------------------------ *)
(* Ring buffer                                                         *)

let ring_tests =
  [
    unit "a raising sink does not wedge the bus" (fun () ->
        let raised = Atomic.make false in
        let sink =
          {
            Telemetry.Sink.on_event =
              (fun _ -> if not (Atomic.exchange raised true) then failwith "sink");
            on_finalize = ignore;
          }
        in
        let bus = Telemetry.Bus.create [ sink ] in
        let ev = E.Energy_reassigned { energy = 1 } in
        Alcotest.check_raises "first emit raises" (Failure "sink") (fun () ->
            Telemetry.Bus.emit bus ev);
        (* a bus left locked would block this emit forever: poll instead
           of joining so the failure is reported rather than hung *)
        let emitted = Atomic.make false in
        let d =
          Domain.spawn (fun () ->
              Telemetry.Bus.emit bus ev;
              Atomic.set emitted true)
        in
        let deadline = Unix.gettimeofday () +. 10.0 in
        while (not (Atomic.get emitted)) && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.005
        done;
        if Atomic.get emitted then Domain.join d
        else Alcotest.fail "emit from another domain blocked on the bus lock");
    unit "capacity bound and oldest-first drop" (fun () ->
        let r = Telemetry.Sink.ring ~capacity:5 in
        let sink = Telemetry.Sink.ring_sink r in
        for i = 1 to 12 do
          sink.on_event (E.Energy_reassigned { energy = i })
        done;
        let kept = Telemetry.Sink.ring_contents r in
        Alcotest.(check int) "at most capacity" 5 (List.length kept);
        Alcotest.(check int) "dropped count" 7 (Telemetry.Sink.ring_dropped r);
        Alcotest.(check (list int)) "newest survive" [ 8; 9; 10; 11; 12 ]
          (List.map
             (function E.Energy_reassigned { energy } -> energy | _ -> -1)
             kept));
    unit "empty ring" (fun () ->
        let r = Telemetry.Sink.ring ~capacity:4 in
        Alcotest.(check int) "no contents" 0
          (List.length (Telemetry.Sink.ring_contents r));
        Alcotest.(check int) "no drops" 0 (Telemetry.Sink.ring_dropped r));
  ]

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)

let metrics_tests =
  [
    unit "counter basics and idempotent registration" (fun () ->
        let m = M.create () in
        let c = M.counter m "c_total" ~help:"h" in
        M.incr c;
        M.add c 4;
        Alcotest.(check int) "value" 5 (M.value c);
        let c' = M.counter m "c_total" in
        M.incr c';
        Alcotest.(check int) "same metric" 6 (M.value c);
        (match M.add c (-1) with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.fail "negative add should raise");
        match M.gauge m "c_total" with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "kind mismatch should raise");
    unit "gauge goes both ways" (fun () ->
        let m = M.create () in
        let g = M.gauge m "g" in
        M.set g 3.5;
        M.set g 1.25;
        Alcotest.(check (float 0.0)) "last write wins" 1.25 (M.gauge_value g));
    unit "histogram buckets, count and sum" (fun () ->
        let m = M.create () in
        let h = M.histogram m "h" ~buckets:[ 1.0; 10.0 ] in
        List.iter (M.observe h) [ 0.5; 5.0; 50.0 ];
        Alcotest.(check int) "count" 3 (M.histogram_count h);
        Alcotest.(check (float 1e-9)) "sum" 55.5 (M.histogram_sum h);
        match M.histogram m "bad" ~buckets:[ 2.0; 2.0 ] with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "non-increasing buckets should raise");
    unit "N domains sum exactly" (fun () ->
        let m = M.create () in
        let n_domains = 4 and per_domain = 25_000 in
        let c = M.counter m "contended_total" in
        let g = M.gauge m "contended_gauge" in
        let h = M.histogram m "contended_hist" ~buckets:[ 0.5 ] in
        let body () =
          for i = 1 to per_domain do
            M.incr c;
            M.set g (float_of_int i);
            M.observe h (if i land 1 = 0 then 0.25 else 0.75)
          done
        in
        let domains = List.init n_domains (fun _ -> Domain.spawn body) in
        List.iter Domain.join domains;
        Alcotest.(check int) "counter exact" (n_domains * per_domain) (M.value c);
        Alcotest.(check int) "histogram count exact" (n_domains * per_domain)
          (M.histogram_count h);
        Alcotest.(check (float 1e-6)) "histogram sum exact"
          (float_of_int (n_domains * per_domain) *. 0.5)
          (M.histogram_sum h);
        Alcotest.(check (float 0.0)) "gauge holds a written value"
          (float_of_int per_domain) (M.gauge_value g));
    unit "prometheus dump shape" (fun () ->
        let m = M.create () in
        M.incr (M.counter m "z_total" ~help:"last");
        M.set (M.gauge m "a_gauge" ~help:"first") 2.0;
        List.iter (M.observe (M.histogram m "h" ~buckets:[ 1.0 ])) [ 0.5; 3.0 ];
        let dump = M.dump m in
        let find_sub s =
          let n = String.length dump and k = String.length s in
          let rec go i =
            if i + k > n then None
            else if String.sub dump i k = s then Some i
            else go (i + 1)
          in
          go 0
        in
        let has s = find_sub s <> None in
        List.iter
          (fun needle -> Alcotest.(check bool) needle true (has needle))
          [
            "# HELP a_gauge first";
            "# TYPE a_gauge gauge";
            "# TYPE h histogram";
            "h_bucket{le=\"1\"} 1";
            "h_bucket{le=\"+Inf\"} 2";
            "h_sum 3.5";
            "h_count 2";
            "# TYPE z_total counter";
            "z_total 1";
          ];
        (* deterministic: sorted by name *)
        let pos s = Option.value ~default:(-1) (find_sub s) in
        Alcotest.(check bool) "sorted by name" true
          (pos "a_gauge" < pos "h_bucket" && pos "h_bucket" < pos "z_total"));
  ]

(* ------------------------------------------------------------------ *)
(* Campaign smoke: the trace agrees with the report                    *)

let count_kind events k =
  List.length (List.filter (fun e -> E.kind e = k) events)

let smoke_config budget jobs =
  { Mufuzz.Config.default with max_executions = budget; jobs }

let campaign_tests =
  [
    unit "sequential trace matches the report" (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.crowdsale in
        let r = Telemetry.Sink.ring ~capacity:100_000 in
        let metrics = M.create () in
        let report =
          Mufuzz.Campaign.run ~config:(smoke_config 150 1)
            ~sinks:[ Telemetry.Sink.ring_sink r ] ~metrics c
        in
        let events = Telemetry.Sink.ring_contents r in
        Alcotest.(check bool) "trace is non-empty" true (events <> []);
        Alcotest.(check int) "exec-completed = executions" report.executions
          (count_kind events "exec-completed");
        Alcotest.(check int) "new-branch-side = covered sides"
          report.covered_branches
          (count_kind events "new-branch-side");
        Alcotest.(check int) "metrics agree with the report" report.executions
          (M.value (M.counter metrics "mufuzz_executions_total"));
        Alcotest.(check int) "findings counter agrees"
          (List.length report.findings)
          (M.value (M.counter metrics "mufuzz_findings_total")));
    unit "parallel trace matches the report (jobs=2)" (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.crowdsale in
        let r = Telemetry.Sink.ring ~capacity:100_000 in
        let metrics = M.create () in
        let report =
          Mufuzz.Campaign.run_parallel ~config:(smoke_config 300 2)
            ~sinks:[ Telemetry.Sink.ring_sink r ] ~metrics c
        in
        let events = Telemetry.Sink.ring_contents r in
        Alcotest.(check int) "exec-completed = executions" report.executions
          (count_kind events "exec-completed");
        Alcotest.(check int) "new-branch-side = covered sides"
          report.covered_branches
          (count_kind events "new-branch-side");
        Alcotest.(check bool) "at least one batch-merge" true
          (count_kind events "batch-merge" >= 1);
        Alcotest.(check int) "metrics agree with the report" report.executions
          (M.value (M.counter metrics "mufuzz_executions_total")));
    unit "telemetry does not perturb the campaign" (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.crowdsale in
        let quiet = Mufuzz.Campaign.run ~config:(smoke_config 150 1) c in
        let r = Telemetry.Sink.ring ~capacity:100_000 in
        let traced =
          Mufuzz.Campaign.run ~config:(smoke_config 150 1)
            ~sinks:[ Telemetry.Sink.ring_sink r ] c
        in
        Alcotest.(check string) "identical report text"
          (Mufuzz.Report.to_text { quiet with wall_seconds = 0.0 })
          (Mufuzz.Report.to_text { traced with wall_seconds = 0.0 }));
    unit "report JSON parses and carries the headline numbers" (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.crowdsale in
        let report = Mufuzz.Campaign.run ~config:(smoke_config 120 1) c in
        match J.of_string (Mufuzz.Report.to_json_string report) with
        | Error e -> Alcotest.fail e
        | Ok j ->
          let int_field name =
            match Option.bind (J.member name j) J.to_int with
            | Some v -> v
            | None -> Alcotest.failf "missing int field %s" name
          in
          Alcotest.(check int) "executions" report.executions
            (int_field "executions");
          Alcotest.(check int) "covered_branches" report.covered_branches
            (int_field "covered_branches");
          Alcotest.(check bool) "findings list length" true
            (match Option.bind (J.member "findings" j) J.to_list with
            | Some l -> List.length l = List.length report.findings
            | None -> false);
          Alcotest.(check bool) "covered list length" true
            (match Option.bind (J.member "covered" j) J.to_list with
            | Some l -> List.length l = report.covered_branches
            | None -> false));
    unit "jsonl sink writes parseable lines" (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.crowdsale in
        let path = Filename.temp_file "trace" ".jsonl" in
        let config = { (smoke_config 100 1) with trace_path = Some path } in
        let report = Mufuzz.Campaign.run ~config c in
        let ic = open_in path in
        let lines = ref [] in
        (try
           while true do
             lines := input_line ic :: !lines
           done
         with End_of_file -> close_in ic);
        Sys.remove path;
        let events =
          List.rev_map
            (fun line ->
              match Result.bind (J.of_string line) E.of_json with
              | Ok ev -> ev
              | Error e -> Alcotest.failf "bad trace line %S: %s" line e)
            !lines
        in
        Alcotest.(check int) "exec-completed = executions" report.executions
          (count_kind events "exec-completed"));
  ]

let suite =
  [
    ("telemetry: json", json_tests);
    ("telemetry: decode", decode_tests);
    ("telemetry: events", event_tests);
    ("telemetry: ring", ring_tests);
    ("telemetry: metrics", metrics_tests);
    ("telemetry: campaign", campaign_tests);
  ]
