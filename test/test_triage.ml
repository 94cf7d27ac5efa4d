(* Triage layer: dedup keys, the delta-debugging shrinker, repro
   artifacts and the self-replaying regression corpus.

   The corpus tests read test/regressions/*.json (declared as dune deps,
   so they are visible inside the test sandbox). Every artifact there
   must replay — byte-identically twice — and be a shrinker fixpoint. *)

module O = Oracles.Oracle

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* Replace the first occurrence of [needle] in [hay] with [repl]. *)
let replace_first hay needle repl =
  let n = String.length needle and m = String.length hay in
  let rec find i = if i + n > m then None
    else if String.sub hay i n = needle then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> hay
  | Some i ->
    String.sub hay 0 i ^ repl ^ String.sub hay (i + n) (m - i - n)

let small_config =
  { Mufuzz.Config.default with max_executions = 400; rng_seed = 42L }

let campaign source =
  let c = Minisol.Contract.compile source in
  (c, Mufuzz.Campaign.run ~config:small_config c)

(* ---------------- dedup keys ---------------- *)

let key_tests =
  [
    Alcotest.test_case "class_of_string round-trips all classes" `Quick
      (fun () ->
        List.iter
          (fun cls ->
            match O.class_of_string (O.class_to_string cls) with
            | Some c -> Alcotest.(check bool) "same class" true (c = cls)
            | None -> Alcotest.fail "class_of_string returned None")
          O.all_classes;
        Alcotest.(check bool) "unknown rejected" true
          (O.class_of_string "XX" = None));
    Alcotest.test_case "path_hash is deterministic and path-sensitive" `Quick
      (fun () ->
        let h1 = O.path_hash [ "constructor"; "invest"; "withdraw" ] in
        let h2 = O.path_hash [ "constructor"; "invest"; "withdraw" ] in
        let h3 = O.path_hash [ "constructor"; "withdraw"; "invest" ] in
        Alcotest.(check string) "stable" h1 h2;
        Alcotest.(check bool) "order matters" true (h1 <> h3);
        Alcotest.(check int) "16 hex chars" 16 (String.length h1));
    Alcotest.test_case "key_of distinguishes pc and call path" `Quick
      (fun () ->
        let f pc = { O.cls = O.IO; pc; tx_index = 1; detail = "d" } in
        let ka = O.key_of ~call_path:[ "a" ] (f 10) in
        let kb = O.key_of ~call_path:[ "a" ] (f 11) in
        let kc = O.key_of ~call_path:[ "b" ] (f 10) in
        Alcotest.(check bool) "pc differs" true (O.compare_key ka kb <> 0);
        Alcotest.(check bool) "path differs" true (O.compare_key ka kc <> 0);
        Alcotest.(check int) "reflexive" 0
          (O.compare_key ka (O.key_of ~call_path:[ "a" ] (f 10))));
    Alcotest.test_case "key_to_string is class@pc/hash" `Quick (fun () ->
        let k =
          O.key_of ~call_path:[ "constructor"; "f" ]
            { O.cls = O.RE; pc = 42; tx_index = 0; detail = "" }
        in
        let s = O.key_to_string k in
        Alcotest.(check bool) "prefix" true
          (String.length s > 6 && String.sub s 0 6 = "RE@42/"));
    Alcotest.test_case "campaign reports sorted unique occurrence keys" `Quick
      (fun () ->
        let _, r = campaign Corpus.Examples.crowdsale in
        Alcotest.(check bool) "has occurrences" true (r.occurrences <> []);
        Alcotest.(check bool) "counts positive" true
          (List.for_all (fun (_, n) -> n > 0) r.occurrences);
        let keys = List.map fst r.occurrences in
        Alcotest.(check bool) "strictly sorted (hence unique)" true
          (List.for_all2
             (fun a b -> O.compare_key a b < 0)
             (List.filteri (fun i _ -> i < List.length keys - 1) keys)
             (List.tl keys));
        (* every occurrence count covers at least its first witness *)
        Alcotest.(check bool) "at least as many occurrences as findings" true
          (List.fold_left (fun acc (_, n) -> acc + n) 0 r.occurrences
          >= List.length r.findings));
  ]

(* Occurrence counts under the dedup keys of one fixed campaign,
   sequential and on two domains (the two places a campaign counts
   occurrences). Pinned so that caching the call-path hash cannot shift
   a key string or a count. *)
let occurrence_golden =
  [
    ( 1,
      [ ("IO@124/1608ea5cd21af1a1", 11); ("IO@124/57e582ab9d6a0030", 7);
        ("IO@124/5984ad09d79852af", 347); ("IO@124/7802d2e0d04698be", 2);
        ("IO@148/1608ea5cd21af1a1", 1); ("IO@148/57e582ab9d6a0030", 4);
        ("IO@148/5984ad09d79852af", 241); ("IO@148/7802d2e0d04698be", 2) ] );
    ( 2,
      [ ("IO@124/1608ea5cd21af1a1", 12); ("IO@124/57e582ab9d6a0030", 12);
        ("IO@124/5984ad09d79852af", 339); ("IO@124/7802d2e0d04698be", 3);
        ("IO@148/1608ea5cd21af1a1", 2); ("IO@148/57e582ab9d6a0030", 3);
        ("IO@148/5984ad09d79852af", 82); ("IO@148/7802d2e0d04698be", 3) ] );
  ]

let occurrence_tests =
  List.map
    (fun (jobs, expected) ->
      Alcotest.test_case
        (Printf.sprintf "token occurrence keys pinned at jobs=%d" jobs)
        `Quick
        (fun () ->
          let c = Minisol.Contract.compile Corpus.Examples.token_overflow in
          let r =
            Mufuzz.Campaign.run_parallel
              ~config:{ Mufuzz.Config.default with max_executions = 400; jobs }
              c
          in
          Alcotest.(check (list (pair string int)))
            "keys and counts" expected
            (List.map (fun (k, n) -> (O.key_to_string k, n)) r.occurrences)))
    occurrence_golden
  @ [
      (* every example, so the pin spans many call paths per contract,
         several raising transactions per execution, and PiggyBank's
         whole-contract EF (the empty path) *)
      Alcotest.test_case "every example's occurrence keys pinned" `Quick (fun () ->
          let lines =
            List.map
              (fun (name, src) ->
                let r =
                  Mufuzz.Campaign.run_parallel
                    ~config:{ Mufuzz.Config.default with max_executions = 300; jobs = 1 }
                    (Minisol.Contract.compile src)
                in
                name ^ ": "
                ^ String.concat " "
                    (List.map
                       (fun (k, n) -> Printf.sprintf "%s:%d" (O.key_to_string k) n)
                       r.occurrences))
              Corpus.Examples.all
          in
          Alcotest.(check string) "digest"
            "3af0cb11072dae140367e31ad1f242f210308f3eca90bc1d9c9f4dc9b2c7589f"
            (Crypto.Keccak.hash_hex (String.concat "\n" lines)));
      (* EF is reported after the raising transactions' alarms and still
         takes the empty path *)
      Alcotest.test_case "EF after per-transaction alarms keeps the empty path" `Quick
        (fun () ->
          let src =
            {|
contract TimedPiggy {
  uint256 total;
  uint256 bonus;

  function save() public payable {
    total += msg.value;
    if (block.timestamp % 2 == 0) {
      bonus = bonus + 1;
    }
  }

  function peek() public returns (uint256) {
    return total;
  }
}
|}
          in
          let r =
            Mufuzz.Campaign.run_parallel
              ~config:{ Mufuzz.Config.default with max_executions = 300; jobs = 1 }
              (Minisol.Contract.compile src)
          in
          Alcotest.(check (list (pair string int)))
            "keys and counts"
            [ ("BD@81/04832841989ca80a", 279); ("BD@81/322c0a129aef27d1", 7);
              ("BD@81/55bbbb16c676be03", 8); ("BD@81/f2a81c2593776b8f", 2);
              ("BD@84/04832841989ca80a", 279); ("BD@84/322c0a129aef27d1", 7);
              ("BD@84/55bbbb16c676be03", 8); ("BD@84/f2a81c2593776b8f", 2);
              ("EF@-1/c5d2460186f7233c", 161) ]
            (List.map (fun (k, n) -> (O.key_to_string k, n)) r.occurrences));
    ]

(* ---------------- shrinker ---------------- *)

let shrink_target (c : Minisol.Contract.t) =
  Triage.Shrink.target_of_config small_config c

let shrink_tests =
  let oracle_preserving source name =
    Alcotest.test_case
      (Printf.sprintf "shrink preserves oracle on %s" name)
      `Slow
      (fun () ->
        let c, r = campaign source in
        Alcotest.(check bool) "campaign found bugs" true (r.witness_seeds <> []);
        let target = shrink_target c in
        List.iter
          (fun ((f : O.finding), seed) ->
            let s = Triage.Shrink.shrink ~target f seed in
            Alcotest.(check bool) "input reproduced" true s.reproduced;
            Alcotest.(check bool) "no longer than input" true
              (List.length s.seed.txs <= List.length seed.txs);
            (* the shrunk sequence still raises the same (class, pc) *)
            (match Triage.Shrink.reraise ~target f s.seed with
            | Some g ->
              Alcotest.(check bool) "same class" true (g.cls = f.cls);
              Alcotest.(check int) "same pc" f.pc g.pc
            | None -> Alcotest.fail "shrunk sequence lost the finding");
            (* idempotence: shrinking the shrunk seed changes nothing *)
            let s2 = Triage.Shrink.shrink ~target f s.seed in
            Alcotest.(check bool) "fixpoint" true (s2.seed = s.seed))
          r.witness_seeds)
  in
  [
    oracle_preserving Corpus.Examples.crowdsale "crowdsale";
    oracle_preserving Corpus.Examples.simple_dao "simple_dao";
    oracle_preserving Corpus.Examples.token_overflow "token_overflow";
    Alcotest.test_case "non-reproducing seed returned unchanged" `Quick
      (fun () ->
        let c, r = campaign Corpus.Examples.crowdsale in
        match r.witness_seeds with
        | [] -> Alcotest.fail "no witnesses"
        | (_, seed) :: _ ->
          let bogus = { O.cls = O.US; pc = 999999; tx_index = 0; detail = "" } in
          let s = Triage.Shrink.shrink ~target:(shrink_target c) bogus seed in
          Alcotest.(check bool) "not reproduced" false s.reproduced;
          Alcotest.(check bool) "seed unchanged" true (s.seed = seed));
    Alcotest.test_case "budget exhaustion still returns a reproducer" `Quick
      (fun () ->
        let c, r = campaign Corpus.Examples.crowdsale in
        match r.witness_seeds with
        | [] -> Alcotest.fail "no witnesses"
        | (f, seed) :: _ ->
          let target = shrink_target c in
          let s = Triage.Shrink.shrink ~target ~max_execs:3 f seed in
          Alcotest.(check bool) "reproduced" true s.reproduced;
          (match Triage.Shrink.reraise ~target f s.seed with
          | Some _ -> ()
          | None -> Alcotest.fail "budget-limited shrink lost the oracle"));
    Alcotest.test_case "crowdsale witness shrinks to its pinned reproducer"
      `Quick
      (fun () ->
        let c, r = campaign Corpus.Examples.crowdsale in
        match r.witness_seeds with
        | [] -> Alcotest.fail "no witnesses"
        | (f, seed) :: _ ->
          let s = Triage.Shrink.shrink ~target:(shrink_target c) f seed in
          Alcotest.(check string) "shrunk seed"
            "[constructor() by s2 -> invest(31) by s1 -> \
             invest(115792089237316195423570985008687907853269984665640564039457584007913129639935) \
             by s0]"
            (Mufuzz.Seed.show s.seed);
          Alcotest.(check int) "executions" 94 s.execs);
  ]

(* The CLI's [fuzz --minimize] prints these shrinks. *)
let minimize_tests =
  let us_witness () =
    let c = Minisol.Contract.compile Corpus.Examples.suicidal in
    let config = { Mufuzz.Config.default with max_executions = 500 } in
    let r = Mufuzz.Campaign.run ~config c in
    match
      List.find_opt (fun ((f : O.finding), _) -> f.cls = O.US) r.witness_seeds
    with
    | None -> Alcotest.fail "expected a US witness"
    | Some (f, seed) ->
      ( { Triage.Shrink.contract = c; gas = config.gas_per_tx;
          n_senders = config.n_senders; attacker = true },
        f, seed )
  in
  [
    Alcotest.test_case "minimized witness still reproduces and is no longer"
      `Quick (fun () ->
        let target, f, seed = us_witness () in
        let s = Triage.Shrink.shrink ~target f seed in
        Alcotest.(check bool) "reproduces" true
          (Triage.Shrink.reraise ~target f s.seed <> None);
        Alcotest.(check bool) "not longer" true
          (List.length s.seed.txs <= List.length seed.txs));
    Alcotest.test_case "minimal US witness is constructor + destroy" `Quick
      (fun () ->
        let target, f, seed = us_witness () in
        let s = Triage.Shrink.shrink ~target f seed in
        (* destroy() alone triggers it; constructor may or may not
           survive shrinking depending on order, so allow 1-2 txs *)
        Alcotest.(check bool) "at most 2 txs" true (List.length s.seed.txs <= 2);
        Alcotest.(check bool) "contains destroy" true
          (List.exists
             (fun (tx : Mufuzz.Seed.tx) -> tx.fn.Abi.name = "destroy")
             s.seed.txs));
    Alcotest.test_case "non-reproducing seed returned unchanged" `Quick
      (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.crowdsale in
        let rng = Util.Rng.create 3L in
        let seed =
          Mufuzz.Seed.of_sequence rng ~n_senders:3 c.abi
            [ "constructor"; "refund" ]
        in
        let fake = { O.cls = O.US; pc = 9999; tx_index = 0; detail = "" } in
        let s =
          Triage.Shrink.shrink
            ~target:
              { Triage.Shrink.contract = c; gas = 1_000_000; n_senders = 3;
                attacker = true }
            fake seed
        in
        Alcotest.(check int) "unchanged" (List.length seed.txs)
          (List.length s.seed.txs));
  ]

(* ---------------- artifacts ---------------- *)

let first_artifact () =
  let c, r = campaign Corpus.Examples.crowdsale in
  match r.witness_seeds with
  | [] -> Alcotest.fail "no witnesses"
  | (f, seed) :: _ ->
    Triage.Artifact.make ~contract:c ~gas_per_tx:small_config.gas_per_tx
      ~n_senders:small_config.n_senders
      ~attacker:small_config.attacker_enabled ~finding:f ~seed

let artifact_tests =
  [
    Alcotest.test_case "to_string/of_string round-trips" `Quick (fun () ->
        let a = first_artifact () in
        let s = Triage.Artifact.to_string a in
        match Triage.Artifact.of_string s with
        | Error e -> Alcotest.fail e
        | Ok b ->
          Alcotest.(check string) "byte-identical re-render" s
            (Triage.Artifact.to_string b);
          Alcotest.(check string) "contract name" a.contract.name
            b.contract.name;
          Alcotest.(check int) "pc" a.finding.pc b.finding.pc;
          Alcotest.(check bool) "class" true (a.finding.cls = b.finding.cls);
          Alcotest.(check string) "path hash" a.path_hash b.path_hash;
          Alcotest.(check int) "tx count" (List.length a.seed.txs)
            (List.length b.seed.txs));
    Alcotest.test_case "save/load round-trips through a file" `Quick (fun () ->
        let a = first_artifact () in
        let path = Filename.temp_file "mufuzz_artifact" ".json" in
        Triage.Artifact.save path a;
        (match Triage.Artifact.load path with
        | Error e -> Alcotest.fail e
        | Ok b ->
          Alcotest.(check string) "same render" (Triage.Artifact.to_string a)
            (Triage.Artifact.to_string b));
        Sys.remove path);
    Alcotest.test_case "load on a directory is an error" `Quick (fun () ->
        Util.Fileio.with_temp_dir ~prefix:"artifact-dir" (fun dir ->
            match Triage.Artifact.load dir with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail "a directory loaded as an artifact"));
    Alcotest.test_case "tampered source hash is rejected" `Quick (fun () ->
        let a = first_artifact () in
        let s = Triage.Artifact.to_string a in
        let h = Triage.Artifact.source_hash a.contract in
        let flipped =
          (if h.[0] = '0' then "1" else "0") ^ String.sub h 1 (String.length h - 1)
        in
        let tampered = replace_first s h flipped in
        match Triage.Artifact.of_string tampered with
        | Ok _ -> Alcotest.fail "accepted tampered source hash"
        | Error _ -> ());
    Alcotest.test_case "wrong format tag is rejected" `Quick (fun () ->
        match Triage.Artifact.of_string "{\"format\": \"nope\"}" with
        | Ok _ -> Alcotest.fail "accepted bad format"
        | Error _ -> ());
    Alcotest.test_case "file_name is canonical and filesystem-safe" `Quick
      (fun () ->
        let a = first_artifact () in
        let n = Triage.Artifact.file_name a in
        Alcotest.(check bool) "json suffix" true (Filename.check_suffix n ".json");
        Alcotest.(check bool) "starts with contract name" true
          (String.length n > String.length a.contract.name
          && String.sub n 0 (String.length a.contract.name) = a.contract.name);
        String.iter
          (fun ch ->
            Alcotest.(check bool) "safe char" true
              (ch <> '/' && ch <> '\\' && ch <> ' '))
          n);
    Alcotest.test_case "artifact key matches the campaign's dedup key" `Quick
      (fun () ->
        let a = first_artifact () in
        let k = Triage.Artifact.key a in
        Alcotest.(check bool) "class" true (k.k_cls = a.finding.cls);
        Alcotest.(check int) "pc" a.finding.pc k.k_pc;
        Alcotest.(check string) "path hash" a.path_hash k.k_path);
  ]

(* ---------------- regression corpus ---------------- *)

let regression_files () =
  (* cwd is _build/default/test under `dune runtest`, the project root
     under `dune exec test/test_main.exe` *)
  let dir =
    if Sys.file_exists "regressions" then "regressions" else "test/regressions"
  in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort compare
  |> List.map (Filename.concat dir)

let regression_tests =
  [
    Alcotest.test_case "corpus is non-empty and covers all four contracts"
      `Quick
      (fun () ->
        let files = regression_files () in
        Alcotest.(check bool) "several artifacts" true (List.length files >= 4);
        let prefixes = [ "Crowdsale"; "Game"; "SimpleDAO"; "Token" ] in
        List.iter
          (fun p ->
            Alcotest.(check bool) (p ^ " covered") true
              (List.exists
                 (fun f ->
                   let b = Filename.basename f in
                   String.length b > String.length p
                   && String.sub b 0 (String.length p) = p)
                 files))
          prefixes);
    Alcotest.test_case "every regression artifact re-saves byte-identically"
      `Quick
      (fun () ->
        List.iter
          (fun path ->
            match Triage.Artifact.load path with
            | Error e -> Alcotest.fail (path ^ ": " ^ e)
            | Ok a ->
              Alcotest.(check string) path (Util.Fileio.read_file path)
                (Triage.Artifact.to_string a ^ "\n"))
          (regression_files ()));
    Alcotest.test_case "every regression artifact replays (twice, identically)"
      `Slow
      (fun () ->
        List.iter
          (fun path ->
            match Triage.Artifact.load path with
            | Error e -> Alcotest.fail (path ^ ": " ^ e)
            | Ok a ->
              let o1 = Triage.Repro.replay a in
              let o2 = Triage.Repro.replay a in
              Alcotest.(check bool) (path ^ " reproduces") true o1.ok;
              Alcotest.(check string) (path ^ " deterministic")
                (Triage.Repro.describe a o1)
                (Triage.Repro.describe a o2))
          (regression_files ()));
    Alcotest.test_case "every regression artifact is a shrinker fixpoint"
      `Slow
      (fun () ->
        List.iter
          (fun path ->
            match Triage.Artifact.load path with
            | Error e -> Alcotest.fail (path ^ ": " ^ e)
            | Ok a -> (
              match Triage.Repro.shrink a with
              | Error e -> Alcotest.fail (path ^ ": " ^ e)
              | Ok (b, _) ->
                Alcotest.(check string) (path ^ " already minimal")
                  (Triage.Artifact.to_string a)
                  (Triage.Artifact.to_string b)))
          (regression_files ()));
  ]

(* ---------------- report plumbing ---------------- *)

let report_tests =
  [
    Alcotest.test_case "report JSON carries skipped corpus blocks" `Quick
      (fun () ->
        let _, r = campaign Corpus.Examples.crowdsale in
        let r = { r with corpus_skipped = [ (3, "bad hex") ] } in
        let json = Mufuzz.Report.to_json_string r in
        Alcotest.(check bool) "has skipped field" true
          (contains json "\"skipped\"");
        Alcotest.(check bool) "has reason" true (contains json "bad hex"));
    Alcotest.test_case "report JSON carries unique findings" `Quick (fun () ->
        let _, r = campaign Corpus.Examples.crowdsale in
        let json = Mufuzz.Report.to_json_string r in
        Alcotest.(check bool) "has unique_findings" true
          (contains json "\"unique_findings\"");
        Alcotest.(check bool) "has path_hash" true
          (contains json "\"path_hash\""));
  ]

let suite =
  [
    ("triage.key", key_tests);
    ("triage.occurrences", occurrence_tests);
    ("triage.shrink", shrink_tests);
    ("triage.minimize", minimize_tests);
    ("triage.artifact", artifact_tests);
    ("triage.regressions", regression_tests);
    ("triage.report", report_tests);
  ]
