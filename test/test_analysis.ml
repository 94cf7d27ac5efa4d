(* State-variable analysis, sequence derivation, CFG reachability and
   Algorithm 3 branch weighting. *)

module SV = Analysis.Statevars
module SS = Analysis.Statevars.StringSet

let unit name f = Alcotest.test_case name `Quick f

let info_of src = SV.analyze (Minisol.Parser.parse src)

let set_list s = SS.elements s

let statevars_tests =
  [
    unit "crowdsale read/write sets match the paper's Fig. 3" (fun () ->
        let info = info_of Corpus.Examples.crowdsale in
        let invest = Option.get (SV.info info "invest") in
        Alcotest.(check (list string)) "invest writes"
          [ "invested"; "invests"; "phase" ] (set_list invest.writes);
        Alcotest.(check (list string)) "invest reads"
          [ "goal"; "invested"; "invests" ] (set_list invest.reads);
        Alcotest.(check (list string)) "invest RAW"
          [ "invested"; "invests" ] (set_list invest.raw_vars);
        let refund = Option.get (SV.info info "refund") in
        Alcotest.(check (list string)) "refund reads"
          [ "invests"; "phase" ] (set_list refund.reads);
        let withdraw = Option.get (SV.info info "withdraw") in
        Alcotest.(check (list string)) "withdraw writes" [] (set_list withdraw.writes));
    unit "locals and params shadow state vars" (fun () ->
        let info =
          info_of
            {|contract S { uint256 x; uint256 y;
               function f(uint256 x) public { uint256 y = 1; y = x + y; } }|}
        in
        let f = Option.get (SV.info info "f") in
        Alcotest.(check (list string)) "no state reads" [] (set_list f.reads);
        Alcotest.(check (list string)) "no state writes" [] (set_list f.writes));
    unit "branch reads recorded from all condition forms" (fun () ->
        let info =
          info_of
            {|contract B { uint256 a; uint256 b; uint256 c; uint256 d;
               function f() public {
                 if (a > 0) { a = 1; }
                 while (b > 0) { b = 0; }
                 require(c == 1);
                 for (uint256 i = 0; i < d; i += 1) { a = i; }
               } }|}
        in
        let f = Option.get (SV.info info "f") in
        Alcotest.(check (list string)) "branch reads" [ "a"; "b"; "c"; "d" ]
          (set_list f.branch_reads));
    unit "modifier body counts toward the function" (fun () ->
        let info =
          info_of
            {|contract M { address owner; uint256 x;
               modifier onlyOwner() { require(msg.sender == owner); _; }
               function f() public onlyOwner { x = 1; } }|}
        in
        let f = Option.get (SV.info info "f") in
        Alcotest.(check bool) "reads owner" true (SS.mem "owner" f.reads));
    unit "should_repeat requires RAW + branch read" (fun () ->
        let info = info_of Corpus.Examples.crowdsale in
        let invest = Option.get (SV.info info "invest") in
        let refund = Option.get (SV.info info "refund") in
        let withdraw = Option.get (SV.info info "withdraw") in
        Alcotest.(check bool) "invest repeats" true (SV.should_repeat info invest);
        (* refund has RAW on invests but invests is never a branch read *)
        Alcotest.(check bool) "refund does not" false (SV.should_repeat info refund);
        Alcotest.(check bool) "withdraw does not" false
          (SV.should_repeat info withdraw));
  ]

let sequence_tests =
  [
    unit "crowdsale base sequence is writer-before-reader" (fun () ->
        let info = info_of Corpus.Examples.crowdsale in
        Alcotest.(check (list string)) "base" [ "invest"; "refund"; "withdraw" ]
          (Analysis.Sequence.derive_base info));
    unit "crowdsale mutated sequence repeats invest before withdraw" (fun () ->
        let info = info_of Corpus.Examples.crowdsale in
        Alcotest.(check (list string)) "mutated"
          [ "invest"; "refund"; "invest"; "withdraw" ]
          (Analysis.Sequence.derive info));
    unit "repeat_mutation is idempotent" (fun () ->
        let info = info_of Corpus.Examples.crowdsale in
        let once = Analysis.Sequence.derive info in
        Alcotest.(check (list string)) "stable" once
          (Analysis.Sequence.repeat_mutation info once));
    unit "stateless functions keep declaration order at the tail" (fun () ->
        let info =
          info_of
            {|contract T { uint256 x;
               function pure1(uint256 a) public returns (uint256) { return a; }
               function writer() public { x = 1; }
               function reader() public { require(x == 1); x = x + 1; } }|}
        in
        let seq = Analysis.Sequence.derive_base info in
        Alcotest.(check (list string)) "order" [ "writer"; "reader"; "pure1" ] seq);
    unit "cyclic dependencies still terminate" (fun () ->
        let info =
          info_of
            {|contract C { uint256 a; uint256 b;
               function f() public { a = b; }
               function g() public { b = a; } }|}
        in
        Alcotest.(check int) "both present" 2
          (List.length (Analysis.Sequence.derive_base info)));
    unit "random sequence is a permutation" (fun () ->
        let info = info_of Corpus.Examples.crowdsale in
        let rng = Util.Rng.create 5L in
        let seq = Analysis.Sequence.random_sequence rng info in
        Alcotest.(check (list string)) "same names"
          [ "invest"; "refund"; "withdraw" ]
          (List.sort compare seq));
    unit "dependency edges include phase write->read" (fun () ->
        let info = info_of Corpus.Examples.crowdsale in
        let edges = Analysis.Sequence.dependency_edges info in
        Alcotest.(check bool) "invest->withdraw via phase" true
          (List.mem ("invest", "withdraw", "phase") edges));
  ]

let cfg_tests =
  [
    unit "branch points found" (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.crowdsale in
        let cfg = Analysis.Cfg.build c.bytecode in
        Alcotest.(check bool) "has branches" true
          (List.length (Analysis.Cfg.branch_points cfg) > 0));
    unit "branch successors resolve statically" (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.crowdsale in
        let cfg = Analysis.Cfg.build c.bytecode in
        List.iter
          (fun pc ->
            (match Analysis.Cfg.branch_successor cfg pc ~taken:false with
            | Some f -> Alcotest.(check int) "fallthrough" (pc + 1) f
            | None -> Alcotest.fail "no fallthrough");
            match Analysis.Cfg.branch_successor cfg pc ~taken:true with
            | Some t ->
              Alcotest.(check bool) "target is JUMPDEST" true
                (c.bytecode.(t) = Evm.Opcode.JUMPDEST)
            | None -> Alcotest.fail "compiler always pushes the target")
          (Analysis.Cfg.branch_points cfg));
    unit "vulnerable pcs include CALL and TIMESTAMP" (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.timed_vault in
        let cfg = Analysis.Cfg.build c.bytecode in
        let classes = List.map snd (Analysis.Cfg.vulnerable_pcs cfg) in
        Alcotest.(check bool) "call" true (List.mem "call" classes);
        Alcotest.(check bool) "block-state" true (List.mem "block-state" classes));
    unit "reachability includes self and successors" (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.crowdsale in
        let cfg = Analysis.Cfg.build c.bytecode in
        let r = Analysis.Cfg.reachable cfg 0 in
        Alcotest.(check bool) "entry" true (Hashtbl.mem r 0);
        Alcotest.(check bool) "more than entry" true (Hashtbl.length r > 10));
  ]

let prefix_tests =
  [
    unit "nested scores increase along the path" (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.crowdsale in
        let cfg = Analysis.Cfg.build c.bytecode in
        let addr = Word.U256.of_int 0xC0 in
        let st = Minisol.Contract.deploy Evm.State.empty addr c in
        let invest = List.find (fun f -> f.Abi.name = "invest") c.abi in
        let _, trace =
          Evm.Interp.execute ~block:Evm.Interp.default_block ~state:st
            { caller = Word.U256.of_int 0xEE; origin = Word.U256.of_int 0xEE;
              callee = addr; value = Word.U256.zero;
              data = Abi.encode_call invest [ Abi.VUint (Word.U256.of_int 5) ];
              gas = 1_000_000 }
        in
        let weighted = Analysis.Prefix.analyze_trace cfg trace in
        Alcotest.(check bool) "non-empty" true (weighted <> []);
        List.iteri
          (fun i (wb : Analysis.Prefix.weighted_branch) ->
            Alcotest.(check int) "score = position" (i + 1) wb.nested_score)
          weighted);
    unit "vulnerable bonus raises the weight" (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.crowdsale in
        let cfg = Analysis.Cfg.build c.bytecode in
        let params = { Analysis.Prefix.nested_coeff = 1.0; vuln_bonus = 100.0 } in
        let addr = Word.U256.of_int 0xC0 in
        let st = Minisol.Contract.deploy Evm.State.empty addr c in
        let invest = List.find (fun f -> f.Abi.name = "invest") c.abi in
        let _, trace =
          Evm.Interp.execute ~block:Evm.Interp.default_block ~state:st
            { caller = Word.U256.of_int 0xEE; origin = Word.U256.of_int 0xEE;
              callee = addr; value = Word.U256.zero;
              data = Abi.encode_call invest [ Abi.VUint (Word.U256.of_int 5) ];
              gas = 1_000_000 }
        in
        let weighted = Analysis.Prefix.analyze_trace ~params cfg trace in
        Alcotest.(check bool) "some branch gets the bonus" true
          (List.exists
             (fun (wb : Analysis.Prefix.weighted_branch) -> wb.weight >= 100.0)
             weighted));
    unit "weight table keeps the max" (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.crowdsale in
        let cfg = Analysis.Cfg.build c.bytecode in
        let addr = Word.U256.of_int 0xC0 in
        let st = Minisol.Contract.deploy Evm.State.empty addr c in
        let invest = List.find (fun f -> f.Abi.name = "invest") c.abi in
        let run () =
          snd
            (Evm.Interp.execute ~block:Evm.Interp.default_block ~state:st
               { caller = Word.U256.of_int 0xEE; origin = Word.U256.of_int 0xEE;
                 callee = addr; value = Word.U256.zero;
                 data = Abi.encode_call invest [ Abi.VUint (Word.U256.of_int 5) ];
                 gas = 1_000_000 })
        in
        let tbl = Analysis.Prefix.weight_table cfg [ run (); run () ] in
        Alcotest.(check bool) "has entries" true (Hashtbl.length tbl > 0));
  ]

let suite =
  [
    ("analysis: state variables", statevars_tests);
    ("analysis: sequences", sequence_tests);
    ("analysis: cfg", cfg_tests);
    ("analysis: prefix weighting", prefix_tests);
  ]

let realistic_tests =
  [
    unit "auction: bid precedes close in the derived order" (fun () ->
        let info = info_of Corpus.Examples.auction in
        let seq = Analysis.Sequence.derive_base info in
        let idx name =
          let rec go i = function
            | [] -> Alcotest.failf "%s missing from %s" name (String.concat "," seq)
            | x :: _ when x = name -> i
            | _ :: rest -> go (i + 1) rest
          in
          go 0 seq
        in
        Alcotest.(check bool) "bid < close" true (idx "bid" < idx "close");
        Alcotest.(check bool) "bid < withdrawRefund" true
          (idx "bid" < idx "withdrawRefund"));
    unit "shared wallet: enroll precedes propose precedes approve" (fun () ->
        let info = info_of Corpus.Examples.wallet in
        let seq = Analysis.Sequence.derive_base info in
        let idx name =
          let rec go i = function
            | [] -> Alcotest.failf "%s missing" name
            | x :: _ when x = name -> i
            | _ :: rest -> go (i + 1) rest
          in
          go 0 seq
        in
        Alcotest.(check bool) "enroll < approve" true (idx "enroll" < idx "approve");
        Alcotest.(check bool) "propose < approve" true (idx "propose" < idx "approve"));
    unit "casino: buyChips precedes spin and cashOut" (fun () ->
        let info = info_of Corpus.Examples.casino in
        let seq = Analysis.Sequence.derive_base info in
        let idx name =
          let rec go i = function
            | [] -> Alcotest.failf "%s missing" name
            | x :: _ when x = name -> i
            | _ :: rest -> go (i + 1) rest
          in
          go 0 seq
        in
        Alcotest.(check bool) "buy < spin" true (idx "buyChips" < idx "spin");
        Alcotest.(check bool) "buy < cashOut" true (idx "buyChips" < idx "cashOut"));
    unit "vesting: fund precedes release" (fun () ->
        let info = info_of Corpus.Examples.vesting in
        match Analysis.Sequence.derive_base info with
        | "fund" :: rest ->
          Alcotest.(check bool) "release follows" true (List.mem "release" rest)
        | seq -> Alcotest.failf "unexpected order: %s" (String.concat "," seq));
  ]

let suite = suite @ [ ("analysis: realistic contracts", realistic_tests) ]

(* ---------------- static tables against reference models ---------- *)

(* A generated Small or Large contract's source, named by its seed. *)
let gen_generated =
  QCheck2.Gen.(
    let* large = bool in
    let* key = int_range 1 1_000_000 in
    let size = if large then Corpus.Generator.Large else Corpus.Generator.Small in
    let spec =
      Corpus.Generator.generate (Util.Rng.create (Int64.of_int key)) size
        ~name:(Printf.sprintf "G%d" key) ~bug_rate:0.3
    in
    return (spec.name, spec.source))

(* Checks [reaches_vulnerable] on every pc in [-1, n] against its old
   definition: some vulnerable pc is in the forward-reachable set. *)
let reaches_agrees (c : Minisol.Contract.t) =
  let cfg = Analysis.Cfg.build c.bytecode in
  let vuln = Analysis.Cfg.vulnerable_pcs cfg in
  let model pc =
    let set = Analysis.Cfg.reachable cfg pc in
    List.exists (fun (v, _) -> Hashtbl.mem set v) vuln
  in
  let n = Array.length c.bytecode in
  let rec check pc =
    pc > n || (Analysis.Cfg.reaches_vulnerable cfg pc = model pc && check (pc + 1))
  in
  check (-1)

(* The quadratic Kahn walk [Sequence.derive_base] replaced, kept as its
   reference: it rescans the edge list per node per step. *)
let derive_base_model (t : SV.t) =
  let stateful, stateless =
    List.partition (fun (i : SV.func_info) -> i.touches_state) t.funcs
  in
  let names = List.map (fun (i : SV.func_info) -> i.fn_name) stateful in
  let edges =
    List.filter
      (fun (w, r, _) -> List.mem w names && List.mem r names)
      (Analysis.Sequence.dependency_edges t)
  in
  let order = ref [] in
  let remaining = ref names in
  while !remaining <> [] do
    let degrees =
      List.map
        (fun n ->
          let d =
            List.length
              (List.sort_uniq compare
                 (List.filter_map
                    (fun (w, r, _) ->
                      if r = n && List.mem w !remaining && w <> n then Some w else None)
                    edges))
          in
          (n, d))
        !remaining
    in
    let next =
      match List.find_opt (fun (_, d) -> d = 0) degrees with
      | Some (n, _) -> n
      | None -> fst (List.hd degrees)
    in
    order := next :: !order;
    remaining := List.filter (fun n -> n <> next) !remaining
  done;
  List.rev !order @ List.map (fun (i : SV.func_info) -> i.fn_name) stateless

(* Synthetic analyses: dense read/write sets over a few variables give
   many cycles and ties; names may repeat. *)
let gen_statevars =
  QCheck2.Gen.(
    let vars = [ "a"; "b"; "c"; "d"; "e" ] in
    let gen_set =
      map (fun l -> SS.of_list l) (list_size (int_bound 3) (oneofl vars))
    in
    let gen_func =
      let* i = int_bound 11 in
      let* reads = gen_set in
      let* writes = gen_set in
      let* touches = frequency [ (4, return true); (1, return false) ] in
      return
        {
          SV.fn_name = Printf.sprintf "f%d" i;
          reads;
          writes;
          branch_reads = reads;
          raw_vars = SS.inter reads writes;
          touches_state = touches;
        }
    in
    let* funcs = list_size (int_bound 10) gen_func in
    return { SV.contract_name = "S"; funcs; all_branch_reads = SS.empty })

let print_statevars (t : SV.t) =
  String.concat "; "
    (List.map
       (fun (i : SV.func_info) ->
         Printf.sprintf "%s r{%s} w{%s}%s" i.fn_name
           (String.concat "," (SS.elements i.reads))
           (String.concat "," (SS.elements i.writes))
           (if i.touches_state then "" else " pure"))
       t.funcs)

let tables_agree src =
  let c = Minisol.Contract.compile src and info = info_of src in
  reaches_agrees c && Analysis.Sequence.derive_base info = derive_base_model info

let static_table_tests =
  [
    unit "static tables = reference models on every example" (fun () ->
        List.iter
          (fun (name, src) -> Alcotest.(check bool) name true (tables_agree src))
          Corpus.Examples.all);
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"static tables = reference models (generated)"
         ~count:12 ~print:fst gen_generated (fun (_, src) -> tables_agree src));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"derive_base = quadratic Kahn model (synthetic)"
         ~count:500 ~print:print_statevars gen_statevars (fun info ->
           Analysis.Sequence.derive_base info = derive_base_model info));
  ]

let suite = suite @ [ ("analysis: static tables", static_table_tests) ]
