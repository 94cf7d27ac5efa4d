(* The fuzzer core: seeds, mutation operators, masks, coverage tables,
   energy assignment and whole-campaign behaviour (incl. determinism). *)

module U = Word.U256

let unit name f = Alcotest.test_case name `Quick f

let qprop name ?(count = 300) ~print gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ~print gen f)

let fn_u name = { Abi.name; inputs = [ Abi.Uint256 ]; payable = true; is_constructor = false }

let seed_tests =
  [
    unit "stream length = 32*arity + value word" (fun () ->
        Alcotest.(check int) "len" 64 (Mufuzz.Seed.stream_length (fn_u "f")));
    unit "tx_value reads trailing word" (fun () ->
        let tx =
          Mufuzz.Seed.make_tx (fn_u "f") ~sender:0 ~args:(String.make 32 '\000')
            ~value:(U.of_int 777)
        in
        Alcotest.(check string) "777" "777" (U.to_decimal_string (Mufuzz.Seed.tx_value tx)));
    unit "tx_value on truncated stream is zero-extended" (fun () ->
        let tx =
          Mufuzz.Seed.make_tx (fn_u "f") ~sender:0 ~args:"" ~value:U.zero
        in
        let tx = { tx with stream = String.sub tx.stream 0 40 } in
        (* only 8 value bytes remain; must not crash *)
        ignore (Mufuzz.Seed.tx_value tx));
    unit "tx_calldata starts with the selector" (fun () ->
        let f = fn_u "f" in
        let tx = Mufuzz.Seed.make_tx f ~sender:0 ~args:"" ~value:U.zero in
        Alcotest.(check string) "selector" (Abi.selector f)
          (String.sub (Mufuzz.Seed.tx_calldata tx) 0 4));
    unit "of_sequence resolves names" (fun () ->
        let rng = Util.Rng.create 1L in
        let abi = [ fn_u "a"; fn_u "b" ] in
        let seed = Mufuzz.Seed.of_sequence rng ~n_senders:2 abi [ "b"; "a"; "b" ] in
        Alcotest.(check (list string)) "order" [ "b"; "a"; "b" ]
          (List.map (fun (tx : Mufuzz.Seed.tx) -> tx.fn.Abi.name) seed.txs));
    unit "of_sequence rejects unknown names" (fun () ->
        let rng = Util.Rng.create 1L in
        match Mufuzz.Seed.of_sequence rng ~n_senders:1 [ fn_u "a" ] [ "zz" ] with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "should raise");
    unit "address dictionary biases address args to live accounts" (fun () ->
        let rng = Util.Rng.create 3L in
        let f =
          { Abi.name = "g"; inputs = [ Abi.Address ]; payable = false;
            is_constructor = false }
        in
        let pool = Mufuzz.Accounts.address_dictionary 3 in
        let hits = ref 0 in
        for _ = 1 to 100 do
          let tx = Mufuzz.Seed.random_tx rng ~n_senders:3 f in
          let w = U.of_bytes_be (String.sub tx.stream 0 32) in
          if List.exists (U.equal w) pool then incr hits
        done;
        Alcotest.(check bool) "mostly pool addresses" true (!hits > 50));
  ]

let mutation_gen = QCheck2.Gen.(pair (string_size (int_range 0 96)) small_int)

let mutation_tests =
  [
    qprop "O preserves length" ~print:(fun (s, p) -> Printf.sprintf "%d@%d" (String.length s) p)
      mutation_gen (fun (s, p) ->
        let rng = Util.Rng.create (Int64.of_int p) in
        let out = Mufuzz.Mutation.apply rng { kind = Mufuzz.Mutation.O; n = 4 } ~pos:p s in
        String.length out = String.length s);
    qprop "I grows length by n" ~print:(fun (s, p) -> Printf.sprintf "%d@%d" (String.length s) p)
      mutation_gen (fun (s, p) ->
        let rng = Util.Rng.create (Int64.of_int p) in
        let out = Mufuzz.Mutation.apply rng { kind = Mufuzz.Mutation.I; n = 3 } ~pos:p s in
        String.length out = String.length s + 3);
    qprop "D never grows" ~print:(fun (s, p) -> Printf.sprintf "%d@%d" (String.length s) p)
      mutation_gen (fun (s, p) ->
        let rng = Util.Rng.create (Int64.of_int p) in
        let out = Mufuzz.Mutation.apply rng { kind = Mufuzz.Mutation.D; n = 5 } ~pos:p s in
        String.length out <= String.length s);
    qprop "R preserves length" ~print:(fun (s, p) -> Printf.sprintf "%d@%d" (String.length s) p)
      mutation_gen (fun (s, p) ->
        let rng = Util.Rng.create (Int64.of_int p) in
        let out = Mufuzz.Mutation.apply rng { kind = Mufuzz.Mutation.R; n = 2 } ~pos:p s in
        String.length out = String.length s);
    unit "dictionary words appear in R word mode" (fun () ->
        let rng = Util.Rng.create 12L in
        let dict = [| U.of_decimal_string "88000000000000000" |] in
        let stream = String.make 64 '\000' in
        let found = ref false in
        for _ = 1 to 500 do
          let out =
            Mufuzz.Mutation.apply ~dict rng
              { kind = Mufuzz.Mutation.R; n = 4 } ~pos:40 stream
          in
          if String.length out = 64 then begin
            let w = U.of_bytes_be (String.sub out 32 32) in
            if U.equal w dict.(0) then found := true
          end
        done;
        Alcotest.(check bool) "dict word injected" true !found);
    unit "empty stream never crashes any operator" (fun () ->
        let rng = Util.Rng.create 5L in
        List.iter
          (fun kind ->
            ignore (Mufuzz.Mutation.apply rng { Mufuzz.Mutation.kind; n = 4 } ~pos:0 ""))
          Mufuzz.Mutation.all_kinds);
    unit "kind indices are distinct" (fun () ->
        let idx = List.map Mufuzz.Mutation.kind_index Mufuzz.Mutation.all_kinds in
        Alcotest.(check (list int)) "0..3" [ 0; 1; 2; 3 ] (List.sort compare idx));
  ]

let mask_tests =
  [
    unit "probe verdicts control admission" (fun () ->
        let rng = Util.Rng.create 1L in
        let stream = String.make 8 'x' in
        (* positions < 4 always good; rest always bad *)
        let calls = ref [] in
        let probe _mutant =
          (* the probe cannot see the position, so drive by call order:
             Algorithm 2 probes position-major, 4 kinds per position *)
          let i = List.length !calls in
          calls := i :: !calls;
          let pos = i / 4 in
          { Mufuzz.Mask.hits_nested = pos < 4; distance_decreased = false }
        in
        let mask = Mufuzz.Mask.compute rng ~stride:1 ~max_probes:1000 ~probe stream in
        List.iter
          (fun kind ->
            Alcotest.(check bool) "pos0 allowed" true
              (Mufuzz.Mask.allows mask kind ~pos:0);
            Alcotest.(check bool) "pos7 denied" false
              (Mufuzz.Mask.allows mask kind ~pos:7))
          Mufuzz.Mutation.all_kinds);
    unit "stride propagates the anchor verdict" (fun () ->
        let rng = Util.Rng.create 2L in
        let stream = String.make 8 'x' in
        let probe _ = { Mufuzz.Mask.hits_nested = true; distance_decreased = false } in
        let mask = Mufuzz.Mask.compute rng ~stride:4 ~max_probes:1000 ~probe stream in
        Alcotest.(check bool) "pos1 inherits pos0" true
          (Mufuzz.Mask.allows mask Mufuzz.Mutation.O ~pos:1));
    unit "allow_all admits everything" (fun () ->
        let mask = Mufuzz.Mask.allow_all 16 in
        Alcotest.(check (float 0.0001)) "fraction" 1.0
          (Mufuzz.Mask.admitted_fraction mask);
        Alcotest.(check bool) "beyond range allowed" true
          (Mufuzz.Mask.allows mask Mufuzz.Mutation.D ~pos:100));
    unit "max_probes caps executions" (fun () ->
        let rng = Util.Rng.create 3L in
        let count = ref 0 in
        let probe _ =
          incr count;
          { Mufuzz.Mask.hits_nested = false; distance_decreased = false }
        in
        ignore (Mufuzz.Mask.compute rng ~stride:1 ~max_probes:10 ~probe (String.make 64 'a'));
        Alcotest.(check int) "ten probes" 10 !count);
  ]

(* Summaries outside a campaign: a CFG only sizes the builder and, when
   weighing, answers the flip-side vulnerability query. *)
let crowdsale_cfg =
  lazy
    (Analysis.Cfg.build
       (Minisol.Contract.compile Corpus.Examples.crowdsale).Minisol.Contract.bytecode)

let summary_builder ?weigh () =
  Mufuzz.Branch_summary.builder ?weigh (Lazy.force crowdsale_cfg)

let coverage_tests =
  [
    unit "record returns true only on new sides" (fun () ->
        let cov = Mufuzz.Coverage.create () in
        let trace taken =
          { Evm.Trace.status = Evm.Trace.Success;
            events = [ Evm.Trace.Branch { pc = 3; taken; dist_to_flip = 2.0;
                                          cond_taint = 0; cmp = None } ];
            return_data = ""; gas_used = 0; steps = 0 }
        in
        Alcotest.(check bool) "first" true (Mufuzz.Coverage.record cov (trace true));
        Alcotest.(check bool) "repeat" false (Mufuzz.Coverage.record cov (trace true));
        Alcotest.(check bool) "other side" true (Mufuzz.Coverage.record cov (trace false)));
    unit "frontier lists uncovered twins" (fun () ->
        let cov = Mufuzz.Coverage.create () in
        let trace =
          { Evm.Trace.status = Evm.Trace.Success;
            events = [ Evm.Trace.Branch { pc = 7; taken = true; dist_to_flip = 5.0;
                                          cond_taint = 0; cmp = None } ];
            return_data = ""; gas_used = 0; steps = 0 }
        in
        ignore (Mufuzz.Coverage.record cov trace);
        Alcotest.(check (list (pair int bool))) "frontier" [ (7, false) ]
          (Mufuzz.Coverage.uncovered_frontier cov);
        Alcotest.(check (option (float 0.001))) "distance" (Some 5.0)
          (Mufuzz.Coverage.best_distance cov (7, false)));
    unit "covering the twin clears its distance" (fun () ->
        let cov = Mufuzz.Coverage.create () in
        let trace taken =
          { Evm.Trace.status = Evm.Trace.Success;
            events = [ Evm.Trace.Branch { pc = 7; taken; dist_to_flip = 5.0;
                                          cond_taint = 0; cmp = None } ];
            return_data = ""; gas_used = 0; steps = 0 }
        in
        ignore (Mufuzz.Coverage.record cov (trace true));
        ignore (Mufuzz.Coverage.record cov (trace false));
        Alcotest.(check (list (pair int bool))) "no frontier" []
          (Mufuzz.Coverage.uncovered_frontier cov));
    unit "frontier_dists picks the smallest visit" (fun () ->
        let trace =
          { Evm.Trace.status = Evm.Trace.Success;
            events =
              [ Evm.Trace.Branch { pc = 7; taken = true; dist_to_flip = 5.0; cond_taint = 0; cmp = None };
                Evm.Trace.Branch { pc = 7; taken = true; dist_to_flip = 2.0; cond_taint = 0; cmp = None } ];
            return_data = ""; gas_used = 0; steps = 0 }
        in
        let cov = Mufuzz.Coverage.create () in
        ignore (Mufuzz.Coverage.record cov trace);
        let summary =
          Mufuzz.Branch_summary.summarize (summary_builder ())
            [ { Mufuzz.Executor.tx_index = 0; fn_name = "f"; success = true; trace } ]
        in
        Alcotest.(check (list (pair (pair int bool) (float 0.001)))) "min"
          [ ((7, false), 2.0) ]
          (Mufuzz.Coverage.frontier_dists cov summary));
  ]

(* ---------------- frontier distances: reference model ----------------

   [Coverage.frontier_dists] and [Campaign.mask_feedback] read branch
   distances from a run's summary. The reference below is their first
   definition: sort the whole frontier, then rescan every trace once per
   frontier side. Both must agree exactly, float bits and tie-breaking
   included, on random traces and coverage maps. *)

(* Distance of one trace to an uncovered side: the smallest over its
   visits to that [pc] on the opposite side, the earliest on ties. *)
let trace_min_distance (trace : Evm.Trace.t) (pc, want_side) =
  List.fold_left
    (fun acc ev ->
      match ev with
      | Evm.Trace.Branch { pc = p; taken; dist_to_flip; _ }
        when p = pc && taken = not want_side -> begin
        match acc with
        | Some d when d <= dist_to_flip -> acc
        | _ -> Some dist_to_flip
      end
      | _ -> acc)
    None (Evm.Trace.expand trace.events)

let ref_frontier_dists cov (results : Mufuzz.Executor.tx_result list) =
  List.filter_map
    (fun br ->
      let best =
        List.fold_left
          (fun acc (r : Mufuzz.Executor.tx_result) ->
            match trace_min_distance r.trace br with
            | Some d -> (match acc with Some a when a <= d -> acc | _ -> Some d)
            | None -> acc)
          None results
      in
      Option.map (fun d -> (br, d)) best)
    (Mufuzz.Coverage.uncovered_frontier cov)

let ref_nested_hits (results : Mufuzz.Executor.tx_result list) =
  List.concat_map
    (fun (r : Mufuzz.Executor.tx_result) ->
      let _, acc =
        List.fold_left
          (fun (ord, acc) ev ->
            match ev with
            | Evm.Trace.Branch { pc; taken; _ } ->
              (ord + 1, if ord + 1 >= 2 then (pc, taken) :: acc else acc)
            | _ -> (ord, acc))
          (0, []) (Evm.Trace.expand r.trace.events)
      in
      acc)
    results
  |> List.sort_uniq compare

let ref_mask_feedback ~baseline_nested ~baseline_dists
    (run : Mufuzz.Executor.run) =
  let hits_nested =
    baseline_nested <> []
    && List.exists
         (fun br -> List.mem br baseline_nested)
         (ref_nested_hits run.tx_results)
  in
  let distance_decreased =
    List.exists
      (fun (br, base_d) ->
        List.exists
          (fun (r : Mufuzz.Executor.tx_result) ->
            match trace_min_distance r.trace br with
            | Some d -> d < base_d
            | None -> false)
          run.tx_results)
      baseline_dists
  in
  { Mufuzz.Mask.hits_nested; distance_decreased }

let trace_of events =
  { Evm.Trace.status = Evm.Trace.Success; events; return_data = "";
    gas_used = 0; steps = 0 }

let run_of traces =
  {
    Mufuzz.Executor.tx_results =
      List.mapi
        (fun i trace ->
          { Mufuzz.Executor.tx_index = i; fn_name = "f"; success = true; trace })
        traces;
    final_state = Evm.State.empty;
    received_value = false;
    executed_steps = 0;
    logical_steps = 0;
  }

(* Few pcs and a small distance alphabet, so sides repeat, frontiers
   overlap the traces and ties (including 0.0 against -0.0) are common. *)
let gen_event =
  QCheck2.Gen.(
    let* pc = int_range 0 5 in
    let* taken = bool in
    let* dist_to_flip = oneofl [ 0.0; -0.0; 1.0; 2.0; 2.5; 7.0; 1e30 ] in
    frequency
      [
        (6, return (Evm.Trace.Branch { pc; taken; dist_to_flip; cond_taint = 0;
                                       cmp = None }));
        (1, return (Evm.Trace.Revert_reached { pc }));
      ])

let gen_traces = QCheck2.Gen.(list_size (int_range 0 3) (list_size (int_range 0 12) gen_event))

let gen_branch = QCheck2.Gen.(pair (int_range 0 5) bool)

(* coverage history, probe run, baseline nested sides, baseline
   distances (duplicate sides allowed) *)
let gen_frontier_case =
  QCheck2.Gen.(
    quad gen_traces gen_traces
      (list_size (int_range 0 4) gen_branch)
      (list_size (int_range 0 5)
         (pair gen_branch (oneofl [ 0.0; 1.0; 2.0; 2.5; 3.0; 8.0; 1e31 ]))))

let print_frontier_case (history, probe, nested, dists) =
  let ev_str = function
    | Evm.Trace.Branch { pc; taken; dist_to_flip; _ } ->
      Printf.sprintf "B(%d,%b,%h)" pc taken dist_to_flip
    | _ -> "R"
  in
  let traces ts =
    String.concat " | " (List.map (fun t -> String.concat " " (List.map ev_str t)) ts)
  in
  let br (pc, t) = Printf.sprintf "(%d,%b)" pc t in
  Printf.sprintf "history: %s\nprobe: %s\nnested: %s\ndists: %s" (traces history)
    (traces probe)
    (String.concat " " (List.map br nested))
    (String.concat " " (List.map (fun (b, d) -> Printf.sprintf "%s=%h" (br b) d) dists))

(* exact float identity: 0.0 and -0.0 differ here, unlike under [=] *)
let bits dists = List.map (fun (br, d) -> (br, Int64.bits_of_float d)) dists

let summarize (run : Mufuzz.Executor.run) =
  Mufuzz.Branch_summary.summarize (summary_builder ()) run.tx_results

let frontier_model_tests =
  [
    qprop "frontier_dists = frontier x trace_min_distance"
      ~count:1000 ~print:print_frontier_case gen_frontier_case
      (fun (history, probe, _, _) ->
        let cov = Mufuzz.Coverage.create () in
        List.iter (fun evs -> ignore (Mufuzz.Coverage.record cov (trace_of evs))) history;
        (* judge the probe both before and after recording it, as the
           worker pre-filter and the coordinator entry do *)
        let run = run_of (List.map trace_of probe) in
        let summary = summarize run in
        let agree () =
          bits (Mufuzz.Coverage.frontier_dists cov summary)
          = bits (ref_frontier_dists cov run.tx_results)
        in
        let before = agree () in
        List.iter
          (fun (r : Mufuzz.Executor.tx_result) -> ignore (Mufuzz.Coverage.record cov r.trace))
          run.tx_results;
        before && agree ());
    qprop "mask_feedback = per-side trace rescans" ~count:1000
      ~print:print_frontier_case gen_frontier_case
      (fun (history, probe, baseline_nested, random_dists) ->
        let cov = Mufuzz.Coverage.create () in
        List.iter (fun evs -> ignore (Mufuzz.Coverage.record cov (trace_of evs))) history;
        let seed_run = run_of (List.map trace_of history) in
        let run = run_of (List.map trace_of probe) in
        (* realistic baselines (a seed's own frontier distances) and
           arbitrary ones *)
        List.for_all
          (fun baseline_dists ->
            Mufuzz.Campaign.mask_feedback ~baseline_nested ~baseline_dists
              (summarize run)
            = ref_mask_feedback ~baseline_nested ~baseline_dists run)
          [ ref_frontier_dists cov seed_run.tx_results; random_dists ]);
    unit "frontier distances keep side order and the earliest tie" (fun () ->
        let cov = Mufuzz.Coverage.create () in
        let br pc taken d =
          Evm.Trace.Branch { pc; taken; dist_to_flip = d; cond_taint = 0; cmp = None }
        in
        let run =
          run_of
            [ trace_of [ br 9 true 4.0; br 3 false 0.0 ];
              trace_of [ br 3 false (-0.0); br 9 true 1.5 ] ]
        in
        List.iter
          (fun (r : Mufuzz.Executor.tx_result) -> ignore (Mufuzz.Coverage.record cov r.trace))
          run.tx_results;
        Alcotest.(check (list (pair (pair int bool) int64))) "sorted, first zero kept"
          [ ((3, true), Int64.bits_of_float 0.0); ((9, false), Int64.bits_of_float 1.5) ]
          (bits (Mufuzz.Coverage.frontier_dists cov (summarize run))));
  ]

(* ---------------- branch summary: reference model ----------------

   Every campaign consumer of a run's branch events reads its
   [Branch_summary]. Random multi-transaction runs go through those
   summary-fed consumers and through per-event references — each
   consumer's definition before summaries, kept here — and every
   observable must agree: the coverage checkpoint JSON and freshness,
   frontier distance bits, the sorted path and nested lists, the mask
   verdict, flip-attempt counts and the Algorithm-3 weights. One builder
   serves a whole case, so its per-run reset is exercised too. *)

let ref_path (results : Mufuzz.Executor.tx_result list) =
  List.concat_map (fun (r : Mufuzz.Executor.tx_result) -> Evm.Trace.branches r.trace) results
  |> List.sort_uniq compare

let ref_note_flip_attempts cov attempts (results : Mufuzz.Executor.tx_result list) =
  List.iter
    (fun (r : Mufuzz.Executor.tx_result) ->
      List.iter
        (function
          | Evm.Trace.Branch { pc; taken; _ } ->
            let other = (pc, not taken) in
            if not (Mufuzz.Coverage.is_covered cov other) then
              Hashtbl.replace attempts other
                (1 + Option.value ~default:0 (Hashtbl.find_opt attempts other))
          | _ -> ())
        (Evm.Trace.expand r.trace.events))
    results

(* gen_event's pcs 0..5 moved onto real JUMPIs, so the flip-side
   vulnerability bonus varies, with vulnerable and neutral non-branch
   events between them *)
let jumpis = lazy (Array.of_list (Analysis.Cfg.branch_points (Lazy.force crowdsale_cfg)))

let onto_jumpis = function
  | Evm.Trace.Branch { pc; taken; dist_to_flip; cond_taint; cmp } ->
    let j = Lazy.force jumpis in
    Evm.Trace.Branch
      { pc = j.(pc mod Array.length j); taken; dist_to_flip; cond_taint; cmp }
  | ev -> ev

(* crowdsale's selector chain resolved on one of its constants or on a
   miss, as the interpreter reports it *)
let crowdsale_chain =
  lazy
    (let code =
       (Minisol.Contract.compile Corpus.Examples.crowdsale).Minisol.Contract.bytecode
     in
     (Evm.Bytecode.artifact code).a_chains.(0))

let gen_dispatch =
  QCheck2.Gen.map
    (fun (k, miss, cmps) ->
      let ch = Lazy.force crowdsale_chain in
      let n = Array.length ch.ch_consts in
      let k = k mod (n + 1) in
      let hit = k < n in
      Evm.Trace.Dispatch
        { pc = ch.ch_start; consts = ch.ch_consts; passed = (if hit then k + 1 else n);
          hit; sel = (if hit then ch.ch_consts.(k) else Word.U256.of_int miss);
          sel_taint = Evm.Trace.Taint.calldata; cmps })
    QCheck2.Gen.(triple (int_bound 16) (int_bound 1000) bool)

let gen_summary_run =
  QCheck2.Gen.(
    list_size (int_range 0 4)
      (list_size (int_range 0 14)
         (frequency
            [
              (8, map onto_jumpis gen_event);
              (2, gen_dispatch);
              (1, return (Evm.Trace.Arith_overflow { pc = 1; op = "ADD"; taint = 0 }));
              (1, return (Evm.Trace.Log { pc = 2; topics = [] }));
            ])))

let weight_params =
  [
    Analysis.Prefix.default_params;
    { Analysis.Prefix.nested_coeff = 0.0; vuln_bonus = 0.0 };
    { Analysis.Prefix.nested_coeff = -0.5; vuln_bonus = -0.0 };
  ]

(* earlier runs, the judged run, baseline nested sides, baseline
   distances, weight parameters *)
let gen_summary_case =
  QCheck2.Gen.(
    let gen_side =
      map (fun (pc, taken) -> (Lazy.force jumpis).(pc mod Array.length (Lazy.force jumpis)), taken) gen_branch
    in
    tup5
      (list_size (int_range 0 3) gen_summary_run)
      gen_summary_run
      (list_size (int_range 0 4) gen_side)
      (list_size (int_range 0 5)
         (pair gen_side (oneofl [ 0.0; -0.0; 1.0; 2.0; 2.5; 3.0; 8.0; 1e31 ])))
      (oneofl weight_params))

let print_summary_case (history, probe, nested, dists, (p : Analysis.Prefix.params)) =
  Printf.sprintf "%s\nhistory runs: %d\nparams: %h %h"
    (print_frontier_case (List.concat history, probe, nested, dists))
    (List.length history) p.nested_coeff p.vuln_bonus

let sorted_bindings tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let summary_agrees (history, probe, baseline_nested, random_dists, params) =
  let b = summary_builder ~weigh:params () in
  let runs = List.map (fun evs -> run_of (List.map trace_of evs)) (history @ [ probe ]) in
  let cov = Mufuzz.Coverage.create () and cov_ref = Mufuzz.Coverage.create () in
  let attempts = Hashtbl.create 16 and attempts_ref = Hashtbl.create 16 in
  let ok = ref true in
  let check c = if not c then ok := false in
  let last = List.length runs - 1 in
  List.iteri
    (fun i (run : Mufuzz.Executor.run) ->
      let s = Mufuzz.Branch_summary.summarize b run.tx_results in
      if i = last then begin
        (* the judged run against the map before it is recorded *)
        check
          (bits (Mufuzz.Coverage.frontier_dists cov s)
          = bits (ref_frontier_dists cov_ref run.tx_results));
        let seed_dists =
          ref_frontier_dists cov_ref (List.concat_map (fun (r : Mufuzz.Executor.run) -> r.tx_results) runs)
        in
        List.iter
          (fun baseline_dists ->
            check
              (Mufuzz.Campaign.mask_feedback ~baseline_nested ~baseline_dists s
              = ref_mask_feedback ~baseline_nested ~baseline_dists run))
          [ seed_dists; random_dists ];
        check (Mufuzz.Branch_summary.path s = ref_path run.tx_results);
        check (Mufuzz.Branch_summary.nested_sides s = ref_nested_hits run.tx_results);
        let weights =
          List.map
            (fun (br, w) -> (br, Int64.bits_of_float w))
            (Mufuzz.Branch_summary.weighted_sides s)
        in
        let weights_ref =
          Analysis.Prefix.weight_table ~params (Lazy.force crowdsale_cfg)
            (List.map (fun (r : Mufuzz.Executor.tx_result) -> r.trace) run.tx_results)
        in
        check
          (List.sort compare weights
          = List.map (fun (br, w) -> (br, Int64.bits_of_float w)) (sorted_bindings weights_ref))
      end;
      let fresh = Mufuzz.Coverage.record_run cov s in
      let fresh_ref =
        List.fold_left
          (fun acc (r : Mufuzz.Executor.tx_result) ->
            Mufuzz.Coverage.record cov_ref
              { r.trace with events = Evm.Trace.expand r.trace.events }
            || acc)
          false run.tx_results
      in
      check (fresh = fresh_ref);
      Mufuzz.Campaign.note_flip_attempts ~coverage:cov attempts s;
      ref_note_flip_attempts cov_ref attempts_ref run.tx_results;
      check (sorted_bindings attempts = sorted_bindings attempts_ref);
      check
        (Telemetry.Json.to_string (Mufuzz.Coverage.to_json cov)
        = Telemetry.Json.to_string (Mufuzz.Coverage.to_json cov_ref));
      (* and after recording, as the coordinator's entry sees it *)
      if i = last then
        check
          (bits (Mufuzz.Coverage.frontier_dists cov s)
          = bits (ref_frontier_dists cov_ref run.tx_results)))
    runs;
  !ok

let summary_model_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"summary-fed consumers = per-event references" ~count:1000
         ~long_factor:20 ~print:print_summary_case gen_summary_case summary_agrees);
    unit "a summary survives its builder's next run" (fun () ->
        let b = summary_builder ~weigh:Analysis.Prefix.default_params () in
        let br pc taken d =
          Evm.Trace.Branch { pc; taken; dist_to_flip = d; cond_taint = 0; cmp = None }
        in
        let first = run_of [ trace_of [ br 4 true 3.0; br 4 true 1.0; br 9 false 2.0 ] ] in
        let second = run_of [ trace_of [ br 4 true 0.5; br 7 true 6.0 ] ] in
        let s = Mufuzz.Branch_summary.summarize b first.tx_results in
        let view (s : Mufuzz.Branch_summary.t) =
          (Array.copy s.keys, Array.copy s.hits, Array.copy s.dists, Array.copy s.nested,
           Array.copy s.weights)
        in
        let before = view s in
        ignore (Mufuzz.Branch_summary.summarize b second.tx_results);
        Alcotest.(check bool) "unchanged" true (before = view s);
        Alcotest.(check (list (pair int bool))) "path" [ (4, true); (9, false) ]
          (Mufuzz.Branch_summary.path s));
    unit "builders grow past the contract's JUMPI count" (fun () ->
        (* a contract without branches sizes the builder at its minimum *)
        let cfg =
          Analysis.Cfg.build
            (Minisol.Contract.compile "contract Empty { uint256 x; }").Minisol.Contract.bytecode
        in
        let b = Mufuzz.Branch_summary.builder cfg in
        let events =
          List.init 300 (fun i ->
              Evm.Trace.Branch
                { pc = i * 7 mod 211; taken = i mod 3 = 0; dist_to_flip = float_of_int (i mod 5);
                  cond_taint = 0; cmp = None })
        in
        let run = run_of [ trace_of events; trace_of (List.rev events) ] in
        for _ = 1 to 2 do
          let s = Mufuzz.Branch_summary.summarize b run.tx_results in
          Alcotest.(check (list (pair int bool))) "path" (ref_path run.tx_results)
            (Mufuzz.Branch_summary.path s);
          Alcotest.(check int) "hits" 600 (Array.fold_left ( + ) 0 s.hits)
        done);
  ]

let energy_tests =
  [
    unit "flat when dynamic disabled" (fun () ->
        Alcotest.(check int) "base" 20
          (Mufuzz.Energy.assign ~dynamic:false ~base:20 ~max_energy:100
             ~weights:None ~path:[]));
    unit "weight scales energy up to the cap" (fun () ->
        let tbl = Hashtbl.create 4 in
        Hashtbl.replace tbl (1, true) 100.0;
        let e =
          Mufuzz.Energy.assign ~dynamic:true ~base:20 ~max_energy:60
            ~weights:(Some tbl) ~path:[ (1, true) ]
        in
        Alcotest.(check int) "capped" 60 e);
    unit "unknown path gets base" (fun () ->
        let tbl = Hashtbl.create 4 in
        let e =
          Mufuzz.Energy.assign ~dynamic:true ~base:20 ~max_energy:60
            ~weights:(Some tbl) ~path:[ (9, false) ]
        in
        Alcotest.(check int) "base" 20 e);
    unit "update decrements, refunds on coverage" (fun () ->
        Alcotest.(check int) "dec" 9 (Mufuzz.Energy.update 10 ~new_coverage:false);
        Alcotest.(check int) "bonus" 12 (Mufuzz.Energy.update 10 ~new_coverage:true));
  ]

let campaign_tests =
  [
    unit "campaign is deterministic for a fixed seed" (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.crowdsale in
        let config = { Mufuzz.Config.default with max_executions = 300 } in
        let r1 = Mufuzz.Campaign.run ~config c in
        let r2 = Mufuzz.Campaign.run ~config c in
        Alcotest.(check int) "same coverage" r1.covered_branches r2.covered_branches;
        Alcotest.(check int) "same findings" (List.length r1.findings)
          (List.length r2.findings);
        Alcotest.(check (list (pair int bool))) "same covered set" r1.covered r2.covered);
    unit "different seeds explore differently" (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.guess_number in
        let run seed =
          Mufuzz.Campaign.run
            ~config:{ Mufuzz.Config.default with max_executions = 150; rng_seed = seed }
            c
        in
        let r1 = run 1L and r2 = run 2L in
        (* executions equal; exploration may differ — just require both ran *)
        Alcotest.(check int) "budget respected" 150 r1.executions;
        Alcotest.(check int) "budget respected" 150 r2.executions);
    unit "budget is a hard cap" (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.crowdsale in
        let r =
          Mufuzz.Campaign.run
            ~config:{ Mufuzz.Config.default with max_executions = 77 } c
        in
        Alcotest.(check int) "exact budget" 77 r.executions);
    unit "checkpoints are monotone" (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.crowdsale in
        let r =
          Mufuzz.Campaign.run
            ~config:{ Mufuzz.Config.default with max_executions = 200 } c
        in
        let rec monotone = function
          | (a : Mufuzz.Report.checkpoint) :: (b :: _ as rest) ->
            a.execs <= b.execs && a.covered <= b.covered && monotone rest
          | _ -> true
        in
        Alcotest.(check bool) "monotone" true (monotone r.over_time));
    unit "derive_sequence reproduces the paper's example" (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.crowdsale in
        Alcotest.(check (list string)) "sequence"
          [ "invest"; "refund"; "invest"; "withdraw" ]
          (Mufuzz.Campaign.derive_sequence c));
    unit "campaign on a contract with no functions" (fun () ->
        let c = Minisol.Contract.compile "contract Empty { uint256 x; }" in
        let r =
          Mufuzz.Campaign.run
            ~config:{ Mufuzz.Config.default with max_executions = 50 } c
        in
        Alcotest.(check bool) "terminates with coverage" true (r.covered_branches > 0));
    unit "executor funds senders and runs constructor as deployer" (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.crowdsale in
        let rng = Util.Rng.create 4L in
        let seed =
          Mufuzz.Seed.of_sequence rng ~n_senders:3 c.abi [ "constructor"; "invest" ]
        in
        let run = Mufuzz.Executor.run_seed ~contract:c ~gas:1_000_000 ~n_senders:3
            ~attacker:true seed in
        Alcotest.(check int) "two txs" 2 (List.length run.tx_results);
        (* owner slot (3) must hold the deployer regardless of the seed's
           sender choice *)
        Alcotest.(check string) "owner = deployer"
          (U.to_hex_string Mufuzz.Accounts.deployer)
          (U.to_hex_string
             (Evm.State.storage_get run.final_state Mufuzz.Accounts.contract_address
                (U.of_int 3))));
  ]

let suite =
  [
    ("mufuzz: seeds", seed_tests);
    ("mufuzz: mutation", mutation_tests);
    ("mufuzz: mask", mask_tests);
    ("mufuzz: coverage", coverage_tests);
    ("mufuzz: frontier model", frontier_model_tests);
    ("branch summary: model", summary_model_tests);
    ("mufuzz: energy", energy_tests);
    ("mufuzz: campaign", campaign_tests);
  ]

let cache_tests =
  [
    unit "cache hits on repeated prefixes" (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.crowdsale in
        let cache = Mufuzz.State_cache.create () in
        let rng = Util.Rng.create 7L in
        let seed =
          Mufuzz.Seed.of_sequence rng ~n_senders:3 c.abi
            [ "constructor"; "invest"; "refund"; "withdraw" ]
        in
        let run s =
          Mufuzz.Executor.run_seed ~contract:c ~gas:1_000_000 ~n_senders:3
            ~attacker:true ~cache s
        in
        let r1 = run seed in
        (* mutate only the last tx: the three-tx prefix must come from cache *)
        let last = List.nth seed.txs 3 in
        let seed2 =
          Mufuzz.Seed.with_tx seed 3 { last with sender = last.sender + 1 }
        in
        let r2 = run seed2 in
        Alcotest.(check bool) "hits recorded" true (Mufuzz.State_cache.hits cache > 0);
        (* prefix traces identical *)
        let b r i = Evm.Trace.branches (List.nth r.Mufuzz.Executor.tx_results i).trace in
        Alcotest.(check (list (pair int bool))) "tx0 same" (b r1 0) (b r2 0);
        Alcotest.(check (list (pair int bool))) "tx2 same" (b r1 2) (b r2 2));
    unit "digest distinguishes stream, sender and function" (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.crowdsale in
        let f = List.find (fun (f : Abi.func) -> f.Abi.name = "invest") c.abi in
        let tx = Mufuzz.Seed.make_tx f ~sender:0 ~args:(String.make 32 'a') ~value:U.zero in
        let d0 = Mufuzz.State_cache.digest_tx "" tx in
        Alcotest.(check bool) "sender" true
          (d0 <> Mufuzz.State_cache.digest_tx "" { tx with sender = 1 });
        Alcotest.(check bool) "stream" true
          (d0 <> Mufuzz.State_cache.digest_tx "" { tx with stream = String.make 64 'b' });
        Alcotest.(check bool) "chain" true
          (d0 <> Mufuzz.State_cache.digest_tx d0 tx));
  ]

let suite = suite @ [ ("mufuzz: state cache", cache_tests) ]

let report_tests =
  [
    unit "to_text contains summary and witnesses" (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.suicidal in
        let r =
          Mufuzz.Campaign.run
            ~config:{ Mufuzz.Config.default with max_executions = 400 } c
        in
        let text = Mufuzz.Report.to_text r in
        let contains needle =
          let n = String.length needle and m = String.length text in
          let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "has title" true (contains "Suicidal");
        Alcotest.(check bool) "has coverage" true (contains "branch coverage");
        Alcotest.(check bool) "has US class" true (contains "US");
        Alcotest.(check bool) "has growth" true (contains "coverage growth"));
    unit "to_text always prints the final coverage checkpoint" (fun () ->
        (* 45 checkpoints: step = 45/20 = 2, and 44 (the last index) is
           even, so before the fix the final sample depended on parity;
           47 checkpoints give step 2 with an odd last index — both must
           end on the true final value *)
        List.iter
          (fun n ->
            let over_time =
              List.init n (fun i ->
                  { Mufuzz.Report.execs = i + 1; covered = i + 1 })
            in
            let r =
              {
                Mufuzz.Report.contract_name = "T";
                executions = n;
                steps = 0;
                mask_probes = 0;
                predict_proposals = 0;
                covered_branches = n;
                covered = [];
                total_branch_sides = 2 * n;
                findings = [];
                occurrences = [];
                witnesses = [];
                witness_seeds = [];
                over_time;
                seeds_in_queue = 0;
                corpus = [];
                corpus_skipped = [];
                wall_seconds = 0.0;
                stop_reason = Mufuzz.Report.Budget_exhausted;
                parallel = None;
              }
            in
            let text = Mufuzz.Report.to_text r in
            let final = Printf.sprintf "  %6d %4d\n" n n in
            let contains needle =
              let k = String.length needle and m = String.length text in
              let rec go i =
                i + k <= m && (String.sub text i k = needle || go (i + 1))
              in
              go 0
            in
            Alcotest.(check bool)
              (Printf.sprintf "final checkpoint printed (n=%d)" n)
              true (contains final))
          [ 1; 2; 19; 20; 45; 46; 47; 100 ]);
    unit "findings_by_class counts match findings" (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.suicidal in
        let r =
          Mufuzz.Campaign.run
            ~config:{ Mufuzz.Config.default with max_executions = 400 } c
        in
        let total =
          List.fold_left (fun acc (_, n) -> acc + n) 0
            (Mufuzz.Report.findings_by_class r)
        in
        Alcotest.(check int) "sum" (List.length r.findings) total);
  ]

let suite = suite @ [ ("mufuzz: report", report_tests) ]

let replay_tests =
  [
    unit "seed serialisation round trip" (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.crowdsale in
        let rng = Util.Rng.create 21L in
        let seed =
          Mufuzz.Seed.of_sequence rng ~n_senders:3 c.abi
            [ "constructor"; "invest"; "refund"; "withdraw" ]
        in
        let s = Mufuzz.Replay.seed_to_string seed in
        let back = Mufuzz.Replay.seed_of_string ~abi:c.abi s in
        Alcotest.(check int) "tx count" 4 (List.length back.txs);
        List.iter2
          (fun (a : Mufuzz.Seed.tx) (b : Mufuzz.Seed.tx) ->
            Alcotest.(check string) "fn" a.fn.Abi.name b.fn.Abi.name;
            Alcotest.(check int) "sender" a.sender b.sender;
            Alcotest.(check string) "stream" a.stream b.stream)
          seed.txs back.txs);
    unit "corpus file round trip" (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.crowdsale in
        let rng = Util.Rng.create 22L in
        let seeds =
          List.init 3 (fun _ ->
              Mufuzz.Seed.of_sequence rng ~n_senders:3 c.abi
                [ "constructor"; "invest" ])
        in
        let path = Filename.temp_file "corpus" ".txt" in
        Mufuzz.Replay.save_corpus path seeds;
        let loaded, skipped = Mufuzz.Replay.load_corpus ~abi:c.abi path in
        Sys.remove path;
        Alcotest.(check int) "three seeds" 3 (List.length loaded);
        Alcotest.(check int) "nothing skipped" 0 (List.length skipped));
    unit "corrupt block skipped, rest load" (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.crowdsale in
        let rng = Util.Rng.create 23L in
        let seeds =
          List.init 2 (fun _ ->
              Mufuzz.Seed.of_sequence rng ~n_senders:3 c.abi
                [ "constructor"; "invest" ])
        in
        let path = Filename.temp_file "corpus" ".txt" in
        (* good block, corrupt block (unknown function), good block *)
        let oc = open_out path in
        output_string oc (Mufuzz.Replay.seed_to_string (List.nth seeds 0));
        output_string oc "\nnonsense 0 aa\n\n";
        output_string oc (Mufuzz.Replay.seed_to_string (List.nth seeds 1));
        close_out oc;
        let loaded, skipped = Mufuzz.Replay.load_corpus ~abi:c.abi path in
        Sys.remove path;
        Alcotest.(check int) "two seeds survive" 2 (List.length loaded);
        (match skipped with
        | [ (1, reason) ] ->
          Alcotest.(check bool) "reason mentions the function" true
            (String.length reason > 0)
        | _ -> Alcotest.fail "expected exactly block 1 skipped"));
    unit "unknown function rejected" (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.crowdsale in
        match Mufuzz.Replay.seed_of_string ~abi:c.abi "nonsense 0 aa\n" with
        | exception Mufuzz.Replay.Corrupt _ -> ()
        | _ -> Alcotest.fail "should raise");
    unit "campaign accepts a replayed corpus" (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.crowdsale in
        let r1 =
          Mufuzz.Campaign.run
            ~config:{ Mufuzz.Config.default with max_executions = 200 } c
        in
        (* bootstrap a second campaign from the first one's queue *)
        let r2 =
          Mufuzz.Campaign.run
            ~config:{ Mufuzz.Config.default with max_executions = 200;
                      initial_corpus = r1.corpus }
            c
        in
        Alcotest.(check bool) "at least as much coverage" true
          (r2.covered_branches >= r1.covered_branches - 2))
  ]

let suite = suite @ [ ("mufuzz: replay", replay_tests) ]

(* The retired [state_caching] knob: new documents omit it, and
   checkpoints written while it existed still load. *)
let config_codec_tests =
  [
    unit "to_json no longer emits state_caching" (fun () ->
        match Mufuzz.Config.to_json Mufuzz.Config.default with
        | Telemetry.Json.Obj fields ->
          Alcotest.(check bool) "absent" false (List.mem_assoc "state_caching" fields)
        | _ -> Alcotest.fail "config JSON is not an object");
    unit "a checkpoint carrying state_caching still loads" (fun () ->
        let contract = Minisol.Contract.compile Corpus.Examples.crowdsale in
        let config = { Mufuzz.Config.default with max_executions = 300 } in
        let snap = ref None in
        let hook ~final ~bus:_ ~execs thunk =
          if (not final) && execs >= 100 && Option.is_none !snap then
            snap := Some (thunk ())
        in
        ignore (Mufuzz.Campaign.run ~config ~on_safe_point:hook contract);
        let snapshot =
          match !snap with Some s -> s | None -> Alcotest.fail "no safe point"
        in
        let ckpt = { Persist.Checkpoint.tool = "MuFuzz"; config; contract; snapshot } in
        let j =
          match Persist.Checkpoint.to_json ckpt with
          | Telemetry.Json.Obj fields ->
            Telemetry.Json.Obj
              (List.map
                 (fun (k, v) ->
                   match (k, v) with
                   | "config", Telemetry.Json.Obj cf ->
                     (k, Telemetry.Json.Obj (cf @ [ ("state_caching", Telemetry.Json.Bool true) ]))
                   | _ -> (k, v))
                 fields)
          | j -> j
        in
        match Persist.Checkpoint.of_json j with
        | Error e -> Alcotest.fail e
        | Ok loaded ->
          Alcotest.(check string) "re-encodes as without the field"
            (Persist.Checkpoint.to_string ckpt)
            (Persist.Checkpoint.to_string loaded));
  ]

let suite = suite @ [ ("mufuzz: config codec", config_codec_tests) ]
