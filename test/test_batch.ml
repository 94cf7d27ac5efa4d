(* Batch execution (the parallel-path overhaul): [Executor.run_batch]
   must be an amortisation of the per-seed loop, never a semantic
   change — differentially checked seed by seed, including findings,
   step counts and flushed telemetry totals. [Pool.run_batch_iter] must
   merge every result in submission order. *)

let unit name f = Alcotest.test_case name `Quick f

let crowdsale = lazy (Minisol.Contract.compile Corpus.Examples.crowdsale)

(* ---------------- run_batch = per-seed loop (differential) -------- *)

(* A deterministic random seed population: [n] sequences of 1-4
   dictionary-biased transactions over the crowdsale ABI. *)
let gen_population =
  QCheck2.Gen.(
    let* key = int_range 1 1_000_000 in
    let* n = int_range 1 6 in
    return (key, n))

let population key n =
  let c = Lazy.force crowdsale in
  let rng = Util.Rng.create (Int64.of_int key) in
  List.init n (fun _ ->
      let ntx = 1 + Util.Rng.int rng 4 in
      let txs =
        List.init ntx (fun _ ->
            let f = Util.Rng.choose_list rng c.abi in
            Mufuzz.Seed.random_tx rng ~n_senders:3 f)
      in
      { Mufuzz.Seed.txs })

let finding_essence (f : Oracles.Oracle.finding) =
  (Oracles.Oracle.class_to_string f.cls, f.pc, f.tx_index)

let run_essence (r : Mufuzz.Executor.run) =
  ( List.map
      (fun (t : Mufuzz.Executor.tx_result) ->
        (t.tx_index, t.fn_name, t.success, Evm.Trace.branches t.trace))
      r.tx_results,
    r.received_value,
    r.executed_steps,
    r.logical_steps )

let batch_differential =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"run_batch = per-seed run_seed loop, seed by seed"
       ~count:20 gen_population (fun (key, n) ->
         let c = Lazy.force crowdsale in
         let seeds = population key n in
         let static = Oracles.Oracle.static_info_of c in
         (* batch side: one context, one cache, one telemetry flush *)
         let m_batch = Telemetry.Metrics.create () in
         let cache_batch = Mufuzz.State_cache.create () in
         let ctx =
           Mufuzz.Executor.make_ctx ~contract:c ~gas:1_000_000 ~n_senders:3
             ~attacker:true ~cache:cache_batch ~metrics:m_batch ()
         in
         let batch = Mufuzz.Executor.run_batch ctx seeds in
         (* reference side: a fresh run_seed call per seed, sharing a
            second cache so both sides see identical prefix warmth *)
         let m_ref = Telemetry.Metrics.create () in
         let cache_ref = Mufuzz.State_cache.create () in
         let reference =
           List.map
             (fun s ->
               Mufuzz.Executor.run_seed ~contract:c ~gas:1_000_000 ~n_senders:3
                 ~attacker:true ~cache:cache_ref ~metrics:m_ref s)
             seeds
         in
         List.length batch = List.length reference
         && List.for_all2
              (fun b r ->
                run_essence b = run_essence r
                && List.map finding_essence
                     (Mufuzz.Executor.inspect ~static b)
                   = List.map finding_essence
                       (Mufuzz.Executor.inspect ~static r))
              batch reference
         (* flushed telemetry totals agree: the locally-accumulated
            counters lose nothing relative to per-execution updates *)
         && List.for_all
              (fun name ->
                Telemetry.Metrics.(value (counter m_batch name))
                = Telemetry.Metrics.(value (counter m_ref name)))
              [
                "mufuzz_txs_total";
                "mufuzz_evm_steps_total";
                "mufuzz_cache_prefix_hits_total";
                "mufuzz_cache_hits_total";
                "mufuzz_cache_misses_total";
              ]
         && Telemetry.Metrics.(
              histogram_count (histogram m_batch "mufuzz_tx_gas_used")
              = histogram_count (histogram m_ref "mufuzz_tx_gas_used"))
         && Telemetry.Metrics.(
              histogram_sum (histogram m_batch "mufuzz_tx_gas_used")
              = histogram_sum (histogram m_ref "mufuzz_tx_gas_used"))))

let batch_units =
  [
    unit "run_batch on the empty population is empty" (fun () ->
        let c = Lazy.force crowdsale in
        let ctx =
          Mufuzz.Executor.make_ctx ~contract:c ~gas:1_000_000 ~n_senders:3
            ~attacker:true ()
        in
        Alcotest.(check int) "empty" 0
          (List.length (Mufuzz.Executor.run_batch ctx [])));
    unit "telemetry reaches the registry only at flush" (fun () ->
        let c = Lazy.force crowdsale in
        let m = Telemetry.Metrics.create () in
        let ctx =
          Mufuzz.Executor.make_ctx ~contract:c ~gas:1_000_000 ~n_senders:3
            ~attacker:true ~metrics:m ()
        in
        let seed = List.hd (population 7 1) in
        let _run = Mufuzz.Executor.run_in_ctx ctx seed in
        let v () =
          Telemetry.Metrics.(value (counter m "mufuzz_txs_total"))
        in
        Alcotest.(check int) "pending until flush" 0 (v ());
        Mufuzz.Executor.flush ctx;
        Alcotest.(check int) "flushed" (List.length seed.txs) (v ());
        (* flush is idempotent between executions *)
        Mufuzz.Executor.flush ctx;
        Alcotest.(check int) "no double count" (List.length seed.txs) (v ()));
  ]

(* ---------------- incremental in-order merge ---------------- *)

let pool_iter_tests =
  [
    unit "run_batch_iter merges every result in submission order" (fun () ->
        Mufuzz.Pool.with_pool ~jobs:2 (fun pool ->
            let n = 9 in
            let merged = ref [] in
            let tasks =
              Array.init n (fun i ->
                  fun _worker ->
                    (* stagger so completion order differs from
                       submission order *)
                    if i mod 2 = 0 then Unix.sleepf 0.002;
                    i * 10)
            in
            Mufuzz.Pool.run_batch_iter pool tasks ~merge:(fun i v ->
                merged := (i, v) :: !merged);
            Alcotest.(check (list (pair int int)))
              "in submission order"
              (List.init n (fun i -> (i, i * 10)))
              (List.rev !merged)));
    unit "run_batch_iter propagates task failures after draining" (fun () ->
        Mufuzz.Pool.with_pool ~jobs:2 (fun pool ->
            let tasks =
              Array.init 4 (fun i ->
                  fun _worker -> if i = 2 then failwith "boom" else i)
            in
            match
              Mufuzz.Pool.run_batch_iter pool tasks ~merge:(fun _ _ -> ())
            with
            | () -> Alcotest.fail "expected Task_error"
            | exception Mufuzz.Pool.Task_error _ -> ()));
    unit "the pool survives an iter batch for the next batch" (fun () ->
        Mufuzz.Pool.with_pool ~jobs:2 (fun pool ->
            let tasks = Array.init 3 (fun i -> fun _ -> i) in
            Mufuzz.Pool.run_batch_iter pool tasks ~merge:(fun _ _ -> ());
            let out = Mufuzz.Pool.run_batch pool tasks in
            Alcotest.(check (list int)) "second batch" [ 0; 1; 2 ]
              (Array.to_list out)));
  ]

let suite =
  [
    ("batch: executor", batch_differential :: batch_units);
    ("batch: pool iter", pool_iter_tests);
  ]
