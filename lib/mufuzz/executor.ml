module U = Word.U256

let deployer = Accounts.deployer

(* The first pool slot is the simulated reentrancy attacker, so seeds
   naturally exercise the callback path when it is chosen as a sender. *)
let sender_pool = Accounts.sender_pool

let contract_address = Accounts.contract_address

(* Enough to fund any plausible sequence of value transfers without a
   sender ever running dry. *)
let initial_balance = U.shift_left U.one 200

type tx_result = Executor_types.tx_result = {
  tx_index : int;
  fn_name : string;
  success : bool;
  trace : Evm.Trace.t;
}

type run = {
  tx_results : tx_result list;
  final_state : Evm.State.t;
  received_value : bool;
  executed_steps : int;
  logical_steps : int;
}

(* Post-deploy world state memo. Every seed execution previously
   re-deployed the contract (running its init code through the
   interpreter) and re-credited the account pool; both are pure
   functions of (contract, n_senders), and [Evm.State.t] is immutable,
   so the resulting state can be shared freely. Keyed by physical
   equality on the contract — a campaign fuzzes a handful of contract
   values, each a single shared allocation. Domain-local so the memo is
   lock-free under the parallel runner. *)
let initial_state_memo :
    (Minisol.Contract.t * int * Evm.State.t) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let memo_capacity = 8

let initial_state_for ~contract ~n_senders senders =
  let memo = Domain.DLS.get initial_state_memo in
  let rec find = function
    | [] -> None
    | (c, n, st) :: rest ->
      if c == contract && n = n_senders then Some st else find rest
  in
  match find !memo with
  | Some st -> st
  | None ->
    let st = Minisol.Contract.deploy Evm.State.empty contract_address contract in
    let st = Evm.State.credit st deployer initial_balance in
    (* the deployer closes the caller pool but is already funded above —
       crediting it again would shift balances against pre-pool states *)
    let st =
      Array.fold_left
        (fun st s ->
          if U.equal s deployer then st else Evm.State.credit st s initial_balance)
        st senders
    in
    let kept =
      if List.length !memo >= memo_capacity then
        List.filteri (fun i _ -> i < memo_capacity - 1) !memo
      else !memo
    in
    memo := (contract, n_senders, st) :: kept;
    st

(* Batch execution context. Everything [run_seed] used to redo per
   call — sender-pool materialisation, post-deploy state lookup,
   interpreter config, and above all telemetry handle resolution
   ([Telemetry.Metrics.counter] takes the registry mutex; resolving
   per execution made that mutex the parallel campaign's hottest
   lock) — is done once here. Per-execution telemetry accumulates in
   {!Telemetry.Metrics.Local} views and reaches the shared registry
   only on [flush], so the execution hot loop touches no cross-domain
   cache line at all.

   A ctx belongs to one domain at a time: the local metric views and
   the (optional) cache shard are unsynchronised by design. The
   parallel campaign builds one ctx per worker domain; hand-off is the
   pool's batch barrier. *)
type ctx = {
  x_gas : int;
  x_senders : Evm.State.address array;
  x_config : Evm.Interp.config;
  x_initial_state : Evm.State.t;
  x_cache : State_cache.t option;
  x_txs : Telemetry.Metrics.Local.lcounter option;
  x_steps : Telemetry.Metrics.Local.lcounter option;
  x_prefix_hits : Telemetry.Metrics.Local.lcounter option;
  x_gas_hist : Telemetry.Metrics.Local.lhistogram option;
}

let make_ctx ~contract ~gas ~n_senders ~attacker ?(comparisons = true) ?cache
    ?metrics () =
  let senders = Array.of_list (Accounts.caller_pool n_senders) in
  Evm.Interp.preheat ();
  let local_counter m name help =
    Telemetry.Metrics.Local.counter (Telemetry.Metrics.counter m name ~help)
  in
  {
    x_gas = gas;
    x_senders = senders;
    x_config =
      {
        Evm.Interp.default_config with
        attacker =
          (if attacker then Evm.Interp.default_config.attacker else None);
        comparisons;
      };
    x_initial_state = initial_state_for ~contract ~n_senders senders;
    x_cache = cache;
    x_txs =
      Option.map
        (fun m ->
          local_counter m "mufuzz_txs_total"
            "transactions executed (cached prefixes excluded)")
        metrics;
    x_steps =
      Option.map
        (fun m ->
          local_counter m "mufuzz_evm_steps_total"
            "EVM opcodes dispatched (cached prefixes excluded)")
        metrics;
    x_prefix_hits =
      Option.map
        (fun m ->
          local_counter m "mufuzz_cache_prefix_hits_total"
            "seed executions resumed from a cached state prefix")
        metrics;
    x_gas_hist =
      Option.map
        (fun m ->
          Telemetry.Metrics.Local.histogram
            (Telemetry.Metrics.histogram m "mufuzz_tx_gas_used"
               ~help:"gas used per executed transaction"))
        metrics;
  }

let flush ctx =
  let fc = Option.iter Telemetry.Metrics.Local.flush_counter in
  fc ctx.x_txs;
  fc ctx.x_steps;
  fc ctx.x_prefix_hits;
  Option.iter Telemetry.Metrics.Local.flush_histogram ctx.x_gas_hist;
  Option.iter State_cache.flush_metrics ctx.x_cache

let run_in_ctx ctx (seed : Seed.t) =
  let gas = ctx.x_gas in
  let senders = ctx.x_senders in
  let cache = ctx.x_cache in
  let config = ctx.x_config in
  let txs = Array.of_list seed.txs in
  let n = Array.length txs in
  (* chained prefix digests: digests.(i) identifies txs.(0 .. i-1) *)
  let digests = Array.make (n + 1) "" in
  (match cache with
  | Some _ ->
    for i = 1 to n do
      digests.(i) <- State_cache.digest_tx digests.(i - 1) txs.(i - 1)
    done
  | None -> ());
  (* resume from the deepest cached prefix *)
  let start, state0, block0, prefix_results, rv0 =
    match cache with
    | None -> (0, ctx.x_initial_state, Evm.Interp.default_block, [], false)
    | Some c ->
      let rec probe k =
        if k = 0 then (0, ctx.x_initial_state, Evm.Interp.default_block, [], false)
        else
          match State_cache.find c digests.(k) with
          | Some (s : State_cache.snapshot) ->
            (k, s.state, s.block, s.tx_results, s.received_value)
          | None -> probe (k - 1)
      in
      probe n
  in
  if start > 0 then Option.iter Telemetry.Metrics.Local.incr ctx.x_prefix_hits;
  Option.iter (fun l -> Telemetry.Metrics.Local.add l (n - start)) ctx.x_txs;
  let state = ref state0 in
  let block = ref block0 in
  let received_value = ref rv0 in
  let results_rev = ref (List.rev prefix_results) in
  (* Opcode dispatches this call actually performed: cached-prefix
     transactions are excluded, mirroring mufuzz_txs_total. *)
  let executed_steps = ref 0 in
  for i = start to n - 1 do
    let tx = txs.(i) in
    let caller =
      if tx.fn.Abi.is_constructor then deployer
      else senders.(tx.sender mod Stdlib.max 1 (Array.length senders))
    in
    let value = Seed.tx_value tx in
    let msg =
      {
        Evm.Interp.caller;
        origin = caller;
        callee = contract_address;
        value;
        data = Seed.tx_calldata tx;
        gas;
      }
    in
    let st', trace = Evm.Interp.execute ~config ~block:!block ~state:!state msg in
    executed_steps := !executed_steps + trace.steps;
    (match ctx.x_gas_hist with
    | Some h -> Telemetry.Metrics.Local.observe h (float_of_int trace.gas_used)
    | None -> ());
    state := st';
    block := Evm.Interp.advance_block !block;
    let success = Evm.Trace.succeeded trace in
    (* constructor endowments don't count: the EF oracle asks whether the
       contract accepts deposits in normal operation *)
    if success && (not (U.is_zero value)) && not tx.fn.Abi.is_constructor then
      received_value := true;
    results_rev := { tx_index = i; fn_name = tx.fn.Abi.name; success; trace }
                   :: !results_rev;
    match cache with
    | Some c ->
      State_cache.store c digests.(i + 1)
        {
          State_cache.state = !state;
          block = !block;
          tx_results = List.rev !results_rev;
          received_value = !received_value;
        }
    | None -> ()
  done;
  Option.iter
    (fun l -> Telemetry.Metrics.Local.add l !executed_steps)
    ctx.x_steps;
  let tx_results = List.rev !results_rev in
  {
    tx_results;
    final_state = !state;
    received_value = !received_value;
    executed_steps = !executed_steps;
    (* cached-prefix traces are part of [tx_results] (snapshots store
       them), so the logical total is computable without re-execution *)
    logical_steps =
      List.fold_left (fun acc (r : tx_result) -> acc + r.trace.steps) 0 tx_results;
  }

(* One dispatch pass over a whole seed population (the CuEVM shape):
   the context's pooled frames, memoized post-deploy state and resolved
   metric handles are reused across every seed, and telemetry reaches
   the shared registry exactly once. Seeds run in list order, so with a
   cache each seed sees the prefixes stored by its predecessors — the
   same warmth a per-seed loop over the same ctx would produce. *)
let run_batch ctx seeds =
  let runs = List.map (run_in_ctx ctx) seeds in
  flush ctx;
  runs

let run_seed ~contract ~gas ~n_senders ~attacker ?cache ?metrics (seed : Seed.t) =
  let ctx = make_ctx ~contract ~gas ~n_senders ~attacker ?cache ?metrics () in
  let r = run_in_ctx ctx seed in
  flush ctx;
  r

let inspect ~static (run : run) =
  Oracles.Oracle.inspect_campaign ~static ~received_value:run.received_value
    (List.map (fun (r : tx_result) -> (r.tx_index, r.success, r.trace))
       run.tx_results)

let findings ~contract ~gas ~n_senders ~attacker seed =
  let run = run_seed ~contract ~gas ~n_senders ~attacker seed in
  inspect ~static:(Oracles.Oracle.static_info_of contract) run
