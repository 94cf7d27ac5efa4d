module U = Word.U256

let log_src = Logs.Src.create "mufuzz.campaign" ~doc:"MuFuzz campaign events"

module Log = (val Logs.src_log log_src : Logs.LOG)

exception Preempt

type entry = {
  seed : Seed.t;
  path : (int * bool) list;
  nested_hits : (int * bool) list;
  frontier_dists : ((int * bool) * float) list;
  masks : (int, Mask.t) Hashtbl.t;  (* tx index -> cached mask *)
}

let derive_sequence (contract : Minisol.Contract.t) =
  Analysis.Sequence.derive (Analysis.Statevars.analyze contract.ast)

(* Branches whose within-transaction ordinal is >= 2 — the paper's
   "nested branch" (at least two enclosing conditional statements). *)
let nested_hits_of_results (results : Executor.tx_result list) =
  List.concat_map
    (fun (r : Executor.tx_result) ->
      let _, acc =
        List.fold_left
          (fun (ord, acc) ev ->
            match ev with
            | Evm.Trace.Branch { pc; taken; _ } ->
              (ord + 1, if ord + 1 >= 2 then (pc, taken) :: acc else acc)
            | _ -> (ord, acc))
          (0, []) r.trace.events
      in
      acc)
    results
  |> List.sort_uniq compare

let nested_hits_of_run (run : Executor.run) = nested_hits_of_results run.tx_results

let path_of_results (results : Executor.tx_result list) =
  List.concat_map
    (fun (r : Executor.tx_result) -> Evm.Trace.branches r.trace)
    results
  |> List.sort_uniq compare

let path_of_run (run : Executor.run) = path_of_results run.tx_results

(* Best distance toward every frontier side the run visits, in one pass
   over its branch events: an event that went [taken] at [pc] is a visit
   toward [(pc, not taken)], which counts while that side is uncovered
   and its twin covered. Sorted by side; among equal distances the
   earlier visit wins. Distances are finite, so this flat fold agrees
   with a per-trace minimum followed by a minimum across traces. *)
let frontier_dists_of_results coverage (results : Executor.tx_result list) =
  let best = Hashtbl.create 16 in
  List.iter
    (fun (r : Executor.tx_result) ->
      List.iter
        (function
          | Evm.Trace.Branch { pc; taken; dist_to_flip; _ } ->
            let flip = (pc, not taken) in
            if
              (not (Coverage.is_covered coverage flip))
              && Coverage.is_covered coverage (pc, taken)
            then begin
              match Hashtbl.find_opt best flip with
              | Some d when d <= dist_to_flip -> ()
              | _ -> Hashtbl.replace best flip dist_to_flip
            end
          | _ -> ())
        r.trace.events)
    results;
  Hashtbl.fold (fun br d acc -> (br, d) :: acc) best []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let frontier_dists_of_run coverage (run : Executor.run) =
  frontier_dists_of_results coverage run.tx_results

(* Algorithm-2 probe verdict: did the mutant still hit one of the
   seed's nested branches, or get closer to a frontier side than the
   seed's baseline distance? Shared by the sequential and worker
   probing paths so both fold batch results identically. Apply the
   baselines once per mask run: the baseline table is built then, and
   each probe is one pass over its branch events. *)
let mask_feedback ~baseline_nested ~baseline_dists =
  (* a side listed twice is beaten by anything below its larger baseline *)
  let base = Hashtbl.create 16 in
  List.iter
    (fun (br, d) ->
      match Hashtbl.find_opt base br with
      | Some d' when d' >= d -> ()
      | _ -> Hashtbl.replace base br d)
    baseline_dists;
  fun (run : Executor.run) ->
    let hits_nested =
      baseline_nested <> []
      && List.exists
           (fun br -> List.mem br baseline_nested)
           (nested_hits_of_run run)
    in
    let distance_decreased =
      Hashtbl.length base > 0
      && List.exists
           (fun (r : Executor.tx_result) ->
             List.exists
               (function
                 | Evm.Trace.Branch { pc; taken; dist_to_flip; _ } -> (
                   match Hashtbl.find_opt base (pc, not taken) with
                   | Some b -> dist_to_flip < b
                   | None -> false)
                 | _ -> false)
               r.trace.events)
           run.tx_results
    in
    { Mask.hits_nested; distance_decreased }

(* Triage identity of one alarm occurrence: the call path is the
   function-name prefix of the witnessing sequence up to (and including)
   the raising transaction; whole-contract findings (tx_index = -1,
   e.g. EF) use the empty path.

   A campaign raises the same alarms on nearly every execution but
   through few distinct call paths, so [path_hashes] memoises the Keccak
   path digest per call path. It belongs to one campaign's coordinator;
   a global table would be shared across domains. *)
let finding_key path_hashes (seed : Seed.t) (f : Oracles.Oracle.finding) =
  let call_path = Seed.call_path seed ~upto:f.tx_index in
  let k_path =
    match Hashtbl.find_opt path_hashes call_path with
    | Some h -> h
    | None ->
      let h = Oracles.Oracle.path_hash call_path in
      Hashtbl.add path_hashes call_path h;
      h
  in
  { Oracles.Oracle.k_cls = f.cls; k_pc = f.pc; k_path }

let sorted_occurrences occ =
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) occ []
  |> List.sort (fun (a, _) (b, _) -> Oracles.Oracle.compare_key a b)

(* ---------------- checkpoint snapshots ---------------- *)

type snapshot_entry = {
  sn_seed : Seed.t;
  sn_path : (int * bool) list;
  sn_nested : (int * bool) list;
  sn_fdists : ((int * bool) * float) list;
  sn_masks : (int * Mask.t) list;
}

type snapshot = {
  sn_execs : int;
  sn_steps : int;
  sn_mask_probes : int;
  sn_cursor : int;
  sn_rng : int64;
  sn_rng_counter : int;
  sn_elapsed : float;
  sn_entries : snapshot_entry array;
  sn_queue : int list;
  sn_best : ((int * bool) * float * int) list;
  sn_coverage : Coverage.t;
  sn_weights : ((int * bool) * float) list option;
  sn_findings : (Oracles.Oracle.finding * Seed.t) list;
  sn_occ : (Oracles.Oracle.key * int) list;
  sn_over_time : Report.checkpoint list;
  sn_attempts : ((int * bool) * int) list;
  (* v3: round-batch auto-tune controller state + proposal counter *)
  sn_round_batch : int;
  sn_rb_votes : int;
  sn_predict_proposals : int;
}

let snapshot_entry_of_entry (e : entry) =
  {
    sn_seed = e.seed;
    sn_path = e.path;
    sn_nested = e.nested_hits;
    sn_fdists = e.frontier_dists;
    sn_masks =
      Hashtbl.fold (fun i m acc -> (i, m) :: acc) e.masks []
      |> List.sort (fun (a, _) (b, _) -> compare a b);
  }

let entry_of_snapshot_entry (se : snapshot_entry) =
  let masks = Hashtbl.create 4 in
  List.iter (fun (i, m) -> Hashtbl.replace masks i m) se.sn_masks;
  {
    seed = se.sn_seed;
    path = se.sn_path;
    nested_hits = se.sn_nested;
    frontier_dists = se.sn_fdists;
    masks;
  }

(* Capture every mutable structure of a campaign at a safe point. Queue
   and distance pool share [entry] values by physical identity (mask
   caches mutate them in place), so both serialise as indices into one
   deduplicated entry pool. Everything is copied out: the snapshot stays
   valid while the campaign keeps mutating. *)
let capture_snapshot ~execs ~steps ~mask_probes ~cursor ~rng ~rng_counter
    ~elapsed ~queue ~best_for_branch ~coverage ~weight_table ~witness_seeds
    ~occ ~checkpoints ~attempts ~round_batch ~rb_votes ~predict_proposals =
  let seen = ref [] in
  let count = ref 0 in
  let id_of e =
    let rec find = function
      | [] -> None
      | (e', id) :: rest -> if e' == e then Some id else find rest
    in
    match find !seen with
    | Some id -> id
    | None ->
      let id = !count in
      incr count;
      seen := (e, id) :: !seen;
      id
  in
  let sn_queue = List.map id_of (Array.to_list queue) in
  let sn_best =
    List.rev
      (Hashtbl.fold (fun br (d, e) acc -> (br, d, id_of e) :: acc)
         best_for_branch [])
  in
  let sn_entries =
    List.rev_map (fun (e, _) -> snapshot_entry_of_entry e) !seen
    |> Array.of_list
  in
  {
    sn_execs = execs;
    sn_steps = steps;
    sn_mask_probes = mask_probes;
    sn_cursor = cursor;
    sn_rng = Util.Rng.save rng;
    sn_rng_counter = rng_counter;
    sn_elapsed = elapsed;
    sn_entries;
    sn_queue;
    sn_best;
    sn_coverage = Coverage.copy coverage;
    sn_weights =
      Option.map
        (fun tbl ->
          Hashtbl.fold (fun k w acc -> (k, w) :: acc) tbl []
          |> List.sort compare)
        weight_table;
    sn_findings = List.rev witness_seeds;
    sn_occ = sorted_occurrences occ;
    sn_over_time = List.rev checkpoints;
    sn_attempts =
      Hashtbl.fold (fun br n acc -> (br, n) :: acc) attempts []
      |> List.sort compare;
    sn_round_batch = round_batch;
    sn_rb_votes = rb_votes;
    sn_predict_proposals = predict_proposals;
  }

(* Rebuild the seed pool of a snapshot. [sn_best] was recorded in
   [Hashtbl.fold] order and is re-inserted in REVERSE fold order into a
   table of the same initial capacity: stdlib buckets keep bindings
   most-recent-first, resizes preserve relative order and the resize
   points depend only on the binding count, so this reproduces the
   original table layout exactly — and with it the fold order the
   distance-feedback selection observes. That, plus the restored RNG
   stream, is what makes a resumed [--jobs 1] campaign replay the
   uninterrupted one bit-for-bit. *)
let restore_pool (s : snapshot) =
  let entries = Array.map entry_of_snapshot_entry s.sn_entries in
  let queue = Array.of_list (List.map (fun i -> entries.(i)) s.sn_queue) in
  let best_for_branch : (int * bool, float * entry) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun (br, d, i) -> Hashtbl.replace best_for_branch br (d, entries.(i)))
    (List.rev s.sn_best);
  (queue, best_for_branch)

let m_checkpoint_loaded metrics =
  Telemetry.Metrics.counter metrics "mufuzz_checkpoint_loaded_total"
    ~help:"campaign checkpoints restored"

let emit_resumed ~bus ~metrics resume =
  match resume with
  | None -> ()
  | Some (path, s) ->
    Telemetry.Metrics.incr (m_checkpoint_loaded metrics);
    Telemetry.Bus.emit bus
      (Telemetry.Event.Checkpoint_loaded { execs = s.sn_execs; path });
    Log.info (fun m -> m "resumed from %s at exec %d" path s.sn_execs)

(* Immutable per-contract context, derived once and shared read-only by
   the sequential loop and every worker domain. *)
type ctx = {
  x_config : Config.t;
  x_contract : Minisol.Contract.t;
  x_info : Analysis.Statevars.t;
  x_cfg : Analysis.Cfg.t;
  x_dict : Word.U256.t array;
  x_static : Oracles.Oracle.static_info;
  x_abi : Abi.func list;
}

let make_ctx config (contract : Minisol.Contract.t) =
  {
    x_config = config;
    x_contract = contract;
    x_info = Analysis.Statevars.analyze contract.ast;
    x_cfg = Analysis.Cfg.build contract.bytecode;
    (* contract-specific magic numbers for the mutation dictionary,
       straight off the pre-decoded artifact (same words as
       [Bytecode.push_constants], already collected and memoised).
       Under [predict] the callable account universe joins the
       dictionary too, so address-typed words keep landing on accounts
       the sender-swap solver can later impersonate — without the flag
       the dictionary is exactly the pre-prediction one, preserving
       default campaigns byte-for-byte. *)
    x_dict =
      (let consts = (Evm.Bytecode.artifact contract.bytecode).a_push_constants in
       if config.predict then
         Array.append consts
           (Array.of_list (Accounts.caller_pool config.n_senders))
       else consts);
    x_static = Oracles.Oracle.static_info_of contract;
    x_abi = contract.abi;
  }

(* ---------------- telemetry plumbing ---------------- *)

(* A campaign's event bus is assembled from the config's declarative
   sinks (JSONL trace, live status line) plus whatever the caller
   passes programmatically (ring buffers in tests). With neither, this
   is [Bus.null] and every emission below is a single array-length
   test — the no-op overhead guarantee. *)
let make_bus (config : Config.t) ~total_sides sinks =
  let config_sinks =
    (match config.trace_path with
    | Some path -> [ Telemetry.Sink.jsonl path ]
    | None -> [])
    @
    if config.status_interval > 0.0 then
      [ Telemetry.Sink.status ~interval:config.status_interval ~total_sides () ]
    else []
  in
  match config_sinks @ sinks with
  | [] -> Telemetry.Bus.null
  | l -> Telemetry.Bus.create l

let total_sides_of_cfg cfg = 2 * List.length (Analysis.Cfg.branch_points cfg)

(* Branch sides a run is about to cover for the first time — computed
   BEFORE folding the run into [coverage], and only when someone is
   listening. *)
let pending_new_sides bus coverage results =
  if not (Telemetry.Bus.enabled bus) then []
  else
    List.filter
      (fun br -> not (Coverage.is_covered coverage br))
      (path_of_results results)

let emit_new_sides bus coverage sides =
  List.iter
    (fun (pc, taken) ->
      Telemetry.Bus.emit bus
        (Telemetry.Event.New_branch_side
           { pc; taken; covered = Coverage.covered_count coverage }))
    sides

let emit_finding bus (f : Oracles.Oracle.finding) =
  Telemetry.Bus.emit bus
    (Telemetry.Event.Finding_raised
       {
         cls = Oracles.Oracle.class_to_string f.cls;
         pc = f.pc;
         tx_index = f.tx_index;
       })

(* the registry handles every campaign records through *)
type meters = {
  m_execs : Telemetry.Metrics.counter;
  m_findings : Telemetry.Metrics.counter;
  m_enqueued : Telemetry.Metrics.counter;
  m_probes : Telemetry.Metrics.counter;
  m_probes_coord : Telemetry.Metrics.counter;
  m_predict_proposed : Telemetry.Metrics.counter;
  m_predict_flipped : Telemetry.Metrics.counter;
  m_covered : Telemetry.Metrics.gauge;
}

let make_meters metrics =
  let c name help = Telemetry.Metrics.counter metrics name ~help in
  {
    m_execs = c "mufuzz_executions_total" "transaction-sequence executions";
    m_findings = c "mufuzz_findings_total" "distinct (bug class, pc) findings";
    m_enqueued = c "mufuzz_seeds_enqueued_total" "seeds added to the selection queue";
    m_probes = c "mufuzz_mask_probes_total" "Algorithm-2 mask probe executions";
    m_probes_coord =
      c "mufuzz_mask_probes_coordinator_total"
        "mask probes executed on the coordinator domain (zero whenever \
         jobs > 1: probing runs inside worker tasks)";
    m_predict_proposed =
      c "mufuzz_predict_proposed_total" "input-prediction proposals executed";
    m_predict_flipped =
      c "mufuzz_predict_flipped_total"
        "frontier branch sides covered by a prediction proposal";
    m_covered =
      Telemetry.Metrics.gauge metrics "mufuzz_covered_sides"
        ~help:"branch sides covered so far";
  }

(* ---------------- initial seeds ---------------- *)

let base_sequence ctx rng =
  match ctx.x_config.Config.sequence_mode with
  | Config.Seq_random -> Analysis.Sequence.random_sequence rng ctx.x_info
  | Config.Seq_dataflow -> Analysis.Sequence.derive_base ctx.x_info
  | Config.Seq_dataflow_repeat -> Analysis.Sequence.derive ctx.x_info

let new_seed ctx rng =
  let config = ctx.x_config in
  let seed =
    Seed.of_sequence ~dict:ctx.x_dict rng ~n_senders:config.n_senders ctx.x_abi
      ("constructor" :: base_sequence ctx rng)
  in
  if not config.prolongation then seed
  else begin
    (* IR-Fuzz-style prolongation: stretch the tail with extra calls *)
    let fns = Minisol.Contract.callable_functions ctx.x_contract in
    if fns = [] then seed
    else
      let extra =
        List.init (1 + Util.Rng.int rng 3) (fun _ ->
            Seed.random_tx ~dict:ctx.x_dict rng ~n_senders:config.n_senders
              (Util.Rng.choose_list rng fns))
      in
      { Seed.txs = seed.txs @ extra }
  end

(* ---------------- sequence-level mutation (§IV-A, continuing) ------- *)

let mutate_sequence ctx rng (seed : Seed.t) =
  let config = ctx.x_config in
  let info = ctx.x_info in
  match seed.txs with
  | [] | [ _ ] -> seed
  | ctor :: rest -> begin
    let rest = Array.of_list rest in
    let n = Array.length rest in
    (match
       (* RAW-targeted duplication and sequence extension are the §IV-A
          moves of the full system. Baselines mutate the ORDER of their
          sequences (the paper's §III-B point is precisely that they
          cannot make a transaction run twice); IR-Fuzz's extension
          happens at seed creation via prolongation instead. *)
       if config.sequence_mode = Config.Seq_dataflow_repeat then Util.Rng.int rng 3
       else 1
     with
    | 0 ->
      (* duplicate a transaction whose function the RAW rule marks as
         repeatable (fall back to any) *)
      let candidates =
        Array.to_list rest
        |> List.filter (fun (tx : Seed.tx) ->
               match Analysis.Statevars.info info tx.fn.Abi.name with
               | Some fi -> Analysis.Statevars.should_repeat info fi
               | None -> false)
      in
      let tx =
        match candidates with
        | [] -> rest.(Util.Rng.int rng n)
        | l -> Util.Rng.choose_list rng l
      in
      let pos = Util.Rng.int rng (n + 1) in
      let l = Array.to_list rest in
      let before = List.filteri (fun i _ -> i < pos) l in
      let after = List.filteri (fun i _ -> i >= pos) l in
      { Seed.txs = ctor :: (before @ [ tx ] @ after) }
    | 1 when n >= 2 ->
      let i = Util.Rng.int rng n and j = Util.Rng.int rng n in
      let tmp = rest.(i) in
      rest.(i) <- rest.(j);
      rest.(j) <- tmp;
      { Seed.txs = ctor :: Array.to_list rest }
    | _ ->
      (* append a random callable *)
      let fns = Minisol.Contract.callable_functions ctx.x_contract in
      if fns = [] then seed
      else
        let fn = Util.Rng.choose_list rng fns in
        { Seed.txs = ctor :: (Array.to_list rest
                              @ [ Seed.random_tx ~dict:ctx.x_dict rng
                                    ~n_senders:config.n_senders fn ]) })
  end

(* ---------------- input prediction (hybrid fuzzing) ---------------- *)

(* Count a run's visits to still-uncovered branch flip sides. The table
   drives the prediction trigger: once a frontier side has been reached
   [predict_attempts] times without flipping, the solver fires for it. *)
let note_flip_attempts ~coverage attempts (results : Executor.tx_result list) =
  List.iter
    (fun (r : Executor.tx_result) ->
      List.iter
        (function
          | Evm.Trace.Branch { pc; taken; _ } ->
            let other = (pc, not taken) in
            if not (Coverage.is_covered coverage other) then
              Hashtbl.replace attempts other
                (1 + Option.value ~default:0 (Hashtbl.find_opt attempts other))
          | _ -> ())
        r.trace.Evm.Trace.events)
    results

(* The comparison site guarding frontier side [(pc, want)] in a replay
   that reached its other side: the solver's target, tagged with the
   transaction whose input feeds it. *)
let comparison_for_branch (results : Executor.tx_result list) (pc, want) =
  List.find_map
    (fun (r : Executor.tx_result) ->
      List.find_map
        (function
          | Evm.Trace.Branch { pc = p; taken; cmp = Some c; _ }
            when p = pc && taken = not want ->
            Some (r.tx_index, c)
          | _ -> None)
        r.trace.Evm.Trace.events)
    results

(* Proposal seeds for flipping frontier side [want] of the comparison
   [cmp] reached by [e.seed]'s transaction [tx_index]: mask-respecting
   stream patches of each solved value (calldata / msg.value operands),
   plus a sender swap when the operand is the caller address — the
   solved value then IS the address the guard wants, so the proposal is
   the pool account holding it rather than a byte patch. Deduplicated,
   capped at [predict_max_candidates]. *)
let predict_proposals ctx (e : entry) ~tx_index ~(cmp : Evm.Trace.comparison)
    ~want =
  let config = ctx.x_config in
  let module T = Evm.Trace.Taint in
  match List.nth_opt e.seed.Seed.txs tx_index with
  | None -> []
  | Some tx ->
    (* the mask-interaction invariant: solved bytes land only where the
       cached Algorithm-2 mask admits an overwrite (no mask yet means
       nothing is known to be protected) *)
    let allow pos =
      match Hashtbl.find_opt e.masks tx_index with
      | Some msk -> Mask.allows msk Mutation.O ~pos
      | None -> true
    in
    let args_len = Abi.args_byte_length tx.Seed.fn in
    let cands = Predict.Solver.candidates cmp ~want in
    let of_stream stream =
      Seed.with_tx e.seed tx_index { tx with Seed.stream }
    in
    let stream_patches =
      List.concat_map
        (fun (side, v) ->
          let taint = Predict.Solver.side_taint cmp side in
          if T.has taint T.calldata || T.has taint T.callvalue then
            Predict.Inject.patches ~allow ~taint
              ~current:(Predict.Solver.side_value cmp side)
              ~args_len ~stream:tx.Seed.stream v
            |> List.map of_stream
          else [])
        cands
    in
    let sender_swaps =
      List.filter_map
        (fun (side, v) ->
          if not (T.has (Predict.Solver.side_taint cmp side) T.caller) then None
          else
            let rec find i = function
              | [] -> None
              | a :: rest -> if U.equal a v then Some i else find (i + 1) rest
            in
            match find 0 (Accounts.caller_pool config.Config.n_senders) with
            | Some idx when idx <> tx.Seed.sender ->
              Some (Seed.with_tx e.seed tx_index { tx with Seed.sender = idx })
            | _ -> None)
        cands
    in
    let seen = ref [] in
    List.filter
      (fun s ->
        if List.mem s !seen then false
        else begin
          seen := s :: !seen;
          true
        end)
      (stream_patches @ sender_swaps)
    |> List.filteri (fun i _ -> i < config.Config.predict_max_candidates)

(* Frontier sides whose attempt count crossed the firing threshold and
   for which the distance pool still holds a witness entry, nearest
   (lowest pc) first. *)
let predict_ready (config : Config.t) ~coverage ~best_for_branch attempts =
  Hashtbl.fold
    (fun br n acc ->
      if
        n >= config.predict_attempts
        && (not (Coverage.is_covered coverage br))
        && Hashtbl.mem best_for_branch br
      then br :: acc
      else acc)
    attempts []
  |> List.sort compare

let run ?(config = Config.default) ?(sinks = []) ?metrics ?resume ?on_safe_point
    (contract : Minisol.Contract.t) =
  (* shift the clock back by the time already spent before the
     checkpoint, so wall_seconds and the max_seconds budget span the
     whole logical campaign, not just this process *)
  let prior_elapsed =
    match resume with Some (_, s) -> s.sn_elapsed | None -> 0.0
  in
  let start_time = Unix.gettimeofday () -. prior_elapsed in
  let rng =
    match resume with
    | Some (_, s) -> Util.Rng.restore s.sn_rng
    | None -> Util.Rng.create config.rng_seed
  in
  let ctx = make_ctx config contract in
  let cfg = ctx.x_cfg in
  let dict = ctx.x_dict in
  let static = ctx.x_static in
  let metrics =
    match metrics with Some m -> m | None -> Telemetry.Metrics.create ()
  in
  let bus = make_bus config ~total_sides:(total_sides_of_cfg cfg) sinks in
  let meters = make_meters metrics in
  let coverage =
    match resume with
    | Some (_, s) -> Coverage.copy s.sn_coverage
    | None -> Coverage.create ()
  in
  let findings_tbl : (Oracles.Oracle.bug_class * int, unit) Hashtbl.t =
    Hashtbl.create 16
  in
  let occ : (Oracles.Oracle.key, int) Hashtbl.t = Hashtbl.create 32 in
  let path_hashes : (string list, string) Hashtbl.t = Hashtbl.create 16 in
  let findings = ref [] in
  let witnesses = ref [] in
  let witness_seeds = ref [] in
  (match resume with
  | Some (_, s) ->
    List.iter (fun (k, n) -> Hashtbl.replace occ k n) s.sn_occ;
    List.iter
      (fun ((f : Oracles.Oracle.finding), seed) ->
        Hashtbl.replace findings_tbl (f.cls, f.pc) ();
        findings := f :: !findings;
        witnesses := (f, Seed.show seed) :: !witnesses;
        witness_seeds := (f, seed) :: !witness_seeds)
      s.sn_findings
  | None -> ());
  let attempts : (int * bool, int) Hashtbl.t = Hashtbl.create 64 in
  (match resume with
  | Some (_, s) ->
    List.iter (fun (br, n) -> Hashtbl.replace attempts br n) s.sn_attempts
  | None -> ());
  let execs = ref (match resume with Some (_, s) -> s.sn_execs | None -> 0) in
  let steps = ref (match resume with Some (_, s) -> s.sn_steps | None -> 0) in
  let checkpoints =
    ref (match resume with Some (_, s) -> List.rev s.sn_over_time | None -> [])
  in
  let weight_table : (int * bool, float) Hashtbl.t option ref =
    ref
      (if not config.dynamic_energy then None
       else
         let tbl = Hashtbl.create 64 in
         (match resume with
         | Some (_, { sn_weights = Some ws; _ }) ->
           List.iter (fun (k, w) -> Hashtbl.replace tbl k w) ws
         | _ -> ());
         Some tbl)
  in
  let deadline =
    if config.max_seconds > 0.0 then Some (start_time +. config.max_seconds)
    else None
  in
  let time_exhausted () =
    match deadline with None -> false | Some d -> Unix.gettimeofday () >= d
  in
  let budget_left () =
    !execs < config.max_executions && not (time_exhausted ())
  in
  (* one executor context for the whole campaign: telemetry handles
     resolve once, per-execution counts accumulate locally and flush at
     safe points / campaign end instead of per execution *)
  let xctx =
    Executor.make_ctx ~contract ~gas:config.gas_per_tx
      ~n_senders:config.n_senders ~attacker:config.attacker_enabled ~metrics ()
  in
  emit_resumed ~bus ~metrics resume;
  (* Execute a seed, fold its feedback into every table, return the run
     plus whether it covered a new branch side. *)
  let exec_and_observe seed =
    let run = Executor.run_in_ctx xctx seed in
    incr execs;
    (* logical steps: a pure function of the executed seeds, so the
       report total survives checkpoint/resume *)
    steps := !steps + run.Executor.logical_steps;
    Telemetry.Metrics.incr meters.m_execs;
    let new_sides = pending_new_sides bus coverage run.tx_results in
    let fresh =
      List.fold_left
        (fun fresh (r : Executor.tx_result) -> Coverage.record coverage r.trace || fresh)
        false run.tx_results
    in
    Telemetry.Bus.emit bus
      (Telemetry.Event.Exec_completed { worker = 0; fresh });
    emit_new_sides bus coverage new_sides;
    if config.predict then
      note_flip_attempts ~coverage attempts run.tx_results;
    if fresh then begin
      Telemetry.Metrics.set meters.m_covered
        (float_of_int (Coverage.covered_count coverage));
      Log.debug (fun m ->
          m "exec %d: coverage %d sides" !execs (Coverage.covered_count coverage))
    end;
    let executions =
      List.map (fun (r : Executor.tx_result) -> (r.tx_index, r.success, r.trace))
        run.tx_results
    in
    List.iter
      (fun (f : Oracles.Oracle.finding) ->
        let tkey = finding_key path_hashes seed f in
        Hashtbl.replace occ tkey
          (1 + Option.value ~default:0 (Hashtbl.find_opt occ tkey));
        let key = (f.cls, f.pc) in
        if not (Hashtbl.mem findings_tbl key) then begin
          Hashtbl.replace findings_tbl key ();
          findings := f :: !findings;
          witnesses := (f, Seed.show seed) :: !witnesses;
          witness_seeds := (f, seed) :: !witness_seeds;
          Telemetry.Metrics.incr meters.m_findings;
          emit_finding bus f;
          Log.info (fun m ->
              m "exec %d: new finding %a" !execs Oracles.Oracle.pp_finding f)
        end)
      (Oracles.Oracle.inspect_campaign ~static ~received_value:run.received_value
         executions);
    (* pre-fuzz / continuous branch weighting (Algorithm 3) *)
    (match !weight_table with
    | Some tbl when fresh ->
      List.iter
        (fun (r : Executor.tx_result) ->
          List.iter
            (fun (wb : Analysis.Prefix.weighted_branch) ->
              let key = (wb.pc, wb.taken) in
              match Hashtbl.find_opt tbl key with
              | Some w when w >= wb.weight -> ()
              | _ -> Hashtbl.replace tbl key wb.weight)
            (Analysis.Prefix.analyze_trace ~params:config.prefix_params cfg r.trace))
        run.tx_results
    | _ -> ());
    checkpoints :=
      { Report.execs = !execs; covered = Coverage.covered_count coverage }
      :: !checkpoints;
    (run, fresh)
  in
  let mk_entry seed run =
    {
      seed;
      path = path_of_run run;
      nested_hits = nested_hits_of_run run;
      frontier_dists = frontier_dists_of_run coverage run;
      masks = Hashtbl.create 4;
    }
  in
  (* ---------------- initial seeds ---------------- *)
  let new_seed () = new_seed ctx rng in
  let restored_queue, restored_best =
    match resume with
    | Some (_, s) -> restore_pool s
    | None -> ([||], Hashtbl.create 64)
  in
  let queue : entry array ref = ref restored_queue in
  let queue_add e =
    let cap = 128 in
    let q = Array.to_list !queue @ [ e ] in
    let q = if List.length q > cap then List.tl q else q in
    queue := Array.of_list q;
    Telemetry.Metrics.incr meters.m_enqueued;
    Telemetry.Bus.emit bus
      (Telemetry.Event.Seed_enqueued
         { txs = List.length e.seed.txs; queue_len = Array.length !queue })
  in
  let best_for_branch : (int * bool, float * entry) Hashtbl.t = restored_best in
  let note_entry e =
    List.iter
      (fun (br, d) ->
        match Hashtbl.find_opt best_for_branch br with
        | Some (best, _) when best <= d -> ()
        | _ -> Hashtbl.replace best_for_branch br (d, e))
      e.frontier_dists
  in
  (* a resumed campaign already carries its seeded queue; re-running the
     bootstrap would double-spend the budget and desync the RNG *)
  if resume = None then begin
    (* replayed corpus first, then freshly generated seeds *)
    List.iter
      (fun seed ->
        if budget_left () then begin
          let run, _fresh = exec_and_observe seed in
          let e = mk_entry seed run in
          queue_add e;
          note_entry e
        end)
      config.initial_corpus;
    for _ = 1 to config.initial_seeds do
      if budget_left () then begin
        let seed = new_seed () in
        let run, _fresh = exec_and_observe seed in
        let e = mk_entry seed run in
        queue_add e;
        note_entry e
      end
    done
  end;
  (* ---------------- mask probing ---------------- *)
  let mask_probes_used =
    ref (match resume with Some (_, s) -> s.sn_mask_probes | None -> 0)
  in
  let predict_proposed =
    ref (match resume with Some (_, s) -> s.sn_predict_proposals | None -> 0)
  in
  let mask_budget_left () =
    float_of_int !mask_probes_used
    < config.mask_budget_fraction *. float_of_int config.max_executions
  in
  let get_mask (e : entry) tx_index =
    match Hashtbl.find_opt e.masks tx_index with
    | Some m -> Some m
    | None when not (mask_budget_left ()) -> None
    | None ->
      let tx = List.nth e.seed.txs tx_index in
      let baseline_nested = e.nested_hits in
      let baseline_dists = e.frontier_dists in
      if baseline_nested = [] && baseline_dists = [] then None
      else begin
        (* staged Algorithm 2: the plan draws from [rng] exactly as the
           interleaved [Mask.compute] would, then each probe executes in
           plan order — the parallel runner batches this same schedule
           through the worker pool *)
        let pl =
          Mask.plan rng ~stride:config.mask_stride
            ~max_probes:config.mask_max_probes tx.stream
        in
        let probes_before = !mask_probes_used in
        let feedback = mask_feedback ~baseline_nested ~baseline_dists in
        let feedbacks =
          Array.map
            (fun (p : Mask.probe) ->
              if not (budget_left ()) then None
              else begin
                let probe_seed =
                  Seed.with_tx e.seed tx_index
                    { tx with stream = p.probe_stream }
                in
                incr mask_probes_used;
                let run, _ = exec_and_observe probe_seed in
                Some (feedback run)
              end)
            (Mask.probes pl)
        in
        let m = Mask.finish pl feedbacks in
        let spent = !mask_probes_used - probes_before in
        Telemetry.Metrics.add meters.m_probes spent;
        Telemetry.Metrics.add meters.m_probes_coord spent;
        Telemetry.Bus.emit bus
          (Telemetry.Event.Mask_updated { tx_index; probes = spent });
        if Hashtbl.length e.masks < config.mask_cache_max then
          Hashtbl.replace e.masks tx_index m;
        Some m
      end
  in
  let mutate_sequence seed = mutate_sequence ctx rng seed in
  let cursor = ref (match resume with Some (_, s) -> s.sn_cursor | None -> 0) in
  (* Safe points: moments where every feedback structure is consistent
     and no work is in flight, so the whole campaign can be captured.
     The snapshot is built lazily — only when the hook decides the
     cadence is due does any copying happen. *)
  let safe_point ~final =
    (* metrics sinks observing at the safe point see exact totals *)
    Executor.flush xctx;
    match on_safe_point with
    | None -> ()
    | Some hook ->
      hook ~final ~bus ~execs:!execs (fun () ->
          capture_snapshot ~execs:!execs ~steps:!steps
            ~mask_probes:!mask_probes_used ~cursor:!cursor ~rng ~rng_counter:0
            ~elapsed:(Unix.gettimeofday () -. start_time)
            ~queue:!queue ~best_for_branch ~coverage
            ~weight_table:!weight_table ~witness_seeds:!witness_seeds ~occ
            ~checkpoints:!checkpoints ~attempts
            ~round_batch:(Stdlib.max 1 config.round_batch) ~rb_votes:0
            ~predict_proposals:!predict_proposed)
  in
  (* ---------------- prediction phase ---------------- *)
  (* Fires once per outer-loop pass over every ready frontier side:
     replay the pool's closest seed to recover the guarding comparison
     (one execution — comparisons are not stored in entries or
     snapshots), then spend up to [predict_max_candidates] executions on
     solved proposals. A firing that fails to flip leaves the attempt
     counter negative by the accumulated count, so each retry waits
     longer than the last — the backoff lives in the attempts table and
     therefore survives checkpoints. Entirely inert when [predict] is
     off: no RNG draws, no executions, no control-flow change. *)
  let predict_phase () =
    if config.predict then
      List.iter
        (fun br ->
          if budget_left () && not (Coverage.is_covered coverage br) then begin
            let fired_at =
              Option.value ~default:0 (Hashtbl.find_opt attempts br)
            in
            Hashtbl.replace attempts br 0;
            let _, e = Hashtbl.find best_for_branch br in
            let replay, _ = exec_and_observe e.seed in
            (match comparison_for_branch replay.Executor.tx_results br with
            | None -> ()
            | Some (tx_index, cmp) ->
              List.iter
                (fun cand ->
                  if budget_left () && not (Coverage.is_covered coverage br)
                  then begin
                    Telemetry.Metrics.incr meters.m_predict_proposed;
                    incr predict_proposed;
                    let run, fresh = exec_and_observe cand in
                    if fresh then begin
                      let e' = mk_entry cand run in
                      queue_add e';
                      note_entry e'
                    end;
                    if Coverage.is_covered coverage br then begin
                      Telemetry.Metrics.incr meters.m_predict_flipped;
                      Log.info (fun m ->
                          m "predict: flipped (%d,%B) at exec %d" (fst br)
                            (snd br) !execs)
                    end
                  end)
                (predict_proposals ctx e ~tx_index ~cmp ~want:(snd br)));
            if not (Coverage.is_covered coverage br) then
              Hashtbl.replace attempts br (-fired_at)
          end)
        (predict_ready config ~coverage ~best_for_branch attempts)
  in
  (* A hook may raise [Preempt] from a non-final safe point to yield the
     campaign: the loop exits immediately with [Report.Preempted], the
     snapshot the hook captured being the resume point. Safe points are
     the only raise sites, so the exception always leaves every feedback
     structure consistent. *)
  let preempted = ref false in
  (* ---------------- main loop ---------------- *)
  (try
  (* black-box mode: no feedback, fresh random seeds until the budget ends *)
  if config.blackbox then
    while budget_left () do
      safe_point ~final:false;
      ignore (exec_and_observe (new_seed ()))
    done;
  while budget_left () && Array.length !queue > 0 do
    safe_point ~final:false;
    predict_phase ();
    (* Branch-distance-feedback selection (Algorithm 1 lines 8-13): most
       picks go to the seed closest to some still-uncovered branch. *)
    let entry =
      let frontier =
        Hashtbl.fold
          (fun br (d, e) acc ->
            if Coverage.is_covered coverage br then acc else (br, d, e) :: acc)
          best_for_branch []
      in
      if config.distance_feedback && frontier <> [] && Util.Rng.float rng < 0.7 then
        let _, _, e = Util.Rng.choose_list rng frontier in
        e
      else begin
        let q = !queue in
        let e = q.(!cursor mod Array.length q) in
        incr cursor;
        e
      end
    in
    let energy =
      Energy.assign ~dynamic:config.dynamic_energy ~base:config.base_energy
        ~max_energy:config.max_energy
        ~weights:!weight_table ~path:entry.path
    in
    Telemetry.Bus.emit bus (Telemetry.Event.Energy_reassigned { energy });
    let remaining = ref energy in
    while !remaining > 0 && budget_left () do
      let ntx = List.length entry.seed.txs in
      let tx_index = Util.Rng.int rng ntx in
      let tx = List.nth entry.seed.txs tx_index in
      let stream = tx.Seed.stream in
      let mask =
        if config.mask_guided && (entry.nested_hits <> [] || entry.frontier_dists <> [])
        then get_mask entry tx_index
        else None
      in
      let pos = Util.Rng.int rng (Stdlib.max 1 (String.length stream)) in
      let m = Mutation.random rng ~max_n:8 in
      let allowed =
        match mask with
        | Some msk -> Mask.allows msk m.Mutation.kind ~pos
        | None -> true
      in
      if not allowed then remaining := !remaining - 1
      else begin
        let mutated = Mutation.apply ~dict rng m ~pos stream in
        let candidate = Seed.with_tx entry.seed tx_index { tx with stream = mutated } in
        let candidate =
          if Util.Rng.float rng < config.sequence_mutation_prob then
            mutate_sequence candidate
          else candidate
        in
        if budget_left () then begin
          let run, fresh = exec_and_observe candidate in
          if fresh then begin
            let e = mk_entry candidate run in
            queue_add e;
            note_entry e
          end
          else begin
            (* Algorithm 1 lines 8-13: a seed that gets closer to an
               uncovered branch joins the selection pool even without new
               coverage — this is what lets mutation hill-climb strict
               conditions. *)
            let dists = frontier_dists_of_run coverage run in
            let improves =
              List.exists
                (fun (br, d) ->
                  match Hashtbl.find_opt best_for_branch br with
                  | Some (best, _) -> d < best
                  | None -> true)
                dists
            in
            if improves then
              note_entry
                { seed = candidate; path = path_of_run run;
                  nested_hits = nested_hits_of_run run;
                  frontier_dists = dists; masks = Hashtbl.create 4 }
          end;
          remaining := Energy.update !remaining ~new_coverage:fresh
        end
        else remaining := 0
      end
    done
  done
  with Preempt -> preempted := true);
  if !preempted then
    (* the preempting hook already captured its snapshot; the final
       flush keeps metrics sinks exact without re-running the hook *)
    Executor.flush xctx
  else safe_point ~final:true;
  let stop_reason =
    if !preempted then Report.Preempted
    else if !execs >= config.max_executions then Report.Budget_exhausted
    else if time_exhausted () then Report.Time_exhausted
    else Report.Queue_exhausted
  in
  let report =
    {
      Report.contract_name = contract.name;
      executions = !execs;
      steps = !steps;
      mask_probes = !mask_probes_used;
      predict_proposals = !predict_proposed;
      covered_branches = Coverage.covered_count coverage;
      covered = List.sort compare (Coverage.covered coverage);
      total_branch_sides = 2 * List.length (Analysis.Cfg.branch_points cfg);
      findings = Oracles.Oracle.dedup (List.rev !findings);
      occurrences = sorted_occurrences occ;
      witnesses = List.rev !witnesses;
      witness_seeds = List.rev !witness_seeds;
      over_time = List.rev !checkpoints;
      seeds_in_queue = Array.length !queue;
      corpus = Array.to_list !queue |> List.map (fun e -> e.seed);
      corpus_skipped = [];
      wall_seconds = Unix.gettimeofday () -. start_time;
      stop_reason;
      parallel = None;
    }
  in
  Telemetry.Bus.finalize bus;
  report

(* ==================== parallel campaign (domain pool) ====================

   Round-based coordinator/worker split. The coordinator owns every
   feedback structure of Algorithm 1 (seed queue, global coverage,
   branch-distance pool, energy weight table, findings); workers own
   nothing but a coverage snapshot, a private RNG stream and a
   per-domain executor context. Each round the coordinator picks up
   to [jobs] distinct seeds with the sequential selection policy,
   reserves disjoint slices of the execution budget as quotas, and ships
   one seed-energy batch per worker. Workers run the exact inner
   mutation loop of [run] against their local coverage copy and return
   candidates; the coordinator merges results in task order, so
   Algorithms 2-3 semantics are unchanged — only freshness is judged
   against a snapshot that can be one batch stale, which costs at most a
   few duplicate queue entries, never a lost one. *)

type cand_kind = Cand_fresh | Cand_improving

type cand = {
  c_seed : Seed.t;
  c_tx_results : Executor.tx_result list;
  c_kind : cand_kind;
}

type task_result = {
  t_worker : int;
  t_execs : int;
  t_steps : int;
  t_probes : int;
  t_cands : cand list;  (* execution order *)
  t_findings : (Oracles.Oracle.finding * Seed.t) list;  (* execution order *)
  t_weights : ((int * bool) * float) list;
  t_cov : Coverage.t;
  t_attempts : ((int * bool) * int) list;
      (* flip-attempt counts against the round-start snapshot; [] when
         prediction is off *)
}

(* One worker-round group: a slice of the round's chosen seed-energy
   pairs, run on a single worker domain. Mirrors the inner energy loop
   of [run] exactly for each entry in turn, with the global budget
   replaced by the reserved [quota], the global mask-probe budget by
   [mask_allowance], and freshness judged against the private [cov]
   snapshot. Shipping [round_batch] entries per task amortises one
   round's dispatch, snapshot and merge cost over several seeds; all
   execution goes through the worker's persistent context, so telemetry
   reaches the shared registry once per task (the coordinator accounts
   the campaign-level exec/probe counters at merge). *)
(* probes per [Executor.run_batch] dispatch inside a worker's mask
   refresh: four stride anchors x four operator kinds *)
let probe_wave_width = 16

let fuzz_group_task ctx ~bus ~xctxs ~group ~quota ~mask_allowance
    ~best_snapshot ~cov rng worker =
  let config = ctx.x_config in
  let execs = ref 0 and steps = ref 0 and probes = ref 0 in
  let cands = ref [] and findings = ref [] and weights = ref [] in
  let attempts : (int * bool, int) Hashtbl.t = Hashtbl.create 16 in
  let quota_left () = !execs < quota in
  let xctx = xctxs.(worker) in
  (* feedback fold for one already-executed run: batch dispatch below
     reuses it so wave results land exactly as per-probe execution did *)
  let observe_run seed (run : Executor.run) =
    incr execs;
    steps := !steps + run.Executor.logical_steps;
    let fresh =
      List.fold_left
        (fun fresh (r : Executor.tx_result) -> Coverage.record cov r.trace || fresh)
        false run.tx_results
    in
    (* freshness here is judged against the round-start snapshot; the
       coordinator re-judges candidates globally at merge time *)
    Telemetry.Bus.emit bus (Telemetry.Event.Exec_completed { worker; fresh });
    if config.predict then note_flip_attempts ~coverage:cov attempts run.tx_results;
    let executions =
      List.map (fun (r : Executor.tx_result) -> (r.tx_index, r.success, r.trace))
        run.tx_results
    in
    List.iter
      (fun (f : Oracles.Oracle.finding) -> findings := (f, seed) :: !findings)
      (Oracles.Oracle.inspect_campaign ~static:ctx.x_static
         ~received_value:run.received_value executions);
    if config.dynamic_energy && fresh then
      List.iter
        (fun (r : Executor.tx_result) ->
          List.iter
            (fun (wb : Analysis.Prefix.weighted_branch) ->
              weights := ((wb.pc, wb.taken), wb.weight) :: !weights)
            (Analysis.Prefix.analyze_trace ~params:config.prefix_params ctx.x_cfg
               r.trace))
        run.tx_results;
    (run, fresh)
  in
  let exec_and_observe seed = observe_run seed (Executor.run_in_ctx xctx seed) in
  let get_mask (entry : entry) tx_index =
    match Hashtbl.find_opt entry.masks tx_index with
    | Some m -> Some m
    | None when !probes >= mask_allowance -> None
    | None ->
      let tx = List.nth entry.seed.txs tx_index in
      let baseline_nested = entry.nested_hits in
      let baseline_dists = entry.frontier_dists in
      if baseline_nested = [] && baseline_dists = [] then None
      else begin
        (* staged Algorithm 2: plan the probe schedule, execute it in
           stride-grouped waves through the batch executor, fold the
           feedback back. Probes are the only executions inside a mask
           refresh, so the affordable prefix computed up front admits
           exactly the probes the sequential per-probe budget checks
           would have *)
        let pl =
          Mask.plan rng ~stride:config.mask_stride
            ~max_probes:config.mask_max_probes tx.stream
        in
        let all = Mask.probes pl in
        let afford =
          Stdlib.min (Array.length all)
            (Stdlib.min
               (Stdlib.max 0 (quota - !execs))
               (Stdlib.max 0 (mask_allowance - !probes)))
        in
        let feedbacks = Array.make (Array.length all) None in
        let feedback = mask_feedback ~baseline_nested ~baseline_dists in
        let executed = ref 0 in
        List.iter
          (fun (wave : Mask.probe array) ->
            if !executed < afford then begin
              let wlen = Stdlib.min (Array.length wave) (afford - !executed) in
              let base = !executed in
              let seeds =
                List.init wlen (fun k ->
                    Seed.with_tx entry.seed tx_index
                      { tx with stream = wave.(k).Mask.probe_stream })
              in
              probes := !probes + wlen;
              let runs = Executor.run_batch xctx seeds in
              List.iteri
                (fun k run ->
                  ignore (observe_run (List.nth seeds k) run);
                  feedbacks.(base + k) <- Some (feedback run))
                runs;
              executed := !executed + wlen
            end)
          (Mask.waves pl ~width:probe_wave_width);
        let m = Mask.finish pl feedbacks in
        Telemetry.Bus.emit bus
          (Telemetry.Event.Mask_updated { tx_index; probes = !executed });
        if Hashtbl.length entry.masks < config.mask_cache_max then
          Hashtbl.replace entry.masks tx_index m;
        Some m
      end
  in
  let fuzz_entry (entry, energy) =
  let remaining = ref energy in
  while !remaining > 0 && quota_left () do
    let ntx = List.length entry.seed.txs in
    let tx_index = Util.Rng.int rng ntx in
    let tx = List.nth entry.seed.txs tx_index in
    let stream = tx.Seed.stream in
    let mask =
      if config.mask_guided && (entry.nested_hits <> [] || entry.frontier_dists <> [])
      then get_mask entry tx_index
      else None
    in
    let pos = Util.Rng.int rng (Stdlib.max 1 (String.length stream)) in
    let m = Mutation.random rng ~max_n:8 in
    let allowed =
      match mask with
      | Some msk -> Mask.allows msk m.Mutation.kind ~pos
      | None -> true
    in
    if not allowed then remaining := !remaining - 1
    else begin
      let mutated = Mutation.apply ~dict:ctx.x_dict rng m ~pos stream in
      let candidate = Seed.with_tx entry.seed tx_index { tx with stream = mutated } in
      let candidate =
        if Util.Rng.float rng < config.sequence_mutation_prob then
          mutate_sequence ctx rng candidate
        else candidate
      in
      if quota_left () then begin
        let run, fresh = exec_and_observe candidate in
        if fresh then
          cands :=
            { c_seed = candidate; c_tx_results = run.tx_results;
              c_kind = Cand_fresh }
            :: !cands
        else begin
          (* pre-filter against the round-start snapshot: global best
             distances only shrink, so nothing dropped here could have
             entered the pool — the coordinator re-checks survivors *)
          let dists = frontier_dists_of_run cov run in
          let improves =
            List.exists
              (fun (br, d) ->
                match Hashtbl.find_opt best_snapshot br with
                | Some best -> d < best
                | None -> true)
              dists
          in
          if improves then
            cands :=
              { c_seed = candidate; c_tx_results = run.tx_results;
                c_kind = Cand_improving }
              :: !cands
        end;
        remaining := Energy.update !remaining ~new_coverage:fresh
      end
      else remaining := 0
    end
  done
  in
  List.iter fuzz_entry group;
  Executor.flush xctx;
  {
    t_worker = worker;
    t_execs = !execs;
    t_steps = !steps;
    t_probes = !probes;
    t_cands = List.rev !cands;
    t_findings = List.rev !findings;
    t_weights = List.rev !weights;
    t_cov = cov;
    t_attempts =
      Hashtbl.fold (fun br n acc -> (br, n) :: acc) attempts []
      |> List.sort compare;
  }

let run_parallel_on ?(bus = Telemetry.Bus.null) ?metrics ?resume ?on_safe_point
    pool config (contract : Minisol.Contract.t) =
  let prior_elapsed =
    match resume with Some (_, s) -> s.sn_elapsed | None -> 0.0
  in
  let start_time = Unix.gettimeofday () -. prior_elapsed in
  let jobs = Pool.size pool in
  let ctx = make_ctx config contract in
  let rng =
    match resume with
    | Some (_, s) -> Util.Rng.restore s.sn_rng
    | None -> Util.Rng.create config.rng_seed
  in
  let metrics =
    match metrics with Some m -> m | None -> Telemetry.Metrics.create ()
  in
  let meters = make_meters metrics in
  let coverage =
    match resume with
    | Some (_, s) -> Coverage.copy s.sn_coverage
    | None -> Coverage.create ()
  in
  let findings_tbl : (Oracles.Oracle.bug_class * int, unit) Hashtbl.t =
    Hashtbl.create 16
  in
  let occ : (Oracles.Oracle.key, int) Hashtbl.t = Hashtbl.create 32 in
  let path_hashes : (string list, string) Hashtbl.t = Hashtbl.create 16 in
  let findings = ref [] in
  let witnesses = ref [] in
  let witness_seeds = ref [] in
  (match resume with
  | Some (_, s) ->
    List.iter (fun (k, n) -> Hashtbl.replace occ k n) s.sn_occ;
    List.iter
      (fun ((f : Oracles.Oracle.finding), seed) ->
        Hashtbl.replace findings_tbl (f.cls, f.pc) ();
        findings := f :: !findings;
        witnesses := (f, Seed.show seed) :: !witnesses;
        witness_seeds := (f, seed) :: !witness_seeds)
      s.sn_findings
  | None -> ());
  let attempts : (int * bool, int) Hashtbl.t = Hashtbl.create 64 in
  (match resume with
  | Some (_, s) ->
    List.iter (fun (br, n) -> Hashtbl.replace attempts br n) s.sn_attempts
  | None -> ());
  let execs = ref (match resume with Some (_, s) -> s.sn_execs | None -> 0) in
  let steps = ref (match resume with Some (_, s) -> s.sn_steps | None -> 0) in
  let checkpoints =
    ref (match resume with Some (_, s) -> List.rev s.sn_over_time | None -> [])
  in
  let weight_table : (int * bool, float) Hashtbl.t option ref =
    ref
      (if not config.dynamic_energy then None
       else
         let tbl = Hashtbl.create 64 in
         (match resume with
         | Some (_, { sn_weights = Some ws; _ }) ->
           List.iter (fun (k, w) -> Hashtbl.replace tbl k w) ws
         | _ -> ());
         Some tbl)
  in
  let mask_probes_used =
    ref (match resume with Some (_, s) -> s.sn_mask_probes | None -> 0)
  in
  let predict_proposed =
    ref (match resume with Some (_, s) -> s.sn_predict_proposals | None -> 0)
  in
  let deadline =
    if config.max_seconds > 0.0 then Some (start_time +. config.max_seconds)
    else None
  in
  let time_exhausted () =
    match deadline with None -> false | Some d -> Unix.gettimeofday () >= d
  in
  let budget_left () =
    !execs < config.max_executions && not (time_exhausted ())
  in
  (* every worker stream is a pure function of (campaign seed, dispatch
     counter): runs are reproducible for a fixed (rng_seed, jobs) — the
     counter rides along in checkpoints so resumed campaigns continue
     with fresh streams instead of replaying spent ones *)
  let rng_counter =
    ref (match resume with Some (_, s) -> s.sn_rng_counter | None -> 0)
  in
  let next_worker_rng () =
    let k = !rng_counter in
    incr rng_counter;
    Util.Rng.derive config.rng_seed k
  in
  (* one executor context per worker domain, built once for the whole
     campaign: the hot execution path touches only domain-local state,
     and per-execution telemetry reaches the shared registry in one
     flush per task (the pool barrier is the hand-off edge that makes
     coordinator-built contexts safe to hand to workers) *)
  let xctxs =
    Array.init jobs (fun _ ->
        Executor.make_ctx ~contract:ctx.x_contract ~gas:config.gas_per_tx
          ~n_senders:config.n_senders ~attacker:config.attacker_enabled
          ~metrics ())
  in
  let stats0 = Pool.stats pool in
  let execs_by_worker = Array.make jobs 0 in
  let rounds = ref 0 in
  let merge_seconds = ref 0.0 in
  (* --round-batch auto: a bounded hysteretic controller over the round
     batch width. Between merge barriers it reads the pool's per-round
     stall deltas — worker seconds parked mid-batch plus coordinator
     seconds blocked at the barrier, over total round seconds — and
     widens the batch (x2, capped) after [rb_hysteresis] consecutive
     stalled rounds, narrows it (/2, floored at 1) after as many cheap
     ones. Width and vote counter ride in the snapshot (v3) so a
     resumed campaign continues the trajectory instead of resetting. *)
  let rb_max = 32 in
  let rb_high = 0.25 and rb_low = 0.10 in
  let rb_hysteresis = 2 in
  let rb_width =
    ref
      (match resume with
      | Some (_, s) when config.round_batch_auto && s.sn_round_batch > 0 ->
        Stdlib.min rb_max s.sn_round_batch
      | _ -> Stdlib.max 1 config.round_batch)
  in
  let rb_votes =
    ref
      (match resume with
      | Some (_, s) when config.round_batch_auto -> s.sn_rb_votes
      | _ -> 0)
  in
  let auto_tune_round ~(s0 : Pool.stats) ~(s1 : Pool.stats) =
    let sumd a b =
      Array.fold_left ( +. ) 0.0 a -. Array.fold_left ( +. ) 0.0 b
    in
    let idle = sumd s1.stall_seconds s0.stall_seconds in
    let busy = sumd s1.busy_seconds s0.busy_seconds in
    let mwait = s1.merge_wait_seconds -. s0.merge_wait_seconds in
    let denom = busy +. idle +. mwait in
    let ratio = if denom > 0.0 then (idle +. mwait) /. denom else 0.0 in
    let vote =
      if ratio > rb_high then 1 else if ratio < rb_low then -1 else 0
    in
    if vote = 0 then rb_votes := 0
    else if !rb_votes * vote < 0 then rb_votes := vote
    else rb_votes := !rb_votes + vote;
    if !rb_votes >= rb_hysteresis then begin
      rb_votes := 0;
      if !rb_width < rb_max then begin
        rb_width := Stdlib.min rb_max (!rb_width * 2);
        Log.debug (fun m ->
            m "round-batch auto: stall ratio %.2f, widen to %d" ratio !rb_width)
      end
    end
    else if !rb_votes <= -rb_hysteresis then begin
      rb_votes := 0;
      if !rb_width > 1 then begin
        rb_width := Stdlib.max 1 (!rb_width / 2);
        Log.debug (fun m ->
            m "round-batch auto: stall ratio %.2f, narrow to %d" ratio
              !rb_width)
      end
    end
  in
  let restored_queue, restored_best =
    match resume with
    | Some (_, s) -> restore_pool s
    | None -> ([||], Hashtbl.create 64)
  in
  let queue : entry array ref = ref restored_queue in
  let queue_add e =
    let cap = 128 in
    let q = Array.to_list !queue @ [ e ] in
    let q = if List.length q > cap then List.tl q else q in
    queue := Array.of_list q;
    Telemetry.Metrics.incr meters.m_enqueued;
    Telemetry.Bus.emit bus
      (Telemetry.Event.Seed_enqueued
         { txs = List.length e.seed.txs; queue_len = Array.length !queue })
  in
  let best_for_branch : (int * bool, float * entry) Hashtbl.t = restored_best in
  let note_entry e =
    List.iter
      (fun (br, d) ->
        match Hashtbl.find_opt best_for_branch br with
        | Some (best, _) when best <= d -> ()
        | _ -> Hashtbl.replace best_for_branch br (d, e))
      e.frontier_dists
  in
  let mk_entry seed tx_results =
    {
      seed;
      path = path_of_results tx_results;
      nested_hits = nested_hits_of_results tx_results;
      frontier_dists = frontier_dists_of_results coverage tx_results;
      masks = Hashtbl.create 4;
    }
  in
  let checkpoint () =
    checkpoints :=
      { Report.execs = !execs; covered = Coverage.covered_count coverage }
      :: !checkpoints
  in
  let note_findings seed fs =
    List.iter
      (fun (f : Oracles.Oracle.finding) ->
        let tkey = finding_key path_hashes seed f in
        Hashtbl.replace occ tkey
          (1 + Option.value ~default:0 (Hashtbl.find_opt occ tkey));
        let key = (f.cls, f.pc) in
        if not (Hashtbl.mem findings_tbl key) then begin
          Hashtbl.replace findings_tbl key ();
          findings := f :: !findings;
          witnesses := (f, Seed.show seed) :: !witnesses;
          witness_seeds := (f, seed) :: !witness_seeds;
          Telemetry.Metrics.incr meters.m_findings;
          emit_finding bus f;
          Log.info (fun m ->
              m "exec %d: new finding %a" !execs Oracles.Oracle.pp_finding f)
        end)
      fs
  in
  let merge_weights ws =
    match !weight_table with
    | Some tbl ->
      List.iter
        (fun (key, w) ->
          match Hashtbl.find_opt tbl key with
          | Some w' when w' >= w -> ()
          | _ -> Hashtbl.replace tbl key w)
        ws
    | None -> ()
  in
  (* fold one executed-but-unmutated run in on the coordinator (initial
     seeds, black-box seeds): global coverage, findings, Algorithm-3
     weights — the coordinator-side twin of [run]'s exec_and_observe *)
  let observe_on_coordinator ~worker seed (results : Executor.tx_result list)
      received_value =
    incr execs;
    Telemetry.Metrics.incr meters.m_execs;
    let new_sides = pending_new_sides bus coverage results in
    let fresh =
      List.fold_left
        (fun fresh (r : Executor.tx_result) -> Coverage.record coverage r.trace || fresh)
        false results
    in
    Telemetry.Bus.emit bus (Telemetry.Event.Exec_completed { worker; fresh });
    emit_new_sides bus coverage new_sides;
    if config.predict then note_flip_attempts ~coverage attempts results;
    if fresh then
      Telemetry.Metrics.set meters.m_covered
        (float_of_int (Coverage.covered_count coverage));
    let executions =
      List.map (fun (r : Executor.tx_result) -> (r.tx_index, r.success, r.trace))
        results
    in
    note_findings seed
      (Oracles.Oracle.inspect_campaign ~static:ctx.x_static ~received_value
         executions);
    (match !weight_table with
    | Some _ when fresh ->
      merge_weights
        (List.concat_map
           (fun (r : Executor.tx_result) ->
             List.map
               (fun (wb : Analysis.Prefix.weighted_branch) ->
                 ((wb.pc, wb.taken), wb.weight))
               (Analysis.Prefix.analyze_trace ~params:config.prefix_params ctx.x_cfg
                  r.trace))
           results)
    | _ -> ());
    checkpoint ();
    fresh
  in
  (* run a coordinator-generated seed list across the pool, returning
     [(index, worker, seed, run)] sorted back into submission order —
     the shared dispatch under initial seeds, black-box batches and the
     batched predict phase; callers fold the runs in order so feedback
     lands exactly as a sequential pass would *)
  let run_seeds_across_pool seeds =
    let indexed = List.mapi (fun i s -> (i, s)) seeds in
    let ntasks = Stdlib.min jobs (List.length indexed) in
    if ntasks = 0 then []
    else begin
      let tasks =
        Array.init ntasks (fun j ->
            let mine = List.filter (fun (i, _) -> i mod ntasks = j) indexed in
            fun worker ->
              (* one dispatch pass through the worker's context: pooled
                 frames and resolved metric handles are reused across
                 the slice, telemetry flushed once *)
              let xctx = xctxs.(worker) in
              let out =
                List.map
                  (fun (i, seed) -> (i, worker, seed, Executor.run_in_ctx xctx seed))
                  mine
              in
              Executor.flush xctx;
              out)
      in
      Pool.run_batch pool tasks |> Array.to_list |> List.concat
      |> List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b)
    end
  in
  let execute_seeds_parallel ~enqueue seeds =
    List.iter
      (fun (_, worker, seed, (run : Executor.run)) ->
        execs_by_worker.(worker) <- execs_by_worker.(worker) + 1;
        ignore (observe_on_coordinator ~worker seed run.tx_results run.received_value);
        if enqueue then begin
          let e = mk_entry seed run.tx_results in
          queue_add e;
          note_entry e
        end)
      (run_seeds_across_pool seeds)
  in
  let cursor = ref (match resume with Some (_, s) -> s.sn_cursor | None -> 0) in
  (* capture between rounds, when the workers are parked at the barrier
     and the coordinator owns every feedback structure *)
  let safe_point ~final =
    match on_safe_point with
    | None -> ()
    | Some hook ->
      hook ~final ~bus ~execs:!execs (fun () ->
          capture_snapshot ~execs:!execs ~steps:!steps
            ~mask_probes:!mask_probes_used ~cursor:!cursor ~rng
            ~rng_counter:!rng_counter
            ~elapsed:(Unix.gettimeofday () -. start_time)
            ~queue:!queue ~best_for_branch ~coverage
            ~weight_table:!weight_table ~witness_seeds:!witness_seeds ~occ
            ~checkpoints:!checkpoints ~attempts ~round_batch:!rb_width
            ~rb_votes:!rb_votes ~predict_proposals:!predict_proposed)
  in
  (* ---------------- prediction phase ---------------- *)
  (* Fired between rounds while the workers are parked at the barrier,
     in three batched stages instead of one coordinator-serial loop:
     (1) one replay per firing frontier side to recover the guarding
     comparison, all replays crossing the pool as a single batch;
     (2) the solved proposals for every side the replays left uncovered,
     again as one batch, capped at the remaining execution budget;
     (3) linear backoff for sides that still did not flip. Results fold
     through [observe_on_coordinator] in submission order, so feedback
     lands deterministically regardless of which worker ran what. The
     only divergence from the serial loop is bounded overspend: a
     proposal batched before a sibling proposal flips its branch still
     executes (the serial loop would have skipped it) — the budget cap
     itself stays exact. Inert when [predict] is off. *)
  let predict_phase () =
    if config.predict then begin
      let ready = predict_ready config ~coverage ~best_for_branch attempts in
      let firing =
        List.filter_map
          (fun br ->
            if budget_left () && not (Coverage.is_covered coverage br) then begin
              let fired_at =
                Option.value ~default:0 (Hashtbl.find_opt attempts br)
              in
              Hashtbl.replace attempts br 0;
              let _, e = Hashtbl.find best_for_branch br in
              Some (br, fired_at, e)
            end
            else None)
          ready
      in
      (* cap each stage at the remaining budget: the batch may not push
         [execs] past [max_executions] *)
      let rem = Stdlib.max 0 (config.max_executions - !execs) in
      let firing = List.filteri (fun i _ -> i < rem) firing in
      if firing <> [] then begin
        let replays =
          run_seeds_across_pool
            (List.map (fun (_, _, (e : entry)) -> e.seed) firing)
        in
        List.iter2
          (fun (_, _, (e : entry)) (_, worker, _, (run : Executor.run)) ->
            execs_by_worker.(worker) <- execs_by_worker.(worker) + 1;
            ignore
              (observe_on_coordinator ~worker e.seed run.tx_results
                 run.received_value))
          firing replays;
        let proposals =
          List.concat
            (List.map2
               (fun (br, _, e) (_, _, _, (run : Executor.run)) ->
                 if Coverage.is_covered coverage br then []
                 else
                   match comparison_for_branch run.tx_results br with
                   | None -> []
                   | Some (tx_index, cmp) ->
                     List.map
                       (fun cand -> (br, cand))
                       (predict_proposals ctx e ~tx_index ~cmp ~want:(snd br)))
               firing replays)
        in
        let rem = Stdlib.max 0 (config.max_executions - !execs) in
        let proposals = List.filteri (fun i _ -> i < rem) proposals in
        if proposals <> [] then begin
          let results = run_seeds_across_pool (List.map snd proposals) in
          List.iter2
            (fun (br, cand) (_, worker, _, (run : Executor.run)) ->
              execs_by_worker.(worker) <- execs_by_worker.(worker) + 1;
              Telemetry.Metrics.incr meters.m_predict_proposed;
              incr predict_proposed;
              let covered_before = Coverage.is_covered coverage br in
              let fresh =
                observe_on_coordinator ~worker cand run.tx_results
                  run.received_value
              in
              if fresh then begin
                let e' = mk_entry cand run.tx_results in
                queue_add e';
                note_entry e'
              end;
              if (not covered_before) && Coverage.is_covered coverage br
              then begin
                Telemetry.Metrics.incr meters.m_predict_flipped;
                Log.info (fun m ->
                    m "predict: flipped (%d,%B) at exec %d" (fst br) (snd br)
                      !execs)
              end)
            proposals results
        end;
        List.iter
          (fun (br, fired_at, _) ->
            if not (Coverage.is_covered coverage br) then
              Hashtbl.replace attempts br (-fired_at))
          firing
      end
    end
  in
  emit_resumed ~bus ~metrics resume;
  (* ---------------- initial seeds ---------------- *)
  if resume = None then begin
    let initial_seeds =
      let fresh = ref [] in
      for _ = 1 to config.initial_seeds do
        fresh := new_seed ctx rng :: !fresh
      done;
      let all = config.initial_corpus @ List.rev !fresh in
      List.filteri (fun i _ -> i < config.max_executions) all
    in
    execute_seeds_parallel ~enqueue:true initial_seeds
  end;
  (* Workers are parked at the barrier whenever a safe point runs, so a
     [Preempt] raised by the hook leaves no task in flight — the same
     consistency argument as the sequential loop. *)
  let preempted = ref false in
  let zero_rounds = ref 0 in
  (try
  (* ---------------- black-box mode ---------------- *)
  if config.blackbox then
    while budget_left () do
      safe_point ~final:false;
      let rem = config.max_executions - !execs in
      let n = Stdlib.min rem (jobs * 32) in
      let batch = ref [] in
      for _ = 1 to n do
        batch := new_seed ctx rng :: !batch
      done;
      execute_seeds_parallel ~enqueue:false (List.rev !batch)
    done;
  (* ---------------- main loop ---------------- *)
  while budget_left () && Array.length !queue > 0 && !zero_rounds < 64 do
    incr rounds;
    let rem = config.max_executions - !execs in
    (* coarse rounds: [round_batch] seeds per worker per merge barrier,
       so a 3000-exec campaign crosses a handful of barriers instead of
       dozens — per-round coordination (snapshot copies, RNG derivation,
       parking/waking the pool) is the dominant parallel overhead *)
    let want = Stdlib.min (jobs * !rb_width) rem in
    (* up to [want] distinct seeds, picked with the sequential policy *)
    let chosen = ref [] in
    let tries = ref 0 in
    while List.length !chosen < want && !tries < 4 * want do
      incr tries;
      let entry =
        let frontier =
          Hashtbl.fold
            (fun br (d, e) acc ->
              if Coverage.is_covered coverage br then acc else (br, d, e) :: acc)
            best_for_branch []
        in
        if config.distance_feedback && frontier <> [] && Util.Rng.float rng < 0.7 then
          let _, _, e = Util.Rng.choose_list rng frontier in
          e
        else begin
          let q = !queue in
          let e = q.(!cursor mod Array.length q) in
          incr cursor;
          e
        end
      in
      if not (List.memq entry !chosen) then chosen := entry :: !chosen
    done;
    let chosen = List.rev !chosen in
    let k = List.length chosen in
    let ntasks = Stdlib.min (Stdlib.min jobs k) rem in
    let base_quota = rem / ntasks and extra = rem mod ntasks in
    let mask_cap =
      int_of_float
        (config.mask_budget_fraction *. float_of_int config.max_executions)
    in
    let mask_share = Stdlib.max 0 (mask_cap - !mask_probes_used) / ntasks in
    let best_snapshot : (int * bool, float) Hashtbl.t =
      Hashtbl.create (Stdlib.max 16 (Hashtbl.length best_for_branch))
    in
    Hashtbl.iter (fun br (d, _) -> Hashtbl.replace best_snapshot br d)
      best_for_branch;
    (* energies assigned in choice order against the round-start weight
       table, then the chosen seeds are dealt round-robin into one group
       per task *)
    let pairs =
      List.map
        (fun entry ->
          let energy =
            Energy.assign ~dynamic:config.dynamic_energy ~base:config.base_energy
              ~max_energy:config.max_energy ~weights:!weight_table ~path:entry.path
          in
          Telemetry.Bus.emit bus (Telemetry.Event.Energy_reassigned { energy });
          (entry, energy))
        chosen
    in
    let groups = Array.make ntasks [] in
    List.iteri
      (fun i p -> groups.(i mod ntasks) <- p :: groups.(i mod ntasks))
      pairs;
    let tasks =
      Array.init ntasks (fun i ->
          let group = List.rev groups.(i) in
          let quota = base_quota + (if i < extra then 1 else 0) in
          let wrng = next_worker_rng () in
          let cov = Coverage.copy coverage in
          fun worker ->
            fuzz_group_task ctx ~bus ~xctxs ~group ~quota
              ~mask_allowance:mask_share ~best_snapshot ~cov wrng worker)
    in
    (* workers never emit New_branch_side (their snapshots race); the
       coordinator diffs the merged covered set per round instead *)
    let covered_before =
      if Telemetry.Bus.enabled bus then Coverage.covered coverage else []
    in
    let round_execs = ref 0 in
    let rstats0 =
      if config.round_batch_auto then Some (Pool.stats pool) else None
    in
    (* incremental merge: task i folds in (in submission order, so the
       merge sequence is deterministic) while tasks i+1.. are still
       running on the workers — no stop-the-world barrier *)
    Pool.run_batch_iter pool tasks ~merge:(fun _i tr ->
        let t0 = Unix.gettimeofday () in
        round_execs := !round_execs + tr.t_execs;
        Telemetry.Metrics.add meters.m_execs tr.t_execs;
        Telemetry.Metrics.add meters.m_probes tr.t_probes;
        execs := !execs + tr.t_execs;
        steps := !steps + tr.t_steps;
        execs_by_worker.(tr.t_worker) <-
          execs_by_worker.(tr.t_worker) + tr.t_execs;
        mask_probes_used := !mask_probes_used + tr.t_probes;
        List.iter
          (fun c ->
            let fresh =
              List.fold_left
                (fun fresh (r : Executor.tx_result) ->
                  Coverage.record coverage r.trace || fresh)
                false c.c_tx_results
            in
            match c.c_kind with
            | Cand_fresh when fresh ->
              let e = mk_entry c.c_seed c.c_tx_results in
              queue_add e;
              note_entry e
            | Cand_fresh | Cand_improving ->
              (* lost the freshness race (another domain covered the same
                 side this round) or improving-only: Algorithm 1 lines
                 8-13 still let it join the selection pool if it got
                 closer to an uncovered branch than anything known *)
              let dists = frontier_dists_of_results coverage c.c_tx_results in
              let improves =
                List.exists
                  (fun (br, d) ->
                    match Hashtbl.find_opt best_for_branch br with
                    | Some (best, _) -> d < best
                    | None -> true)
                  dists
              in
              if improves then
                note_entry
                  {
                    seed = c.c_seed;
                    path = path_of_results c.c_tx_results;
                    nested_hits = nested_hits_of_results c.c_tx_results;
                    frontier_dists = dists;
                    masks = Hashtbl.create 4;
                  })
          tr.t_cands;
        List.iter (fun (f, seed) -> note_findings seed [ f ]) tr.t_findings;
        merge_weights tr.t_weights;
        Coverage.merge ~into:coverage tr.t_cov;
        (* sum worker attempt counts, dropping sides the merged coverage
           has since flipped — they no longer need prediction *)
        List.iter
          (fun (br, n) ->
            if not (Coverage.is_covered coverage br) then
              Hashtbl.replace attempts br
                (n + Option.value ~default:0 (Hashtbl.find_opt attempts br)))
          tr.t_attempts;
        checkpoint ();
        merge_seconds := !merge_seconds +. (Unix.gettimeofday () -. t0));
    (match rstats0 with
    | Some s0 -> auto_tune_round ~s0 ~s1:(Pool.stats pool)
    | None -> ());
    if !round_execs = 0 then incr zero_rounds else zero_rounds := 0;
    Telemetry.Metrics.set meters.m_covered
      (float_of_int (Coverage.covered_count coverage));
    if Telemetry.Bus.enabled bus then begin
      let base = List.length covered_before in
      let fresh_sides =
        List.filter
          (fun br -> not (List.mem br covered_before))
          (Coverage.covered coverage)
      in
      List.iteri
        (fun i (pc, taken) ->
          Telemetry.Bus.emit bus
            (Telemetry.Event.New_branch_side
               { pc; taken; covered = base + i + 1 }))
        (List.sort compare fresh_sides)
    end;
    Telemetry.Bus.emit bus
      (Telemetry.Event.Batch_merge
         {
           round = !rounds;
           execs = !round_execs;
           covered = Coverage.covered_count coverage;
         });
    Log.debug (fun m ->
        m "round %d: %d seeds in %d tasks, %d execs, coverage %d sides" !rounds
          k ntasks !round_execs
          (Coverage.covered_count coverage));
    (* after the merge (so attempt counts are current) and before the
       next round's quota split, which needs a non-empty remainder *)
    if budget_left () then predict_phase ();
    safe_point ~final:false
  done
  with Preempt -> preempted := true);
  if not !preempted then safe_point ~final:true;
  let stop_reason =
    if !preempted then Report.Preempted
    else if !execs >= config.max_executions then Report.Budget_exhausted
    else if time_exhausted () then Report.Time_exhausted
    else if !zero_rounds >= 64 then Report.Stalled
    else Report.Queue_exhausted
  in
  let stats1 = Pool.stats pool in
  let domains =
    List.init jobs (fun i ->
        {
          Report.domain = i;
          d_execs = execs_by_worker.(i);
          busy_seconds = stats1.busy_seconds.(i) -. stats0.busy_seconds.(i);
          stall_seconds = stats1.stall_seconds.(i) -. stats0.stall_seconds.(i);
        })
  in
  {
    Report.contract_name = contract.name;
    executions = !execs;
    steps = !steps;
    mask_probes = !mask_probes_used;
    predict_proposals = !predict_proposed;
    covered_branches = Coverage.covered_count coverage;
    covered = List.sort compare (Coverage.covered coverage);
    total_branch_sides = 2 * List.length (Analysis.Cfg.branch_points ctx.x_cfg);
    findings = Oracles.Oracle.dedup (List.rev !findings);
    occurrences = sorted_occurrences occ;
    witnesses = List.rev !witnesses;
    witness_seeds = List.rev !witness_seeds;
    over_time = List.rev !checkpoints;
    seeds_in_queue = Array.length !queue;
    corpus = Array.to_list !queue |> List.map (fun e -> e.seed);
    corpus_skipped = [];
    wall_seconds = Unix.gettimeofday () -. start_time;
    stop_reason;
    parallel =
      Some
        {
          Report.jobs;
          rounds = !rounds;
          round_batch = Stdlib.max 1 config.round_batch;
          round_batch_auto = config.round_batch_auto;
          round_batch_final = !rb_width;
          merge_seconds = !merge_seconds;
          merge_wait_seconds =
            stats1.merge_wait_seconds -. stats0.merge_wait_seconds;
          worker_idle_seconds =
            Array.fold_left ( +. ) 0.0 stats1.stall_seconds
            -. Array.fold_left ( +. ) 0.0 stats0.stall_seconds;
          steals = stats1.steals - stats0.steals;
          domains;
        };
  }

let run_parallel ?(config = Config.default) ?pool ?(sinks = []) ?metrics
    ?resume ?on_safe_point (contract : Minisol.Contract.t) =
  let jobs =
    match pool with Some p -> Pool.size p | None -> Stdlib.max 1 config.jobs
  in
  if jobs <= 1 then run ~config ~sinks ?metrics ?resume ?on_safe_point contract
  else begin
    let metrics =
      match metrics with Some m -> m | None -> Telemetry.Metrics.create ()
    in
    let total_sides =
      total_sides_of_cfg (Analysis.Cfg.build contract.Minisol.Contract.bytecode)
    in
    let bus = make_bus config ~total_sides sinks in
    let report =
      match pool with
      | Some p -> run_parallel_on ~bus ~metrics ?resume ?on_safe_point p config contract
      | None ->
        (* a pool created here (rather than passed in) also reports its
           steal events through the campaign's bus *)
        Pool.with_pool ~bus ~metrics ~jobs (fun p ->
            run_parallel_on ~bus ~metrics ?resume ?on_safe_point p config
              contract)
    in
    Telemetry.Bus.finalize bus;
    report
  end

type failure = { failed_contract : string; failed_reason : string }

let run_result ?config ?sinks ?metrics ?resume ?on_safe_point contract =
  match run ?config ?sinks ?metrics ?resume ?on_safe_point contract with
  | report -> Ok report
  | exception Preempt ->
    (* a cooperative yield is control flow, not a broken contract *)
    raise Preempt
  | exception e ->
    let failed_reason =
      match e with
      | Pool.Task_error inner ->
        Printf.sprintf "worker task failed: %s" (Printexc.to_string inner)
      | e -> Printexc.to_string e
    in
    Error
      { failed_contract = contract.Minisol.Contract.name; failed_reason }

let run_many ?(config = Config.default) ?pool contracts =
  match pool with
  | Some p when Pool.size p > 1 ->
    Pool.map p (fun c -> run_result ~config c) contracts
  | _ -> List.map (fun c -> run_result ~config c) contracts
