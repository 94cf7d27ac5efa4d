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

(* Algorithm-2 probe verdict: did the mutant still hit one of the
   seed's nested branches, or get closer to a frontier side than the
   seed's baseline distance? Apply the baselines once per mask run: the
   baseline tables are built then, and each probe reads its run's
   summary, one step per distinct side. *)
let mask_feedback ~baseline_nested ~baseline_dists =
  let module S = Branch_summary in
  let nested = S.Tbl.create 16 in
  List.iter (fun (pc, taken) -> S.Tbl.replace nested (S.side pc taken) ()) baseline_nested;
  (* a side listed twice is beaten by anything below its larger baseline *)
  let base = S.Tbl.create 16 in
  List.iter
    (fun ((pc, taken), d) ->
      let k = S.side pc taken in
      match S.Tbl.find_opt base k with
      | Some d' when d' >= d -> ()
      | _ -> S.Tbl.replace base k d)
    baseline_dists;
  fun (s : S.t) ->
    let n = Array.length s.keys in
    let rec hits_nested i =
      i < n && ((s.nested.(i) && S.Tbl.mem nested s.keys.(i)) || hits_nested (i + 1))
    in
    (* a side's smallest distance beats the baseline iff one of its
       visits does *)
    let rec closer i =
      i < n
      && ((match S.Tbl.find_opt base (s.keys.(i) lxor 1) with
          | Some b -> s.dists.(i) < b
          | None -> false)
         || closer (i + 1))
    in
    let hits_nested = S.Tbl.length nested > 0 && hits_nested 0 in
    let distance_decreased = S.Tbl.length base > 0 && closer 0 in
    { Mask.hits_nested; distance_decreased }

(* Triage identity of one alarm occurrence: the call path is the
   function-name prefix of the witnessing sequence up to (and including)
   the raising transaction; whole-contract findings (tx_index = -1,
   e.g. EF) use the empty path.

   A campaign raises the same alarms on nearly every execution but
   through few distinct call paths, so the Keccak path digests live in a
   trie of function names, the root being the empty path: a node
   computes its digest the first time an alarm needs it and keeps it.
   The trie belongs to one campaign's coordinator; a global one would be
   shared across domains. *)
type path_node = {
  pn_name : string;  (* the last function of the path; "" at the root *)
  pn_rev : string list;  (* the path, last function first *)
  mutable pn_hash : string;  (* "" until first asked; a digest is never "" *)
  mutable pn_kids : path_node list;
}

let path_root () = { pn_name = ""; pn_rev = []; pn_hash = ""; pn_kids = [] }

let path_child node name =
  match List.find_opt (fun k -> String.equal k.pn_name name) node.pn_kids with
  | Some k -> k
  | None ->
    let k = { pn_name = name; pn_rev = name :: node.pn_rev; pn_hash = ""; pn_kids = [] } in
    node.pn_kids <- k :: node.pn_kids;
    k

let path_digest node =
  if node.pn_hash = "" then node.pn_hash <- Oracles.Oracle.path_hash (List.rev node.pn_rev);
  node.pn_hash

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
  x_sequence : string list option;
      (* the §IV-A call order every initial seed starts from; [None]
         under [Seq_random], which shuffles afresh per seed *)
  x_dict : Word.U256.t array;
  x_static : Oracles.Oracle.static_info;
  x_abi : Abi.func list;
}

let make_ctx config (contract : Minisol.Contract.t) =
  let info = Analysis.Statevars.analyze contract.ast in
  {
    x_config = config;
    x_contract = contract;
    x_info = info;
    x_cfg = Analysis.Cfg.build contract.bytecode;
    x_sequence =
      (match config.Config.sequence_mode with
      | Config.Seq_random -> None
      | Config.Seq_dataflow -> Some (Analysis.Sequence.derive_base info)
      | Config.Seq_dataflow_repeat -> Some (Analysis.Sequence.derive info));
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
let pending_new_sides bus coverage summary =
  if not (Telemetry.Bus.enabled bus) then []
  else
    List.filter
      (fun br -> not (Coverage.is_covered coverage br))
      (Branch_summary.path summary)

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
  match ctx.x_sequence with
  | Some seq -> seq
  | None -> Analysis.Sequence.random_sequence rng ctx.x_info

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
let note_flip_attempts ~coverage attempts (s : Branch_summary.t) =
  Array.iteri
    (fun i k ->
      let other = Branch_summary.branch (k lxor 1) in
      if not (Coverage.is_covered coverage other) then
        Hashtbl.replace attempts other
          (s.hits.(i) + Option.value ~default:0 (Hashtbl.find_opt attempts other)))
    s.keys

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
        (Evm.Trace.expand r.trace.Evm.Trace.events))
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

(* ==================== campaign state ====================

   Everything Algorithm 1 accumulates, owned by one coordinator. The
   sequential loop folds each execution into it at once; the parallel
   coordinator folds the executions it dispatches the same way and
   merges worker rounds into it in task order. Built once from the
   config and an optional resume snapshot; checkpoints, the stop
   reason and the report all read from it. *)

type state = {
  ctx : ctx;
  bus : Telemetry.Bus.t;
  meters : meters;
  rng : Util.Rng.t;
  start_time : float;  (* shifted back by the time spent before a resume *)
  xctxs : Executor.ctx array;  (* one per worker domain; one when sequential *)
  summarizer : Branch_summary.builder;  (* the coordinator's *)
  on_safe_point :
    (final:bool -> bus:Telemetry.Bus.t -> execs:int -> (unit -> snapshot) -> unit)
    option;
  coverage : Coverage.t;
  findings_tbl : (Oracles.Oracle.bug_class * int, unit) Hashtbl.t;
  occ : (Oracles.Oracle.key, int) Hashtbl.t;
  paths : path_node;  (* the call-path trie's root *)
  attempts : (int * bool, int) Hashtbl.t;
  weights : (int * bool, float) Hashtbl.t option;  (* None: flat energy *)
  best : (int * bool, float * entry) Hashtbl.t;  (* the distance pool *)
  mutable queue : entry array;
  mutable cursor : int;
  mutable witness_seeds : (Oracles.Oracle.finding * Seed.t) list;
      (* deduplicated findings, newest first *)
  mutable execs : int;
  mutable steps : int;
  mutable mask_probes : int;
  mutable predict_proposed : int;
  mutable rng_counter : int;  (* worker streams dispatched *)
  mutable over_time : Report.checkpoint list;  (* newest first *)
}

(* Summaries carry Algorithm-3 weights only when dynamic energy reads
   them. *)
let summary_builder ctx =
  let config = ctx.x_config in
  Branch_summary.builder
    ?weigh:(if config.dynamic_energy then Some config.prefix_params else None)
    ctx.x_cfg

let init_state ?resume ?on_safe_point ~jobs ~bus ~metrics ctx =
  let config = ctx.x_config in
  let snap = Option.map snd resume in
  let restored f dflt = match snap with Some s -> f s | None -> dflt in
  (* shift the clock back by the time already spent before the
     checkpoint, so wall_seconds and the max_seconds budget span the
     whole logical campaign, not just this process *)
  let start_time =
    Unix.gettimeofday () -. restored (fun s -> s.sn_elapsed) 0.0
  in
  let meters = make_meters metrics in
  (* one executor context per worker domain, built once for the whole
     campaign: the hot execution path touches only domain-local state,
     and per-execution telemetry reaches the shared registry at flushes
     (the pool barrier is the hand-off edge that makes coordinator-built
     contexts safe to hand to workers) *)
  let xctxs =
    Array.init jobs (fun _ ->
        Executor.make_ctx ~contract:ctx.x_contract ~gas:config.gas_per_tx
          ~n_senders:config.n_senders ~attacker:config.attacker_enabled
          ~comparisons:config.predict ~metrics ())
  in
  let queue, best =
    match snap with
    | Some s -> restore_pool s
    | None -> ([||], Hashtbl.create 64)
  in
  let st =
    {
      ctx;
      bus;
      meters;
      rng =
        restored
          (fun s -> Util.Rng.restore s.sn_rng)
          (Util.Rng.create config.rng_seed);
      start_time;
      xctxs;
      summarizer = summary_builder ctx;
      on_safe_point;
      coverage = restored (fun s -> Coverage.copy s.sn_coverage) (Coverage.create ());
      findings_tbl = Hashtbl.create 16;
      occ = Hashtbl.create 32;
      paths = path_root ();
      attempts = Hashtbl.create 64;
      weights = (if config.dynamic_energy then Some (Hashtbl.create 64) else None);
      best;
      queue;
      cursor = restored (fun s -> s.sn_cursor) 0;
      witness_seeds = restored (fun s -> List.rev s.sn_findings) [];
      execs = restored (fun s -> s.sn_execs) 0;
      steps = restored (fun s -> s.sn_steps) 0;
      mask_probes = restored (fun s -> s.sn_mask_probes) 0;
      predict_proposed = restored (fun s -> s.sn_predict_proposals) 0;
      rng_counter = restored (fun s -> s.sn_rng_counter) 0;
      over_time = restored (fun s -> List.rev s.sn_over_time) [];
    }
  in
  Option.iter
    (fun s ->
      List.iter (fun (k, n) -> Hashtbl.replace st.occ k n) s.sn_occ;
      List.iter (fun (br, n) -> Hashtbl.replace st.attempts br n) s.sn_attempts;
      List.iter
        (fun ((f : Oracles.Oracle.finding), _) ->
          Hashtbl.replace st.findings_tbl (f.cls, f.pc) ())
        s.sn_findings;
      match (st.weights, s.sn_weights) with
      | Some tbl, Some ws -> List.iter (fun (k, w) -> Hashtbl.replace tbl k w) ws
      | _ -> ())
    snap;
  emit_resumed ~bus ~metrics resume;
  st

let time_exhausted st =
  let config = st.ctx.x_config in
  config.max_seconds > 0.0
  && Unix.gettimeofday () >= st.start_time +. config.max_seconds

let budget_left st =
  st.execs < st.ctx.x_config.max_executions && not (time_exhausted st)

(* Capture every mutable structure of a campaign at a safe point. Queue
   and distance pool share [entry] values by physical identity (mask
   caches mutate them in place), so both serialise as indices into one
   deduplicated entry pool. Everything is copied out: the snapshot stays
   valid while the campaign keeps mutating. *)
let capture_snapshot st =
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
  let sn_queue = List.map id_of (Array.to_list st.queue) in
  let sn_best =
    List.rev
      (Hashtbl.fold (fun br (d, e) acc -> (br, d, id_of e) :: acc) st.best [])
  in
  let sn_entries =
    List.rev_map (fun (e, _) -> snapshot_entry_of_entry e) !seen
    |> Array.of_list
  in
  let sorted tbl =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare
  in
  {
    sn_execs = st.execs;
    sn_steps = st.steps;
    sn_mask_probes = st.mask_probes;
    sn_cursor = st.cursor;
    sn_rng = Util.Rng.save st.rng;
    sn_rng_counter = st.rng_counter;
    sn_elapsed = Unix.gettimeofday () -. st.start_time;
    sn_entries;
    sn_queue;
    sn_best;
    sn_coverage = Coverage.copy st.coverage;
    sn_weights = Option.map sorted st.weights;
    sn_findings = List.rev st.witness_seeds;
    sn_occ = sorted_occurrences st.occ;
    sn_over_time = List.rev st.over_time;
    sn_attempts = sorted st.attempts;
    sn_predict_proposals = st.predict_proposed;
  }

(* Safe points: moments where every feedback structure is consistent
   and no work is in flight (the parallel workers are parked at the
   barrier), so the whole campaign can be captured. The snapshot is
   built lazily — only when the hook decides the cadence is due does
   any copying happen. A hook may raise [Preempt] from a non-final safe
   point to yield the campaign; safe points are the only raise sites,
   so the exception always leaves the state consistent. *)
let safe_point st ~final =
  (* metrics sinks observing at the safe point see exact totals *)
  Array.iter Executor.flush st.xctxs;
  match st.on_safe_point with
  | None -> ()
  | Some hook ->
    hook ~final ~bus:st.bus ~execs:st.execs (fun () -> capture_snapshot st)

let until_preempted body =
  match body () with () -> false | exception Preempt -> true

(* ---------------- the coordinator fold ---------------- *)

(* Fold a fresh run's Algorithm-3 weights in, keeping each side's
   maximum. *)
let merge_weights st ws =
  Option.iter
    (fun tbl ->
      List.iter
        (fun (key, w) ->
          match Hashtbl.find_opt tbl key with
          | Some w' when w' >= w -> ()
          | _ -> Hashtbl.replace tbl key w)
        ws)
    st.weights

let checkpoint st =
  st.over_time <-
    { Report.execs = st.execs; covered = Coverage.covered_count st.coverage }
    :: st.over_time

(* The oracles report alarms grouped by raising transaction, in
   transaction order, so the call-path digest is taken once per group,
   by a cursor that walks [seed]'s transactions down the trie once per
   call: [node] is the path of the transactions before [rest], the last
   of them [at]. An index behind the cursor starts it over; one past the
   seed's end stays at its whole path, as a prefix would. *)
let note_findings st seed fs =
  let node = ref st.paths and at = ref (-1) and rest = ref seed.Seed.txs in
  let group_tx = ref min_int and group_path = ref "" in
  List.iter
    (fun (f : Oracles.Oracle.finding) ->
      if f.tx_index <> !group_tx then begin
        group_tx := f.tx_index;
        group_path :=
          if f.tx_index < 0 then path_digest st.paths
          else begin
            if f.tx_index < !at then begin
              node := st.paths;
              at := -1;
              rest := seed.txs
            end;
            let rec advance () =
              match !rest with
              | (tx : Seed.tx) :: tl when !at < f.tx_index ->
                node := path_child !node tx.fn.Abi.name;
                rest := tl;
                incr at;
                advance ()
              | _ -> ()
            in
            advance ();
            path_digest !node
          end
      end;
      let tkey = { Oracles.Oracle.k_cls = f.cls; k_pc = f.pc; k_path = !group_path } in
      Hashtbl.replace st.occ tkey
        (1 + Option.value ~default:0 (Hashtbl.find_opt st.occ tkey));
      let key = (f.cls, f.pc) in
      if not (Hashtbl.mem st.findings_tbl key) then begin
        Hashtbl.replace st.findings_tbl key ();
        st.witness_seeds <- (f, seed) :: st.witness_seeds;
        Telemetry.Metrics.incr st.meters.m_findings;
        emit_finding st.bus f;
        Log.info (fun m ->
            m "exec %d: new finding %a" st.execs Oracles.Oracle.pp_finding f)
      end)
    fs

(* Fold one executed seed into every table: counters, global coverage,
   flip attempts, findings, Algorithm-3 weights and the growth curve.
   Returns the run's branch summary and whether it covered a new branch
   side. *)
let observe st ~worker seed (run : Executor.run) =
  let config = st.ctx.x_config in
  st.execs <- st.execs + 1;
  (* logical steps: a pure function of the executed seeds, so the
     report total survives checkpoint/resume *)
  st.steps <- st.steps + run.logical_steps;
  Telemetry.Metrics.incr st.meters.m_execs;
  let summary = Branch_summary.summarize st.summarizer run.tx_results in
  let new_sides = pending_new_sides st.bus st.coverage summary in
  let fresh = Coverage.record_run st.coverage summary in
  Telemetry.Bus.emit st.bus (Telemetry.Event.Exec_completed { worker; fresh });
  emit_new_sides st.bus st.coverage new_sides;
  if config.predict then note_flip_attempts ~coverage:st.coverage st.attempts summary;
  if fresh then begin
    Telemetry.Metrics.set st.meters.m_covered
      (float_of_int (Coverage.covered_count st.coverage));
    Log.debug (fun m ->
        m "exec %d: coverage %d sides" st.execs (Coverage.covered_count st.coverage))
  end;
  note_findings st seed (Executor.inspect ~static:st.ctx.x_static run);
  if fresh && Option.is_some st.weights then
    merge_weights st (Branch_summary.weighted_sides summary);
  checkpoint st;
  (summary, fresh)

let exec_on_coordinator st seed =
  observe st ~worker:0 seed (Executor.run_in_ctx st.xctxs.(0) seed)

(* ---------------- the seed pool ---------------- *)

let queue_add st e =
  let cap = 128 in
  let q = Array.to_list st.queue @ [ e ] in
  let q = if List.length q > cap then List.tl q else q in
  st.queue <- Array.of_list q;
  Telemetry.Metrics.incr st.meters.m_enqueued;
  Telemetry.Bus.emit st.bus
    (Telemetry.Event.Seed_enqueued
       { txs = List.length e.seed.txs; queue_len = Array.length st.queue })

let note_entry st e =
  List.iter
    (fun (br, d) ->
      match Hashtbl.find_opt st.best br with
      | Some (best, _) when best <= d -> ()
      | _ -> Hashtbl.replace st.best br (d, e))
    e.frontier_dists

(* the sorted side lists are built here, once per pool entry, not per
   execution *)
let mk_entry seed summary frontier_dists =
  {
    seed;
    path = Branch_summary.path summary;
    nested_hits = Branch_summary.nested_sides summary;
    frontier_dists;
    masks = Hashtbl.create 4;
  }

let enqueue st seed summary =
  let e = mk_entry seed summary (Coverage.frontier_dists st.coverage summary) in
  queue_add st e;
  note_entry st e

let enqueue_run st seed =
  let summary, _ = exec_on_coordinator st seed in
  enqueue st seed summary

(* some frontier side got closer than the best distance [best_of] knows *)
let improves best_of dists =
  List.exists
    (fun (br, d) -> match best_of br with Some best -> d < best | None -> true)
    dists

(* Algorithm 1 lines 8-13: a fresh run joins the queue; a seed that gets
   closer to an uncovered branch joins the selection pool even without
   new coverage — this is what lets mutation hill-climb strict
   conditions. *)
let admit st seed summary ~fresh =
  if fresh then enqueue st seed summary
  else begin
    let dists = Coverage.frontier_dists st.coverage summary in
    if improves (fun br -> Option.map fst (Hashtbl.find_opt st.best br)) dists
    then note_entry st (mk_entry seed summary dists)
  end

(* Branch-distance-feedback selection (Algorithm 1 lines 8-13): most
   picks go to the seed closest to some still-uncovered branch. *)
let select st =
  let frontier =
    Hashtbl.fold
      (fun br (d, e) acc ->
        if Coverage.is_covered st.coverage br then acc else (br, d, e) :: acc)
      st.best []
  in
  if st.ctx.x_config.distance_feedback && frontier <> [] && Util.Rng.float st.rng < 0.7
  then
    let _, _, e = Util.Rng.choose_list st.rng frontier in
    e
  else begin
    let e = st.queue.(st.cursor mod Array.length st.queue) in
    st.cursor <- st.cursor + 1;
    e
  end

let with_energy st entry =
  let config = st.ctx.x_config in
  let energy =
    Energy.assign ~dynamic:config.dynamic_energy ~base:config.base_energy
      ~max_energy:config.max_energy ~weights:st.weights ~path:entry.path
  in
  Telemetry.Bus.emit st.bus (Telemetry.Event.Energy_reassigned { energy });
  (entry, energy)

(* ---------------- prediction: firing and proposal fold ---------------- *)

(* Frontier sides whose attempt count crossed the firing threshold and
   for which the distance pool still holds a witness entry, nearest
   (lowest pc) first. *)
let predict_ready st =
  Hashtbl.fold
    (fun br n acc ->
      if
        n >= st.ctx.x_config.predict_attempts
        && (not (Coverage.is_covered st.coverage br))
        && Hashtbl.mem st.best br
      then br :: acc
      else acc)
    st.attempts []
  |> List.sort compare

(* Fire side [br]: reset its attempt count and return the count it fired
   at plus the pool's closest seed. A firing that fails to flip leaves
   the counter negative by the accumulated count ([back_off]), so each
   retry waits longer than the last — the backoff lives in the attempts
   table and therefore survives checkpoints. *)
let fire st br =
  let fired_at = Option.value ~default:0 (Hashtbl.find_opt st.attempts br) in
  Hashtbl.replace st.attempts br 0;
  (fired_at, snd (Hashtbl.find st.best br))

let back_off st br fired_at =
  if not (Coverage.is_covered st.coverage br) then
    Hashtbl.replace st.attempts br (-fired_at)

let fold_proposal st ~worker br seed run =
  Telemetry.Metrics.incr st.meters.m_predict_proposed;
  st.predict_proposed <- st.predict_proposed + 1;
  let covered_before = Coverage.is_covered st.coverage br in
  let summary, fresh = observe st ~worker seed run in
  if fresh then enqueue st seed summary;
  if (not covered_before) && Coverage.is_covered st.coverage br then begin
    Telemetry.Metrics.incr st.meters.m_predict_flipped;
    Log.info (fun m ->
        m "predict: flipped (%d,%B) at exec %d" (fst br) (snd br) st.execs)
  end

(* ---------------- the report ---------------- *)

let stop_reason st ~preempted ~stalled =
  if preempted then Report.Preempted
  else if st.execs >= st.ctx.x_config.max_executions then Report.Budget_exhausted
  else if time_exhausted st then Report.Time_exhausted
  else if stalled then Report.Stalled
  else Report.Queue_exhausted

(* Close the campaign and build its report. A preempting hook already
   captured its snapshot, so only the final flush runs then; otherwise
   the hook sees one last, final safe point. *)
let finish st ~preempted ~stalled parallel =
  if preempted then Array.iter Executor.flush st.xctxs
  else safe_point st ~final:true;
  let stop_reason = stop_reason st ~preempted ~stalled in
  let parallel = parallel () in
  {
    Report.contract_name = st.ctx.x_contract.name;
    executions = st.execs;
    steps = st.steps;
    mask_probes = st.mask_probes;
    predict_proposals = st.predict_proposed;
    covered_branches = Coverage.covered_count st.coverage;
    covered = List.sort compare (Coverage.covered st.coverage);
    total_branch_sides = total_sides_of_cfg st.ctx.x_cfg;
    findings = Oracles.Oracle.dedup (List.rev_map fst st.witness_seeds);
    occurrences = sorted_occurrences st.occ;
    witnesses = List.rev_map (fun (f, seed) -> (f, Seed.show seed)) st.witness_seeds;
    witness_seeds = List.rev st.witness_seeds;
    over_time = List.rev st.over_time;
    seeds_in_queue = Array.length st.queue;
    corpus = Array.to_list st.queue |> List.map (fun e -> e.seed);
    corpus_skipped = [];
    wall_seconds = Unix.gettimeofday () -. st.start_time;
    stop_reason;
    parallel;
  }

(* ==================== the shared energy loop ====================

   Algorithm 1's inner mutation loop and Algorithm 2's mask probing,
   run in one of two lanes. A lane fixes both where a result goes and
   what bounds the loop, because the two always pair up: on the
   coordinator ([Fold]) every execution folds into the campaign state at
   once and spends the global budget; on a worker domain ([Collect])
   executions fold into the worker's private round-start coverage copy,
   spend the worker's reserved quota and mask allowance, and leave
   candidates for the coordinator to re-judge at merge. *)

type cand = {
  c_seed : Seed.t;
  c_summary : Branch_summary.t;
  c_fresh : bool;  (* fresh against the worker's snapshot, else improving *)
}

type worker = {
  w_id : int;
  w_ctx : ctx;
  w_bus : Telemetry.Bus.t;
  w_xctx : Executor.ctx;
  w_summarizer : Branch_summary.builder;  (* the worker domain's *)
  w_rng : Util.Rng.t;
  w_cov : Coverage.t;  (* round-start copy of the global map *)
  w_best : float Branch_summary.Tbl.t;  (* round-start best distances *)
  w_quota : int;
  w_mask_allowance : int;
  mutable w_execs : int;
  mutable w_steps : int;
  mutable w_probes : int;
  (* collected for the merge, newest first *)
  mutable w_cands : cand list;
  mutable w_findings : (Oracles.Oracle.finding * Seed.t) list;
  mutable w_weights : ((int * bool) * float) list;
  w_attempts : (int * bool, int) Hashtbl.t;
      (* flip-attempt counts against the round-start snapshot *)
}

type lane = Fold of state | Collect of worker

(* the worker's fold: freshness here is judged against the round-start
   snapshot; the coordinator re-judges candidates globally at merge *)
let observe_in_worker w seed (run : Executor.run) =
  let config = w.w_ctx.x_config in
  w.w_execs <- w.w_execs + 1;
  w.w_steps <- w.w_steps + run.logical_steps;
  let summary = Branch_summary.summarize w.w_summarizer run.tx_results in
  let fresh = Coverage.record_run w.w_cov summary in
  Telemetry.Bus.emit w.w_bus
    (Telemetry.Event.Exec_completed { worker = w.w_id; fresh });
  if config.predict then note_flip_attempts ~coverage:w.w_cov w.w_attempts summary;
  w.w_findings <-
    List.rev_append
      (List.map (fun f -> (f, seed)) (Executor.inspect ~static:w.w_ctx.x_static run))
      w.w_findings;
  if config.dynamic_energy && fresh then
    w.w_weights <- List.rev_append (Branch_summary.weighted_sides summary) w.w_weights;
  (summary, fresh)

let exec lane seed =
  match lane with
  | Fold st -> exec_on_coordinator st seed
  | Collect w -> observe_in_worker w seed (Executor.run_in_ctx w.w_xctx seed)

let keep lane seed summary ~fresh =
  match lane with
  | Fold st -> admit st seed summary ~fresh
  | Collect w ->
    (* pre-filter against the round-start snapshot: global best
       distances only shrink, so nothing dropped here could have entered
       the pool *)
    if
      fresh
      || improves
           (fun (pc, taken) ->
             Branch_summary.Tbl.find_opt w.w_best (Branch_summary.side pc taken))
           (Coverage.frontier_dists w.w_cov summary)
    then
      (* the summary, not the traces, crosses to the coordinator *)
      w.w_cands <- { c_seed = seed; c_summary = summary; c_fresh = fresh } :: w.w_cands

let has_budget = function
  | Fold st -> budget_left st
  | Collect w -> w.w_execs < w.w_quota

(* Whether a mask refresh may start: the global probe budget is a
   fraction of the execution budget; a worker holds its share of what
   is left. *)
let may_refresh_mask = function
  | Fold st ->
    let config = st.ctx.x_config in
    float_of_int st.mask_probes
    < config.mask_budget_fraction *. float_of_int config.max_executions
  | Collect w -> w.w_probes < w.w_mask_allowance

(* Whether one more probe of a started refresh may run: the coordinator
   is bound only by the execution budget, a worker also by its
   allowance. *)
let may_probe = function
  | Fold st -> budget_left st
  | Collect w -> w.w_execs < w.w_quota && w.w_probes < w.w_mask_allowance

let count_probe = function
  | Fold st -> st.mask_probes <- st.mask_probes + 1
  | Collect w -> w.w_probes <- w.w_probes + 1

(* The cached Algorithm-2 mask of [e]'s transaction [tx_index], computed
   on a miss when the budget allows: the plan draws from the lane's RNG
   exactly as the interleaved [Mask.compute] would, then the probes
   execute in plan order until the budget runs dry. *)
let get_mask lane (e : entry) tx_index =
  let ctx, rng, bus =
    match lane with
    | Fold st -> (st.ctx, st.rng, st.bus)
    | Collect w -> (w.w_ctx, w.w_rng, w.w_bus)
  in
  let config = ctx.x_config in
  match Hashtbl.find_opt e.masks tx_index with
  | Some m -> Some m
  | None when not (may_refresh_mask lane) -> None
  | None ->
    let tx = List.nth e.seed.txs tx_index in
    let pl =
      Mask.plan rng ~stride:config.mask_stride ~max_probes:config.mask_max_probes
        tx.stream
    in
    let feedback =
      mask_feedback ~baseline_nested:e.nested_hits ~baseline_dists:e.frontier_dists
    in
    let spent = ref 0 in
    let feedbacks =
      Array.map
        (fun (p : Mask.probe) ->
          if not (may_probe lane) then None
          else begin
            incr spent;
            count_probe lane;
            let probe =
              Seed.with_tx e.seed tx_index { tx with stream = p.probe_stream }
            in
            let summary, _ = exec lane probe in
            Some (feedback summary)
          end)
        (Mask.probes pl)
    in
    let m = Mask.finish pl feedbacks in
    (match lane with
    | Fold st ->
      Telemetry.Metrics.add st.meters.m_probes !spent;
      Telemetry.Metrics.add st.meters.m_probes_coord !spent
    | Collect _ -> (* accounted by the coordinator at merge *) ());
    Telemetry.Bus.emit bus (Telemetry.Event.Mask_updated { tx_index; probes = !spent });
    if Hashtbl.length e.masks < config.mask_cache_max then
      Hashtbl.replace e.masks tx_index m;
    Some m

(* Spend [energy] mutations on [entry] (Algorithm 1's inner loop with
   Algorithm 3's energy update). *)
let fuzz_entry lane (entry, energy) =
  let ctx, rng =
    match lane with Fold st -> (st.ctx, st.rng) | Collect w -> (w.w_ctx, w.w_rng)
  in
  let config = ctx.x_config in
  let remaining = ref energy in
  while !remaining > 0 && has_budget lane do
    let ntx = List.length entry.seed.txs in
    let tx_index = Util.Rng.int rng ntx in
    let tx = List.nth entry.seed.txs tx_index in
    let stream = tx.Seed.stream in
    let mask =
      if config.mask_guided && (entry.nested_hits <> [] || entry.frontier_dists <> [])
      then get_mask lane entry tx_index
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
      if has_budget lane then begin
        let summary, fresh = exec lane candidate in
        keep lane candidate summary ~fresh;
        remaining := Energy.update !remaining ~new_coverage:fresh
      end
      else remaining := 0
    end
  done

(* ==================== sequential campaign ==================== *)

(* Prediction between selections: for every ready frontier side, replay
   the pool's closest seed to recover the guarding comparison (one
   execution — comparisons are not stored in entries or snapshots),
   then spend up to [predict_max_candidates] executions on solved
   proposals, each skipped once the side flips. Entirely inert when
   [predict] is off: no RNG draws, no executions, no control-flow
   change. *)
let predict_serial st =
  if st.ctx.x_config.predict then
    List.iter
      (fun br ->
        if budget_left st && not (Coverage.is_covered st.coverage br) then begin
          let fired_at, e = fire st br in
          let replay = Executor.run_in_ctx st.xctxs.(0) e.seed in
          ignore (observe st ~worker:0 e.seed replay);
          (match comparison_for_branch replay.tx_results br with
          | None -> ()
          | Some (tx_index, cmp) ->
            List.iter
              (fun cand ->
                if budget_left st && not (Coverage.is_covered st.coverage br) then
                  fold_proposal st ~worker:0 br cand
                    (Executor.run_in_ctx st.xctxs.(0) cand))
              (predict_proposals st.ctx e ~tx_index ~cmp ~want:(snd br)));
          back_off st br fired_at
        end)
      (predict_ready st)

let run ?(config = Config.default) ?(sinks = []) ?metrics ?resume ?on_safe_point
    (contract : Minisol.Contract.t) =
  (* parked workers would stop with every minor collection of this
     single-domain campaign *)
  Pool.retire_idle ();
  let metrics =
    match metrics with Some m -> m | None -> Telemetry.Metrics.create ()
  in
  let ctx = make_ctx config contract in
  let bus = make_bus config ~total_sides:(total_sides_of_cfg ctx.x_cfg) sinks in
  let st = init_state ?resume ?on_safe_point ~jobs:1 ~bus ~metrics ctx in
  (* a resumed campaign already carries its seeded queue; re-running the
     bootstrap would double-spend the budget and desync the RNG *)
  if resume = None then begin
    (* replayed corpus first, then freshly generated seeds *)
    List.iter
      (fun seed -> if budget_left st then enqueue_run st seed)
      config.initial_corpus;
    for _ = 1 to config.initial_seeds do
      if budget_left st then enqueue_run st (new_seed ctx st.rng)
    done
  end;
  let preempted =
    until_preempted (fun () ->
        (* black-box mode: no feedback, fresh random seeds until the
           budget ends *)
        if config.blackbox then
          while budget_left st do
            safe_point st ~final:false;
            ignore (exec_on_coordinator st (new_seed ctx st.rng))
          done;
        while budget_left st && Array.length st.queue > 0 do
          safe_point st ~final:false;
          predict_serial st;
          fuzz_entry (Fold st) (with_energy st (select st))
        done)
  in
  let report = finish st ~preempted ~stalled:false (fun () -> None) in
  Telemetry.Bus.finalize bus;
  report

(* ==================== parallel campaign (domain pool) ====================

   Round-based coordinator/worker split. The coordinator owns the
   campaign state; workers own nothing but a coverage snapshot, a
   private RNG stream and a per-domain executor context. Each round the
   coordinator picks up to [jobs * round_batch] distinct seeds with the
   sequential selection policy, reserves disjoint slices of the
   execution budget as quotas, and deals the seed-energy pairs into one
   group per worker. Workers run the shared energy loop in the
   [Collect] lane; the coordinator merges results in task order, so
   Algorithms 2-3 semantics are unchanged — only freshness is judged
   against a snapshot that can be one round stale, which costs at most
   a few duplicate queue entries, never a lost one. *)

let run_parallel_on ~ctx ~bus ~metrics ?resume ?on_safe_point pool =
  let config = ctx.x_config in
  let jobs = Pool.size pool in
  let st = init_state ?resume ?on_safe_point ~jobs ~bus ~metrics ctx in
  (* the only part of the state worker tasks touch: their own context *)
  let xctxs = st.xctxs in
  let summarizers = Array.init jobs (fun _ -> summary_builder ctx) in
  let stats0 = Pool.stats pool in
  let execs_by_worker = Array.make jobs 0 in
  let rounds = ref 0 in
  let merge_seconds = ref 0.0 in
  let zero_rounds = ref 0 in
  (* every worker stream is a pure function of (campaign seed, dispatch
     counter): runs are reproducible for a fixed (rng_seed, jobs) — the
     counter rides along in checkpoints so resumed campaigns continue
     with fresh streams instead of replaying spent ones *)
  let next_worker_rng () =
    let k = st.rng_counter in
    st.rng_counter <- k + 1;
    Util.Rng.derive config.rng_seed k
  in
  (* run a coordinator-generated seed list across the pool, returning
     [(seed, worker, run)] in submission order — callers fold the runs
     in that order so feedback lands exactly as a sequential pass would.
     The shared dispatch under initial seeds, black-box batches and the
     batched predict phase *)
  let run_across_pool seeds =
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
                  (fun (i, seed) -> (i, worker, Executor.run_in_ctx xctx seed))
                  mine
              in
              Executor.flush xctx;
              out)
      in
      Pool.run_batch pool tasks |> Array.to_list |> List.concat
      |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
      |> List.map2
           (fun seed (_, worker, run) ->
             execs_by_worker.(worker) <- execs_by_worker.(worker) + 1;
             (seed, worker, run))
           seeds
    end
  in
  let execute_seeds ~enqueue:enq seeds =
    List.iter
      (fun (seed, worker, run) ->
        let summary, _ = observe st ~worker seed run in
        if enq then enqueue st seed summary)
      (run_across_pool seeds)
  in
  (* Prediction between rounds while the workers are parked at the
     barrier, in batched stages instead of the serial loop: (1) one
     replay per firing frontier side, all crossing the pool as a single
     batch; (2) the solved proposals for every side the replays left
     uncovered, again as one batch, capped at the remaining execution
     budget; (3) backoff for sides that still did not flip. The only
     divergence from the serial loop is bounded overspend: a proposal
     batched before a sibling proposal flips its branch still executes
     — the budget cap itself stays exact. *)
  let predict_batched () =
    if config.predict then begin
      let firing =
        List.filter_map
          (fun br ->
            if budget_left st && not (Coverage.is_covered st.coverage br) then
              let fired_at, e = fire st br in
              Some (br, fired_at, e)
            else None)
          (predict_ready st)
      in
      (* cap each stage at the remaining budget: the batch may not push
         [execs] past [max_executions] *)
      let cap l =
        List.filteri (fun i _ -> i < config.max_executions - st.execs) l
      in
      let firing = cap firing in
      if firing <> [] then begin
        let replays =
          run_across_pool (List.map (fun (_, _, e) -> e.seed) firing)
        in
        List.iter
          (fun (seed, worker, run) -> ignore (observe st ~worker seed run))
          replays;
        let proposals =
          List.concat
            (List.map2
               (fun (br, _, e) (_, _, (run : Executor.run)) ->
                 if Coverage.is_covered st.coverage br then []
                 else
                   match comparison_for_branch run.tx_results br with
                   | None -> []
                   | Some (tx_index, cmp) ->
                     List.map
                       (fun cand -> (br, cand))
                       (predict_proposals ctx e ~tx_index ~cmp ~want:(snd br)))
               firing replays)
          |> cap
        in
        List.iter2
          (fun (br, _) (seed, worker, run) ->
            fold_proposal st ~worker br seed run)
          proposals
          (run_across_pool (List.map snd proposals));
        List.iter (fun (br, fired_at, _) -> back_off st br fired_at) firing
      end
    end
  in
  let round () =
    incr rounds;
    let rem = config.max_executions - st.execs in
    (* coarse rounds: [round_batch] seeds per worker per merge barrier,
       so a 3000-exec campaign crosses a handful of barriers instead of
       dozens — per-round coordination (snapshot copies, RNG derivation,
       parking/waking the pool) is the dominant parallel overhead *)
    let want = Stdlib.min (jobs * Stdlib.max 1 config.round_batch) rem in
    (* up to [want] distinct seeds, picked with the sequential policy *)
    let chosen = ref [] in
    let tries = ref 0 in
    while List.length !chosen < want && !tries < 4 * want do
      incr tries;
      let entry = select st in
      if not (List.memq entry !chosen) then chosen := entry :: !chosen
    done;
    (* energies assigned in choice order against the round-start weight
       table, then the pairs are dealt round-robin into one group per
       task *)
    let pairs = List.map (with_energy st) (List.rev !chosen) in
    let ntasks = Stdlib.min (Stdlib.min jobs (List.length pairs)) rem in
    let base_quota = rem / ntasks and extra = rem mod ntasks in
    let mask_cap =
      int_of_float
        (config.mask_budget_fraction *. float_of_int config.max_executions)
    in
    let mask_share = Stdlib.max 0 (mask_cap - st.mask_probes) / ntasks in
    let best = Branch_summary.Tbl.create (Stdlib.max 16 (Hashtbl.length st.best)) in
    Hashtbl.iter
      (fun (pc, taken) (d, _) ->
        Branch_summary.Tbl.replace best (Branch_summary.side pc taken) d)
      st.best;
    let groups = Array.make ntasks [] in
    List.iteri
      (fun i p -> groups.(i mod ntasks) <- p :: groups.(i mod ntasks))
      pairs;
    let tasks =
      Array.init ntasks (fun i ->
          let group = List.rev groups.(i) in
          let quota = base_quota + if i < extra then 1 else 0 in
          let rng = next_worker_rng () in
          let cov = Coverage.copy st.coverage in
          fun id ->
            let w =
              {
                w_id = id; w_ctx = ctx; w_bus = bus; w_xctx = xctxs.(id);
                w_summarizer = summarizers.(id); w_rng = rng; w_cov = cov; w_best = best; w_quota = quota;
                w_mask_allowance = mask_share; w_execs = 0; w_steps = 0;
                w_probes = 0; w_cands = []; w_findings = []; w_weights = [];
                w_attempts = Hashtbl.create 16;
              }
            in
            List.iter (fuzz_entry (Collect w)) group;
            Executor.flush w.w_xctx;
            w)
    in
    (* workers never emit New_branch_side (their snapshots race); the
       coordinator diffs the merged covered set per round instead *)
    let covered_before =
      if Telemetry.Bus.enabled bus then Coverage.covered st.coverage else []
    in
    let round_execs = ref 0 in
    (* incremental merge: task i folds in (in submission order, so the
       merge sequence is deterministic) while tasks i+1.. are still
       running on the workers *)
    Pool.run_batch_iter pool tasks ~merge:(fun _ w ->
        let t0 = Unix.gettimeofday () in
        round_execs := !round_execs + w.w_execs;
        Telemetry.Metrics.add st.meters.m_execs w.w_execs;
        Telemetry.Metrics.add st.meters.m_probes w.w_probes;
        st.execs <- st.execs + w.w_execs;
        st.steps <- st.steps + w.w_steps;
        st.mask_probes <- st.mask_probes + w.w_probes;
        execs_by_worker.(w.w_id) <- execs_by_worker.(w.w_id) + w.w_execs;
        List.iter
          (fun c ->
            (* a fresh candidate that lost the freshness race (another
               domain covered the same side this round) is judged as
               improving-only *)
            let fresh = Coverage.record_run st.coverage c.c_summary in
            admit st c.c_seed c.c_summary ~fresh:(fresh && c.c_fresh))
          (List.rev w.w_cands);
        List.iter
          (fun (f, seed) -> note_findings st seed [ f ])
          (List.rev w.w_findings);
        merge_weights st (List.rev w.w_weights);
        Coverage.merge ~into:st.coverage w.w_cov;
        (* sum worker attempt counts, dropping sides the merged coverage
           has since flipped — they no longer need prediction *)
        Hashtbl.iter
          (fun br n ->
            if not (Coverage.is_covered st.coverage br) then
              Hashtbl.replace st.attempts br
                (n + Option.value ~default:0 (Hashtbl.find_opt st.attempts br)))
          w.w_attempts;
        checkpoint st;
        merge_seconds := !merge_seconds +. (Unix.gettimeofday () -. t0));
    if !round_execs = 0 then incr zero_rounds else zero_rounds := 0;
    Telemetry.Metrics.set st.meters.m_covered
      (float_of_int (Coverage.covered_count st.coverage));
    if Telemetry.Bus.enabled bus then begin
      let base = List.length covered_before in
      List.filter
        (fun br -> not (List.mem br covered_before))
        (Coverage.covered st.coverage)
      |> List.sort compare
      |> List.iteri (fun i (pc, taken) ->
             Telemetry.Bus.emit bus
               (Telemetry.Event.New_branch_side { pc; taken; covered = base + i + 1 }))
    end;
    Telemetry.Bus.emit bus
      (Telemetry.Event.Batch_merge
         {
           round = !rounds;
           execs = !round_execs;
           covered = Coverage.covered_count st.coverage;
         });
    Log.debug (fun m ->
        m "round %d: %d seeds in %d tasks, %d execs, coverage %d sides" !rounds
          (List.length pairs) ntasks !round_execs
          (Coverage.covered_count st.coverage))
  in
  if resume = None then begin
    let fresh = List.init config.initial_seeds (fun _ -> new_seed ctx st.rng) in
    execute_seeds ~enqueue:true
      (List.filteri
         (fun i _ -> i < config.max_executions)
         (config.initial_corpus @ fresh))
  end;
  let preempted =
    until_preempted (fun () ->
        if config.blackbox then
          while budget_left st do
            safe_point st ~final:false;
            let n = Stdlib.min (config.max_executions - st.execs) (jobs * 32) in
            execute_seeds ~enqueue:false (List.init n (fun _ -> new_seed ctx st.rng))
          done;
        while budget_left st && Array.length st.queue > 0 && !zero_rounds < 64 do
          round ();
          (* after the merge (so attempt counts are current) and before
             the next round's quota split, which needs a non-empty
             remainder *)
          if budget_left st then predict_batched ();
          safe_point st ~final:false
        done)
  in
  finish st ~preempted ~stalled:(!zero_rounds >= 64) (fun () ->
      let stats1 = Pool.stats pool in
      let sum a = Array.fold_left ( +. ) 0.0 a in
      Some
        {
          Report.jobs;
          rounds = !rounds;
          round_batch = Stdlib.max 1 config.round_batch;
          merge_seconds = !merge_seconds;
          merge_wait_seconds = stats1.merge_wait_seconds -. stats0.merge_wait_seconds;
          worker_idle_seconds = sum stats1.stall_seconds -. sum stats0.stall_seconds;
          steals = stats1.steals - stats0.steals;
          domains =
            List.init jobs (fun i ->
                {
                  Report.domain = i;
                  d_execs = execs_by_worker.(i);
                  busy_seconds = stats1.busy_seconds.(i) -. stats0.busy_seconds.(i);
                  stall_seconds = stats1.stall_seconds.(i) -. stats0.stall_seconds.(i);
                });
        })

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
    let ctx = make_ctx config contract in
    let bus = make_bus config ~total_sides:(total_sides_of_cfg ctx.x_cfg) sinks in
    let report =
      match pool with
      | Some p -> run_parallel_on ~ctx ~bus ~metrics ?resume ?on_safe_point p
      | None ->
        (* a borrowed pool (rather than one passed in) also reports its
           steal events through the campaign's bus *)
        Pool.with_borrowed ~bus ~metrics ~jobs (fun p ->
            run_parallel_on ~ctx ~bus ~metrics ?resume ?on_safe_point p)
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
