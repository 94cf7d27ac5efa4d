type checkpoint = { execs : int; covered : int }

type stop_reason =
  | Budget_exhausted
  | Time_exhausted
  | Queue_exhausted
  | Stalled
  | Preempted

let stop_reason_to_string = function
  | Budget_exhausted -> "budget-exhausted"
  | Time_exhausted -> "time-exhausted"
  | Queue_exhausted -> "queue-exhausted"
  | Stalled -> "stalled"
  | Preempted -> "preempted"

type domain_stat = {
  domain : int;
  d_execs : int;
  busy_seconds : float;
  stall_seconds : float;
}

type parallel_stats = {
  jobs : int;
  rounds : int;
  round_batch : int;
  merge_seconds : float;
  merge_wait_seconds : float;
  worker_idle_seconds : float;
  steals : int;
  domains : domain_stat list;
}

type t = {
  contract_name : string;
  executions : int;
  steps : int;
  mask_probes : int;
  predict_proposals : int;
  covered_branches : int;
  covered : (int * bool) list;
  total_branch_sides : int;
  findings : Oracles.Oracle.finding list;
  occurrences : (Oracles.Oracle.key * int) list;
  witnesses : (Oracles.Oracle.finding * string) list;
  witness_seeds : (Oracles.Oracle.finding * Seed.t) list;
  over_time : checkpoint list;
  seeds_in_queue : int;
  corpus : Seed.t list;
  corpus_skipped : (int * string) list;
  wall_seconds : float;
  stop_reason : stop_reason;
  parallel : parallel_stats option;
}

let execs_per_sec (d : domain_stat) =
  if d.busy_seconds > 0.0 then float_of_int d.d_execs /. d.busy_seconds else 0.0

let coverage_pct t =
  if t.total_branch_sides = 0 then 0.0
  else 100.0 *. float_of_int t.covered_branches /. float_of_int t.total_branch_sides

let findings_by_class t =
  List.filter_map
    (fun cls ->
      let n =
        List.length
          (List.filter (fun (f : Oracles.Oracle.finding) -> f.cls = cls) t.findings)
      in
      if n > 0 then Some (cls, n) else None)
    Oracles.Oracle.all_classes

let pp_summary fmt t =
  Format.fprintf fmt "%s: %d execs, coverage %.1f%% (%d/%d sides), %d findings@."
    t.contract_name t.executions (coverage_pct t) t.covered_branches
    t.total_branch_sides (List.length t.findings);
  List.iter
    (fun (cls, n) ->
      Format.fprintf fmt "  %s: %d@." (Oracles.Oracle.class_to_string cls) n)
    (findings_by_class t)

let to_text t =
  let buf = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "MuFuzz report for %s\n" t.contract_name;
  pf "====================%s\n\n" (String.make (String.length t.contract_name) '=');
  pf "executions      : %d\n" t.executions;
  pf "evm steps       : %d\n" t.steps;
  pf "mask probes     : %d\n" t.mask_probes;
  pf "predictions     : %d proposals\n" t.predict_proposals;
  pf "wall time       : %.2fs\n" t.wall_seconds;
  pf "stopped because : %s\n" (stop_reason_to_string t.stop_reason);
  pf "branch coverage : %.1f%% (%d of %d sides)\n" (coverage_pct t)
    t.covered_branches t.total_branch_sides;
  pf "seeds in queue  : %d\n" t.seeds_in_queue;
  pf "findings        : %d\n\n" (List.length t.findings);
  List.iter
    (fun (cls, n) ->
      pf "  %s  %d  (%s)\n"
        (Oracles.Oracle.class_to_string cls)
        n
        (Oracles.Oracle.class_description cls))
    (findings_by_class t);
  if t.occurrences <> [] then begin
    pf "\nunique findings (class@pc/call-path, occurrence count)\n";
    pf "------------------------------------------------------\n";
    List.iter
      (fun (k, n) ->
        pf "  %-28s %6d\n" (Oracles.Oracle.key_to_string k) n)
      t.occurrences
  end;
  if t.corpus_skipped <> [] then begin
    pf "\ncorpus blocks skipped as corrupt\n";
    List.iter (fun (i, reason) -> pf "  block %d: %s\n" i reason) t.corpus_skipped
  end;
  if t.witnesses <> [] then begin
    pf "\nwitnesses\n---------\n";
    List.iter
      (fun ((f : Oracles.Oracle.finding), w) ->
        pf "\n[%s] pc=%d tx#%d: %s\n  sequence: %s\n"
          (Oracles.Oracle.class_to_string f.cls)
          f.pc f.tx_index f.detail w)
      t.witnesses
  end;
  (match t.parallel with
  | None -> ()
  | Some p ->
    pf
      "\n\
       parallel execution (%d domains, %d rounds of %d seeds/domain, %.2fs \
       merging, %d steals)\n"
      p.jobs p.rounds p.round_batch p.merge_seconds p.steals;
    pf "  coordinator merge-wait %.2fs, worker idle %.2fs\n"
      p.merge_wait_seconds p.worker_idle_seconds;
    List.iter
      (fun d ->
        pf "  domain %d: %6d execs, %8.1f execs/sec, %.2fs stalled in batch\n"
          d.domain d.d_execs (execs_per_sec d) d.stall_seconds)
      p.domains);
  pf "\ncoverage growth (execs -> covered sides)\n";
  (* sample every [step]-th checkpoint but always print the final one;
     the length is hoisted so the last-index test is exact (and not
     recomputed per element) even when the list is empty or its length
     is a multiple of the step *)
  let n_checkpoints = List.length t.over_time in
  let step = Stdlib.max 1 (n_checkpoints / 20) in
  List.iteri
    (fun i (cp : checkpoint) ->
      if i mod step = 0 || i = n_checkpoints - 1 then
        pf "  %6d %4d\n" cp.execs cp.covered)
    t.over_time;
  Buffer.contents buf

(* ---------------- machine-readable report ---------------- *)

let to_json t =
  let module J = Telemetry.Json in
  let finding_json (f : Oracles.Oracle.finding) =
    J.Obj
      [
        ("class", J.String (Oracles.Oracle.class_to_string f.cls));
        ("pc", J.Int f.pc);
        ("tx_index", J.Int f.tx_index);
        ("detail", J.String f.detail);
      ]
  in
  let parallel_json (p : parallel_stats) =
    J.Obj
      [
        ("jobs", J.Int p.jobs);
        ("rounds", J.Int p.rounds);
        ("round_batch", J.Int p.round_batch);
        ("merge_seconds", J.Float p.merge_seconds);
        ("merge_wait_seconds", J.Float p.merge_wait_seconds);
        ("worker_idle_seconds", J.Float p.worker_idle_seconds);
        ("steals", J.Int p.steals);
        ( "domains",
          J.List
            (List.map
               (fun d ->
                 J.Obj
                   [
                     ("domain", J.Int d.domain);
                     ("execs", J.Int d.d_execs);
                     ("busy_seconds", J.Float d.busy_seconds);
                     ("stall_seconds", J.Float d.stall_seconds);
                     ("execs_per_sec", J.Float (execs_per_sec d));
                   ])
               p.domains) );
      ]
  in
  J.Obj
    [
      ("contract", J.String t.contract_name);
      ("executions", J.Int t.executions);
      ("steps", J.Int t.steps);
      ("mask_probes", J.Int t.mask_probes);
      ("predict_proposals", J.Int t.predict_proposals);
      ("stop_reason", J.String (stop_reason_to_string t.stop_reason));
      ("wall_seconds", J.Float t.wall_seconds);
      ( "execs_per_sec",
        J.Float
          (if t.wall_seconds > 0.0 then
             float_of_int t.executions /. t.wall_seconds
           else 0.0) );
      ( "steps_per_sec",
        J.Float
          (if t.wall_seconds > 0.0 then float_of_int t.steps /. t.wall_seconds
           else 0.0) );
      ("covered_branches", J.Int t.covered_branches);
      ("total_branch_sides", J.Int t.total_branch_sides);
      ("coverage_pct", J.Float (coverage_pct t));
      ( "covered",
        J.List
          (List.map
             (fun (pc, taken) ->
               J.Obj [ ("pc", J.Int pc); ("taken", J.Bool taken) ])
             t.covered) );
      ("findings", J.List (List.map finding_json t.findings));
      ( "unique_findings",
        J.List
          (List.map
             (fun ((k : Oracles.Oracle.key), count) ->
               J.Obj
                 [
                   ("class", J.String (Oracles.Oracle.class_to_string k.k_cls));
                   ("pc", J.Int k.k_pc);
                   ("path_hash", J.String k.k_path);
                   ("count", J.Int count);
                 ])
             t.occurrences) );
      ( "witnesses",
        J.List
          (List.map
             (fun ((f : Oracles.Oracle.finding), w) ->
               J.Obj
                 [
                   ("class", J.String (Oracles.Oracle.class_to_string f.cls));
                   ("pc", J.Int f.pc);
                   ("sequence", J.String w);
                 ])
             t.witnesses) );
      ( "over_time",
        J.List
          (List.map
             (fun (cp : checkpoint) ->
               J.Obj [ ("execs", J.Int cp.execs); ("covered", J.Int cp.covered) ])
             t.over_time) );
      ("seeds_in_queue", J.Int t.seeds_in_queue);
      ( "skipped",
        J.List
          (List.map
             (fun (i, reason) ->
               J.Obj [ ("block", J.Int i); ("reason", J.String reason) ])
             t.corpus_skipped) );
      ( "parallel",
        match t.parallel with None -> J.Null | Some p -> parallel_json p );
    ]

let to_json_string t = Telemetry.Json.to_string (to_json t)
