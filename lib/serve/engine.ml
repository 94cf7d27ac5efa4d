(* The campaign engine: registry + priority scheduler + time-slicing.

   Single-threaded and cooperative. A campaign runs in slices of
   [slice_execs] executions: the engine installs an [on_safe_point]
   hook that, once the slice budget is spent, forces the snapshot
   thunk, writes it as a [Persist] checkpoint into the campaign's
   namespaced store and raises [Mufuzz.Campaign.Preempt]; the campaign
   returns a partial report with [stop_reason = Preempted] and the
   engine parks the snapshot as the resume point. Because the
   snapshot/resume machinery is exact at [jobs = 1], a campaign sliced
   N ways produces the same final report as an uninterrupted run —
   preemption is invisible in the results, only in the wall clock.

   Everything the engine knows is also on disk under
   [state_dir/<id>/]: the submitted source ([contract.sol]), scheduler
   metadata ([meta.json]), the per-campaign event trace
   ([events.jsonl], appended across slices), rotated checkpoints, the
   final report ([report.json]) and shrunk repro artifacts
   ([artifacts/]). A restarted engine rescans the directory and picks
   up unfinished campaigns from their last checkpoint. *)

module J = Telemetry.Json

let log_src = Logs.Src.create "mufuzz.serve" ~doc:"fuzzing service engine"

module Log = (val Logs.src_log log_src : Logs.LOG)

type phase = Queued | Running | Completed | Failed of string | Cancelled

let phase_string = function
  | Queued -> "queued"
  | Running -> "running"
  | Completed -> "completed"
  | Failed _ -> "failed"
  | Cancelled -> "cancelled"

type campaign = {
  id : string;
  seq : int;  (* submission order, FIFO tie-break *)
  priority : int;
  contract : Minisol.Contract.t;
  profile : Baselines.Fuzzers.profile;
  config : Mufuzz.Config.t;  (* effective (profile-applied) *)
  dir : string;
  ckpt : Persist.Driver.t;  (* slice checkpoints, under [dir] *)
  mutable phase : phase;
  mutable resume : (string * Mufuzz.Campaign.snapshot) option;
  mutable execs : int;
  mutable covered : int;
  mutable total_sides : int;
  mutable findings : int;
  mutable stop_reason : string option;
  mutable slices : int;
  mutable busy_seconds : float;
  mutable last_ran : int;  (* scheduler tick of the last slice *)
  mutable artifact_count : int;
  mutable report_cache : J.t option;
}

type t = {
  state_dir : string;
  slice_execs : int;
  checkpoint_keep : int;
  metrics : Telemetry.Metrics.t;
  pool : Mufuzz.Pool.t option;
  campaigns : (string, campaign) Hashtbl.t;
  mutable next_seq : int;
  mutable tick : int;
  c_submitted : Telemetry.Metrics.counter;
  c_slices : Telemetry.Metrics.counter;
  g_queued : Telemetry.Metrics.gauge;
  g_active : Telemetry.Metrics.gauge;
  g_completed : Telemetry.Metrics.gauge;
  g_failed : Telemetry.Metrics.gauge;
}

let state_dir t = t.state_dir

let metrics t = t.metrics

(* ---------------- service gauges ---------------- *)

let refresh_gauges t =
  let q = ref 0 and a = ref 0 and c = ref 0 and f = ref 0 in
  Hashtbl.iter
    (fun _ camp ->
      match camp.phase with
      | Queued -> incr q
      | Running -> incr a
      | Completed -> incr c
      | Failed _ -> incr f
      | Cancelled -> ())
    t.campaigns;
  Telemetry.Metrics.set t.g_queued (float_of_int !q);
  Telemetry.Metrics.set t.g_active (float_of_int !a);
  Telemetry.Metrics.set t.g_completed (float_of_int !c);
  Telemetry.Metrics.set t.g_failed (float_of_int !f)

let campaign_rate_gauge t c =
  Telemetry.Metrics.gauge t.metrics
    ~help:"executions per second of busy time, per campaign"
    (Telemetry.Metrics.labeled "mufuzz_campaign_execs_per_sec"
       [ ("id", c.id) ])

let campaign_execs_gauge t c =
  Telemetry.Metrics.gauge t.metrics
    ~help:"executions performed so far, per campaign"
    (Telemetry.Metrics.labeled "mufuzz_campaign_execs" [ ("id", c.id) ])

let note_progress t c =
  Telemetry.Metrics.set (campaign_execs_gauge t c) (float_of_int c.execs);
  if c.busy_seconds > 0.0 then
    Telemetry.Metrics.set (campaign_rate_gauge t c)
      (float_of_int c.execs /. c.busy_seconds)

(* ---------------- on-disk metadata ---------------- *)

let meta_path c = Filename.concat c.dir "meta.json"

let source_path c = Filename.concat c.dir "contract.sol"

let report_path c = Filename.concat c.dir "report.json"

let events_path c = Filename.concat c.dir "events.jsonl"

let artifacts_dir c = Filename.concat c.dir "artifacts"

let meta_json c =
  let opt_str = function None -> J.Null | Some s -> J.String s in
  J.Obj
    [
      ("id", J.String c.id);
      ("contract", J.String c.contract.Minisol.Contract.name);
      ("tool", J.String c.profile.name);
      ("priority", J.Int c.priority);
      ("budget", J.Int c.config.max_executions);
      ("seed", J.String (Int64.to_string c.config.rng_seed));
      ("jobs", J.Int c.config.jobs);
      ("status", J.String (phase_string c.phase));
      ("execs", J.Int c.execs);
      ("covered", J.Int c.covered);
      ("total_sides", J.Int c.total_sides);
      ("findings", J.Int c.findings);
      ("slices", J.Int c.slices);
      ("artifact_count", J.Int c.artifact_count);
      ("stop_reason", opt_str c.stop_reason);
      ( "error",
        match c.phase with Failed e -> J.String e | _ -> J.Null );
    ]

let write_meta c =
  try Util.Fileio.write_atomic (meta_path c) (J.to_string (meta_json c) ^ "\n")
  with Sys_error msg -> Log.warn (fun m -> m "%s: meta write failed: %s" c.id msg)

(* ---------------- construction ---------------- *)

let effective_config ?(budget = 5000) ?(seed = 42L) ?(jobs = 1)
    (profile : Baselines.Fuzzers.profile) =
  profile.configure
    {
      Mufuzz.Config.default with
      max_executions = Stdlib.max 1 budget;
      rng_seed = seed;
      jobs = Stdlib.max 1 jobs;
    }

let compile_source source =
  match Minisol.Contract.compile source with
  | c -> Ok c
  | exception Minisol.Lexer.Lex_error (msg, line, col) ->
    Error (Printf.sprintf "%d:%d: lexical error: %s" line col msg)
  | exception Minisol.Parser.Parse_error (msg, line, col) ->
    Error (Printf.sprintf "%d:%d: parse error: %s" line col msg)
  | exception Minisol.Typecheck.Type_error msg ->
    Error (Printf.sprintf "type error: %s" msg)

let add_campaign t ~id ~priority ~contract ~profile ~config =
  let store =
    Persist.Store.namespaced ~dir:t.state_dir ~id ~keep:t.checkpoint_keep
  in
  let c =
    {
      id;
      seq = t.next_seq;
      priority;
      contract;
      profile;
      config;
      dir = Persist.Store.dir store;
      ckpt =
        Persist.Driver.create ~metrics:t.metrics ~tool:profile.name ~contract
          store config;
      phase = Queued;
      resume = None;
      execs = 0;
      covered = 0;
      total_sides = 0;
      findings = 0;
      stop_reason = None;
      slices = 0;
      busy_seconds = 0.0;
      last_ran = 0;
      artifact_count = 0;
      report_cache = None;
    }
  in
  t.next_seq <- t.next_seq + 1;
  Hashtbl.replace t.campaigns id c;
  c

let id_of_num n = Printf.sprintf "c%04d" n

let num_of_id id =
  if String.length id > 1 && id.[0] = 'c' then
    int_of_string_opt (String.sub id 1 (String.length id - 1))
  else None

let fresh_id t =
  let used = Hashtbl.fold (fun id _ acc -> id :: acc) t.campaigns [] in
  let top =
    List.fold_left
      (fun acc id -> match num_of_id id with Some n -> Stdlib.max acc n | None -> acc)
      0 used
  in
  id_of_num (top + 1)

(* ---------------- restart scan ---------------- *)

module D = J.Decode

(* meta.json is advisory: an absent or ill-typed field takes its
   default. *)
let meta_opt meta name d = Option.join (Result.to_option (D.field_opt name d meta))

let meta_or meta name d ~default = Option.value (meta_opt meta name d) ~default

let restore_campaign t id =
  let dir = Filename.concat t.state_dir id in
  let meta_file = Filename.concat dir "meta.json" in
  if not (Sys.file_exists meta_file) then ()
  else
    match J.of_string (Util.Fileio.read_file meta_file) with
    | Error e | (exception Sys_error e) ->
      Log.warn (fun m -> m "%s: unreadable meta.json: %s" id e)
    | Ok meta -> (
      let status = meta_or meta "status" D.string ~default:"queued" in
      let priority = meta_or meta "priority" D.int ~default:0 in
      let budget = meta_or meta "budget" D.int ~default:5000 in
      let seed = meta_or meta "seed" D.int64_decimal ~default:42L in
      let jobs = meta_or meta "jobs" D.int ~default:1 in
      let tool = meta_or meta "tool" D.string ~default:"MuFuzz" in
      match Baselines.Fuzzers.find tool with
      | None -> Log.warn (fun m -> m "%s: unknown tool %S in meta.json" id tool)
      | Some profile -> (
        let from_checkpoint () =
          match Persist.Store.load_latest dir with
          | Ok (path, ckpt) ->
            let c =
              add_campaign t ~id ~priority ~contract:ckpt.contract ~profile
                ~config:ckpt.config
            in
            c.phase <- Running;
            c.resume <- Some (path, ckpt.snapshot);
            c.execs <- ckpt.snapshot.Mufuzz.Campaign.sn_execs;
            c.slices <- Stdlib.max 1 (meta_or meta "slices" D.int ~default:1);
            Some c
          | Error e ->
            Log.warn (fun m -> m "%s: checkpoint unreadable: %s" id e);
            None
        in
        let from_source () =
          match compile_source (Util.Fileio.read_file (Filename.concat dir "contract.sol")) with
          | Ok contract ->
            Some
              (add_campaign t ~id ~priority ~contract ~profile
                 ~config:(effective_config ~budget ~seed ~jobs profile))
          | Error e | (exception Sys_error e) ->
            Log.warn (fun m -> m "%s: cannot restore source: %s" id e);
            None
        in
        match status with
        | "running" -> (
          (* resume from the last checkpoint; a campaign killed before
             its first slice finished restarts from scratch *)
          match from_checkpoint () with
          | Some _ -> ()
          | None -> (
            match from_source () with
            | Some _ -> ()
            | None -> ()))
        | "queued" -> ignore (from_source ())
        | ("completed" | "failed" | "cancelled") as st -> (
          match from_source () with
          | None -> ()
          | Some c ->
            c.phase <-
              (match st with
              | "completed" -> Completed
              | "failed" -> Failed (meta_or meta "error" D.string ~default:"unknown")
              | _ -> Cancelled);
            let count name = meta_or meta name D.int ~default:0 in
            c.execs <- count "execs";
            c.covered <- count "covered";
            c.total_sides <- count "total_sides";
            c.findings <- count "findings";
            c.slices <- count "slices";
            c.artifact_count <- count "artifact_count";
            c.stop_reason <- meta_opt meta "stop_reason" D.string)
        | other -> Log.warn (fun m -> m "%s: unknown status %S" id other)))

let scan t =
  match Sys.readdir t.state_dir with
  | exception Sys_error _ -> ()
  | names ->
    Array.to_list names
    |> List.filter (fun n ->
           Persist.Store.valid_namespace n
           && Sys.is_directory (Filename.concat t.state_dir n))
    |> List.sort compare
    |> List.iter (restore_campaign t)

let create ?(slice_execs = 500) ?(checkpoint_keep = 3) ?(jobs = 1) ~state_dir
    ~metrics () =
  Util.Fileio.mkdirs state_dir;
  let t =
    {
      state_dir;
      slice_execs = Stdlib.max 1 slice_execs;
      checkpoint_keep = Stdlib.max 1 checkpoint_keep;
      metrics;
      pool =
        (if jobs > 1 then Some (Mufuzz.Pool.create ~metrics ~jobs ())
         else None);
      campaigns = Hashtbl.create 16;
      next_seq = 0;
      tick = 0;
      c_submitted =
        Telemetry.Metrics.counter metrics ~help:"campaign submissions accepted"
          "mufuzz_campaigns_submitted_total";
      c_slices =
        Telemetry.Metrics.counter metrics
          ~help:"scheduler time slices executed" "mufuzz_campaign_slices_total";
      g_queued =
        Telemetry.Metrics.gauge metrics ~help:"campaigns waiting to run"
          "mufuzz_campaigns_queued";
      g_active =
        Telemetry.Metrics.gauge metrics ~help:"campaigns mid-run"
          "mufuzz_campaigns_active";
      g_completed =
        Telemetry.Metrics.gauge metrics ~help:"campaigns finished"
          "mufuzz_campaigns_completed";
      g_failed =
        Telemetry.Metrics.gauge metrics ~help:"campaigns that died on an error"
          "mufuzz_campaigns_failed";
    }
  in
  scan t;
  refresh_gauges t;
  t

let shutdown t =
  Hashtbl.iter (fun _ c -> write_meta c) t.campaigns;
  Option.iter Mufuzz.Pool.shutdown t.pool

(* ---------------- scheduling ---------------- *)

(* Highest priority first; within a priority, the least-recently-run
   campaign (round-robin across slices), then submission order. *)
let sched_order a b =
  match compare b.priority a.priority with
  | 0 -> (
    match compare a.last_ran b.last_ran with
    | 0 -> compare a.seq b.seq
    | n -> n)
  | n -> n

let runnable t =
  Hashtbl.fold
    (fun _ c acc ->
      match c.phase with Queued | Running -> c :: acc | _ -> acc)
    t.campaigns []
  |> List.sort sched_order

let has_runnable t = runnable t <> []

(* ---------------- the slice ---------------- *)

let complete t c (report : Mufuzz.Report.t) =
  c.stop_reason <-
    Some (Mufuzz.Report.stop_reason_to_string report.stop_reason);
  c.resume <- None;
  let rj = Mufuzz.Report.to_json report in
  c.report_cache <- Some rj;
  (try Util.Fileio.write_atomic (report_path c) (J.to_string rj ^ "\n")
   with Sys_error msg ->
     Log.warn (fun m -> m "%s: report write failed: %s" c.id msg));
  (* shrink each finding's witness into a self-contained repro artifact *)
  if report.witness_seeds <> [] then
    List.iter
      (fun ((f : Oracles.Oracle.finding), outcome) ->
        match outcome with
        | Ok _ -> c.artifact_count <- c.artifact_count + 1
        | Error e ->
          Log.warn (fun m ->
              m "%s: finding [%s] pc=%d %s; no artifact" c.id
                (Oracles.Oracle.class_to_string f.cls) f.pc e))
      (Triage.Repro.save_witnesses ~dir:(artifacts_dir c) ~config:c.config
         ~contract:c.contract report.witness_seeds);
  c.phase <- Completed;
  Log.info (fun m ->
      m "%s: completed (%d execs, %d findings, %s)" c.id c.execs c.findings
        (Option.value c.stop_reason ~default:"?"));
  write_meta c;
  refresh_gauges t

let fail t c msg =
  c.phase <- Failed msg;
  c.resume <- None;
  Log.warn (fun m -> m "%s: failed: %s" c.id msg);
  write_meta c;
  refresh_gauges t

let run_slice t c =
  t.tick <- t.tick + 1;
  c.last_ran <- t.tick;
  if c.phase = Queued then begin
    c.phase <- Running;
    refresh_gauges t
  end;
  Telemetry.Metrics.incr t.c_slices;
  let slice_end = c.execs + t.slice_execs in
  let grabbed = ref None in
  let hook ~final ~bus ~execs thunk =
    if (not final) && execs >= slice_end then begin
      let snapshot = thunk () in
      (* resume in memory even when the disk is full; only the
         crash-safety of this campaign degrades *)
      let path =
        Option.value
          (Persist.Driver.save c.ckpt ~bus ~execs snapshot)
          ~default:(Filename.concat c.dir "(unsaved)")
      in
      grabbed := Some (path, snapshot);
      raise Mufuzz.Campaign.Preempt
    end
  in
  let sinks =
    try [ Telemetry.Sink.jsonl ~append:(c.slices > 0) (events_path c) ]
    with Sys_error _ -> []
  in
  c.slices <- c.slices + 1;
  let t0 = Unix.gettimeofday () in
  match
    Baselines.Fuzzers.run c.profile ~config:c.config ~sinks ~metrics:t.metrics
      ?pool:(if c.config.jobs > 1 then t.pool else None)
      ?resume:c.resume ~on_safe_point:hook c.contract
  with
  | report ->
    c.busy_seconds <- c.busy_seconds +. (Unix.gettimeofday () -. t0);
    c.execs <- report.executions;
    c.covered <- report.covered_branches;
    c.total_sides <- report.total_branch_sides;
    c.findings <- List.length report.findings;
    note_progress t c;
    (match report.stop_reason with
    | Mufuzz.Report.Preempted ->
      (match !grabbed with
      | Some r -> c.resume <- Some r
      | None -> fail t c "preempted without a snapshot");
      write_meta c
    | _ -> complete t c report)
  | exception e ->
    c.busy_seconds <- c.busy_seconds +. (Unix.gettimeofday () -. t0);
    fail t c (Printexc.to_string e)

let step t =
  match runnable t with
  | [] -> None
  | c :: _ ->
    run_slice t c;
    Some c.id

let rec run_to_completion t =
  match step t with None -> () | Some _ -> run_to_completion t

(* ---------------- the protocol surface ---------------- *)

let err code fmt = Printf.ksprintf (fun s -> Error (code, s)) fmt

let find t id =
  match Hashtbl.find_opt t.campaigns id with
  | Some c -> Ok c
  | None -> err Protocol.Unknown_id "no campaign %s" id

let position t c =
  match c.phase with
  | Queued | Running ->
    let rec index i = function
      | [] -> None
      | x :: _ when x.id = c.id -> Some i
      | _ :: rest -> index (i + 1) rest
    in
    index 0 (runnable t)
  | _ -> None

let status_fields t c =
  let opt_str = function None -> J.Null | Some s -> J.String s in
  let coverage_pct =
    if c.total_sides = 0 then 0.0
    else 100.0 *. float_of_int c.covered /. float_of_int c.total_sides
  in
  [
    ("id", J.String c.id);
    ("contract", J.String c.contract.Minisol.Contract.name);
    ("tool", J.String c.profile.name);
    ("state", J.String (phase_string c.phase));
    ( "position",
      match position t c with None -> J.Null | Some i -> J.Int i );
    ("priority", J.Int c.priority);
    ("execs", J.Int c.execs);
    ("budget", J.Int c.config.max_executions);
    ("covered_branches", J.Int c.covered);
    ("total_branch_sides", J.Int c.total_sides);
    ("coverage_pct", J.Float coverage_pct);
    ("findings", J.Int c.findings);
    ("slices", J.Int c.slices);
    ( "execs_per_sec",
      J.Float
        (if c.busy_seconds > 0.0 then
           float_of_int c.execs /. c.busy_seconds
         else 0.0) );
    ("artifact_count", J.Int c.artifact_count);
    ("stop_reason", opt_str c.stop_reason);
    ("error", match c.phase with Failed e -> J.String e | _ -> J.Null);
  ]

(* A "file" submission is read inside the daemon's single-threaded
   event loop, so only a bounded regular file may be opened: opening a
   FIFO for reading blocks until a writer appears, wedging every
   connection. The stat rejects anything else before it is opened; the
   non-blocking open and the fstat close the window in which the path
   could be swapped for a FIFO. *)
let read_source path =
  let bad fmt = err Protocol.Bad_request fmt in
  let check (st : Unix.stats) =
    if st.st_kind <> Unix.S_REG then bad "%s is not a regular file" path
    else if st.st_size > Protocol.max_source_bytes then
      bad "%s is %d bytes, over the %d-byte source limit" path st.st_size
        Protocol.max_source_bytes
    else Ok st.st_size
  in
  try
    Result.bind (check (Unix.stat path)) (fun _ ->
        let fd = Unix.openfile path [ O_RDONLY; O_NONBLOCK; O_CLOEXEC ] 0 in
        let ic = Unix.in_channel_of_descr fd in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> Result.map (really_input_string ic) (check (Unix.fstat fd))))
  with
  | Unix.Unix_error (e, _, _) -> bad "cannot read %s: %s" path (Unix.error_message e)
  | Sys_error msg -> bad "cannot read %s" msg
  | End_of_file -> bad "cannot read %s: the file shrank while being read" path

let submit t (s : Protocol.submit) =
  let ( let* ) = Result.bind in
  let* source =
    match s.sub_source with
    | `Inline src -> Ok src
    | `File path -> read_source path
  in
  let* contract =
    match compile_source source with
    | Ok c -> Ok c
    | Error e -> err Protocol.Bad_request "source does not compile: %s" e
  in
  let* profile =
    let tool = Option.value s.sub_tool ~default:"MuFuzz" in
    match Baselines.Fuzzers.find tool with
    | Some p -> Ok p
    | None -> err Protocol.Bad_request "unknown tool %S" tool
  in
  let* jobs =
    match Option.map Mufuzz.Pool.check_jobs s.sub_jobs with
    | Some (Error msg) -> err Protocol.Bad_request "%s" msg
    | Some (Ok j) when j > 1 && t.pool = None ->
      err Protocol.Bad_request
        "jobs %d requested but the daemon runs without a worker pool (start \
         it with --jobs)" j
    | Some (Ok j) -> Ok j
    | None -> Ok 1
  in
  let config =
    effective_config ?budget:s.sub_budget ?seed:s.sub_seed ~jobs profile
  in
  let id = fresh_id t in
  let c =
    add_campaign t ~id ~priority:s.sub_priority ~contract ~profile ~config
  in
  (try Util.Fileio.write_atomic (source_path c) source
   with Sys_error msg ->
     Log.warn (fun m -> m "%s: source write failed: %s" id msg));
  write_meta c;
  Telemetry.Metrics.incr t.c_submitted;
  refresh_gauges t;
  Log.info (fun m ->
      m "%s: submitted %s (%s, budget %d, priority %d)" id
        contract.Minisol.Contract.name c.profile.name config.max_executions
        c.priority);
  Ok (status_fields t c)

let status t id =
  let ( let* ) = Result.bind in
  let* c = find t id in
  Ok (status_fields t c)

let list_campaigns t =
  Hashtbl.fold (fun _ c acc -> c :: acc) t.campaigns []
  |> List.sort (fun a b -> compare a.seq b.seq)
  |> List.map (fun c -> J.Obj (status_fields t c))

let cancel t id =
  let ( let* ) = Result.bind in
  let* c = find t id in
  match c.phase with
  | Queued | Running ->
    c.phase <- Cancelled;
    c.resume <- None;
    write_meta c;
    refresh_gauges t;
    Log.info (fun m -> m "%s: cancelled" id);
    Ok (status_fields t c)
  | p -> err Protocol.Bad_state "campaign %s is already %s" id (phase_string p)

let report t id =
  let ( let* ) = Result.bind in
  let* c = find t id in
  match c.phase with
  | Completed -> (
    match c.report_cache with
    | Some rj -> Ok rj
    | None -> (
      match J.of_string (Util.Fileio.read_file (report_path c)) with
      | Ok rj ->
        c.report_cache <- Some rj;
        Ok rj
      | Error e -> err Protocol.Internal "stored report unreadable: %s" e
      | exception Sys_error e -> err Protocol.Internal "stored report unreadable: %s" e))
  | p ->
    err Protocol.Bad_state "campaign %s is %s, not completed" id
      (phase_string p)

let artifacts t id =
  let ( let* ) = Result.bind in
  let* c = find t id in
  match c.phase with
  | Completed ->
    let dir = artifacts_dir c in
    let files =
      match Sys.readdir dir with
      | exception Sys_error _ -> []
      | names ->
        Array.to_list names
        |> List.filter (fun n -> Filename.check_suffix n ".json")
        |> List.sort compare
        |> List.map (Filename.concat dir)
    in
    Ok
      (List.filter_map
         (fun path ->
           match J.of_string (Util.Fileio.read_file path) with
           | Ok j -> Some (path, j)
           | Error e ->
             Log.warn (fun m -> m "%s: unreadable artifact %s: %s" id path e);
             None
           | exception Sys_error e ->
             Log.warn (fun m -> m "%s: unreadable artifact: %s" id e);
             None)
         files)
  | p ->
    err Protocol.Bad_state "campaign %s is %s, not completed" id
      (phase_string p)
