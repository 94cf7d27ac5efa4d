module J = Telemetry.Json

let src = Logs.Src.create "fleet.worker" ~doc:"fleet shard worker"

module Log = (val Logs.src_log src : Logs.LOG)

exception Interrupted

let progress_format = "mufuzz-fleet-progress"

let progress_version = 1

let shard_dir_name k = Printf.sprintf "shard-%04d" k

let progress_file = "progress.json"

let summary_file = "summary.json"

let heartbeat_file = "heartbeat"

let campaign_namespace ~index ~tool = Printf.sprintf "c%04d-%s" index tool

(* Progress is written only at contract granularity: [p_done] contracts
   are fully folded into [p_summary]. Campaigns inside the current
   contract checkpoint separately (under [c<idx>-<tool>/]), so a replay
   re-runs at most one contract, resuming each of its campaigns from
   its last checkpoint — and refolds them from scratch, keeping the
   summary arithmetic independent of where the kill landed. *)
let progress_json ~shard ~done_ ~summary =
  J.Obj
    [
      ("format", J.String progress_format);
      ("version", J.Int progress_version);
      ("shard", J.Int shard);
      ("done", J.Int done_);
      ("summary", Summary.to_json summary);
    ]

let load_progress ~dir ~shard ~buckets =
  let path = Filename.concat dir progress_file in
  if not (Sys.file_exists path) then Ok (0, Summary.empty ~buckets)
  else
    let open J.Decode in
    Result.map_error (Printf.sprintf "%s: %s" path)
      (let* content =
         try Ok (Util.Fileio.read_file path) with Sys_error e -> Error e
       in
       let* json = J.of_string (String.trim content) in
       let* () =
         header ~format:progress_format ~version:progress_version json
       in
       let* k = field "shard" int json in
       if k <> shard then
         Error (Printf.sprintf "progress is for shard %d, expected %d" k shard)
       else
         let* done_ = field "done" int json in
         let* summary = field "summary" Summary.of_json json in
         if summary.Summary.s_buckets <> buckets then
           Error
             (Printf.sprintf "progress buckets %d, config says %d"
                summary.Summary.s_buckets buckets)
         else Ok (done_, summary))

let touch path =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  Unix.close fd;
  try Unix.utimes path 0.0 0.0 (* 0.0 0.0 = set both times to now *)
  with Unix.Unix_error _ -> ()

(* One campaign in-process: build the per-(contract, tool) config,
   resume from the newest checkpoint if one survived a previous lease,
   run, and distil the observation. *)
let run_campaign ?metrics ~config ~(entry : Shard.entry) ~index ~contract
    ~(profile : Baselines.Fuzzers.profile) ~shard_dir ~heartbeat ~interrupt ()
    =
  let cdir =
    Filename.concat shard_dir
      (campaign_namespace ~index ~tool:profile.Baselines.Fuzzers.name)
  in
  let fresh () =
    let base =
      {
        Mufuzz.Config.default with
        rng_seed = Config.seed_for config entry.Shard.name;
        max_executions =
          Config.budget_for config ~size:(Config.size_of_contract contract);
        checkpoint_dir = Some cdir;
        checkpoint_every_execs = config.Config.checkpoint_every;
        checkpoint_keep = 2;
      }
    in
    (profile.configure base, None, 0)
  in
  let effective, resume, start_execs =
    if Sys.file_exists cdir then
      match Persist.Store.load_latest cdir with
      | Ok (path, ckpt) ->
        ( ckpt.Persist.Checkpoint.config,
          Some (path, ckpt.snapshot),
          ckpt.snapshot.Mufuzz.Campaign.sn_execs )
      | Error e ->
        Log.warn (fun m ->
            m "%s/%s: stale checkpoint unreadable (%s); restarting campaign"
              entry.Shard.name profile.name e);
        fresh ()
    else fresh ()
  in
  let driver =
    Persist.Driver.of_config ?metrics ~start_execs ~tool:profile.name
      ~contract effective
  in
  let on_safe_point ~final ~bus ~execs snapshot =
    Option.iter
      (fun d -> Persist.Driver.hook d ~final ~bus ~execs snapshot)
      driver;
    heartbeat ();
    if (not final) && interrupt () then raise Interrupted
  in
  Summary.obs_of_report
    (Baselines.Fuzzers.run profile ~config:effective ?metrics ?resume
       ~on_safe_point contract)

(* A lost daemon connection is not a campaign failure: it ends the
   worker, and the driver re-leases the shard. *)
exception Daemon_lost of string

let daemon_poll_interval = 0.02

(* One campaign as a serve-protocol round trip: submit, poll status
   (touching the heartbeat each time) until it finishes, fetch the JSON
   report and distil the observation. A refused request or a failed
   campaign is a campaign failure. *)
let daemon_runner conn ~addr ~heartbeat ~(config : Config.t)
    ~(entry : Shard.entry) ~contract ~(profile : Baselines.Fuzzers.profile) =
  let fail fmt =
    Printf.ksprintf
      (fun s -> failwith ("daemon " ^ Serve.Client.addr_to_string addr ^ ": " ^ s))
      fmt
  in
  let request json =
    match Serve.Client.request conn json with
    | Ok resp -> resp
    | Error (Serve.Client.Lost e) -> raise (Daemon_lost e)
    | Error (Serve.Client.Refused e) -> fail "%s" e
  in
  let string_field name json = Option.bind (J.member name json) J.string_value in
  let submit =
    request
      (J.Obj
         [
           ("op", J.String "submit");
           ("source", J.String entry.source);
           ( "budget",
             J.Int
               (Config.budget_for config ~size:(Config.size_of_contract contract))
           );
           ("seed", J.String (Int64.to_string (Config.seed_for config entry.name)));
           ("tool", J.String profile.name);
         ])
  in
  let id =
    match string_field "id" submit with
    | Some id -> id
    | None -> fail "submit response carries no id"
  in
  let rec wait () =
    heartbeat ();
    let status =
      request (J.Obj [ ("op", J.String "status"); ("id", J.String id) ])
    in
    match string_field "state" status with
    | Some "completed" -> ()
    | Some ("failed" | "cancelled") -> fail "campaign %s did not complete" id
    | Some _ | None ->
      (try ignore (Unix.select [] [] [] daemon_poll_interval)
       with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      wait ()
  in
  wait ();
  let report =
    request (J.Obj [ ("op", J.String "report"); ("id", J.String id) ])
  in
  match J.member "report" report with
  | None -> fail "report response carries no report"
  | Some rj -> (
    match Summary.obs_of_report_json rj with
    | Ok obs -> obs
    | Error e -> fail "report: %s" e)

let with_daemon daemon f =
  match daemon with
  | None -> f None
  | Some addr -> (
    match Serve.Client.connect addr with
    | Error e -> Error e
    | Ok conn ->
      Fun.protect
        ~finally:(fun () -> Serve.Client.close conn)
        (fun () ->
          try f (Some (addr, conn))
          with Daemon_lost e ->
            Error
              (Printf.sprintf "daemon %s: connection lost: %s"
                 (Serve.Client.addr_to_string addr) e)))

let run_shard ?metrics ?(heartbeat = fun () -> ()) ?(interrupt = fun () -> false)
    ?daemon ~state ~corpus ~shard ~(config : Config.t) () =
  let ( let* ) = Result.bind in
  let* manifest = Shard.load_manifest corpus in
  let* () = Config.validate_tools config in
  let shard_dir = Filename.concat state (shard_dir_name shard) in
  Util.Fileio.mkdirs shard_dir;
  let hb_path = Filename.concat shard_dir heartbeat_file in
  let beat () =
    heartbeat ();
    try touch hb_path with Unix.Unix_error _ -> ()
  in
  let* done_before, initial =
    load_progress ~dir:shard_dir ~shard ~buckets:config.buckets
  in
  if done_before > 0 then
    Log.info (fun m ->
        m "shard %d: resuming past %d completed contracts" shard done_before);
  let tools =
    List.filter_map Baselines.Fuzzers.find config.Config.tools
  in
  with_daemon daemon @@ fun conn ->
  let run_tool ~entry ~index ~contract ~profile =
    match conn with
    | Some (addr, conn) ->
      daemon_runner conn ~addr ~heartbeat:beat ~config ~entry ~contract
        ~profile
    | None ->
      run_campaign ?metrics ~config ~entry ~index ~contract ~profile
        ~shard_dir ~heartbeat:beat ~interrupt ()
  in
  beat ();
  let* summary =
    Shard.fold ~dir:corpus ~shard ~manifest ~init:initial
      ~f:(fun acc index entry ->
        if index < done_before then acc
        else begin
          if interrupt () then raise Interrupted;
          let acc =
            match Minisol.Contract.compile entry.Shard.source with
            | exception e ->
              Log.warn (fun m ->
                  m "shard %d: %s does not compile: %s" shard entry.Shard.name
                    (Printexc.to_string e));
              Summary.fold_failure acc ~name:entry.Shard.name
                ~reason:(Printf.sprintf "compile: %s" (Printexc.to_string e))
            | contract ->
              let size = Config.size_of_contract contract in
              let budget = Config.budget_for config ~size in
              let acc =
                List.fold_left
                  (fun acc profile ->
                    match run_tool ~entry ~index ~contract ~profile with
                    | obs ->
                      Summary.fold acc ~tool:profile.Baselines.Fuzzers.name
                        ~size ~budget obs
                    | exception
                        ((Interrupted | Mufuzz.Campaign.Preempt | Daemon_lost _)
                         as e) ->
                      raise e
                    | exception e ->
                      Log.warn (fun m ->
                          m "shard %d: %s/%s campaign failed: %s" shard
                            entry.Shard.name profile.Baselines.Fuzzers.name
                            (Printexc.to_string e));
                      Summary.fold_failure acc
                        ~name:
                          (entry.Shard.name ^ "/"
                         ^ profile.Baselines.Fuzzers.name)
                        ~reason:(Printexc.to_string e))
                  acc tools
              in
              (* campaign checkpoints are only needed while the contract
                 is in flight; drop them once it is folded *)
              List.iter
                (fun (p : Baselines.Fuzzers.profile) ->
                  Util.Fileio.remove_tree
                    (Filename.concat shard_dir
                       (campaign_namespace ~index ~tool:p.name)))
                tools;
              acc
          in
          let acc = Summary.contract_done acc in
          Util.Fileio.write_atomic
            (Filename.concat shard_dir progress_file)
            (J.to_string (progress_json ~shard ~done_:(index + 1) ~summary:acc)
            ^ "\n");
          beat ();
          acc
        end)
  in
  Util.Fileio.write_atomic
    (Filename.concat shard_dir summary_file)
    (Summary.to_string summary ^ "\n");
  beat ();
  Ok summary

let load_summary ~state ~shard ~buckets =
  let path =
    Filename.concat (Filename.concat state (shard_dir_name shard)) summary_file
  in
  let ( let* ) = Result.bind in
  let* content =
    try Ok (Util.Fileio.read_file path)
    with Sys_error e -> Error (Printf.sprintf "%s: %s" path e)
  in
  let* summary =
    Result.map_error (Printf.sprintf "%s: %s" path)
      (Summary.of_string (String.trim content))
  in
  if summary.Summary.s_buckets <> buckets then
    Error
      (Printf.sprintf "%s: summary buckets %d, config says %d" path
         summary.Summary.s_buckets buckets)
  else Ok summary
