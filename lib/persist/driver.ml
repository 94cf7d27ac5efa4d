(* Cadence state machine connecting a campaign's safe points to the
   checkpoint store. Plugged in as [Campaign.run ~on_safe_point]; the
   snapshot thunk is only forced when a write is actually due, so an
   idle cadence costs nothing per safe point. *)

let log_src = Logs.Src.create "mufuzz.persist" ~doc:"campaign persistence"

module Log = (val Logs.src_log log_src : Logs.LOG)

type t = {
  store : Store.t;
  every_execs : int;
  every_seconds : float;
  tool : string;
  config : Mufuzz.Config.t;
  contract : Minisol.Contract.t;
  m_written : Telemetry.Metrics.counter option;
  mutable last_execs : int;
  mutable last_time : float;
}

let m_written_counter metrics =
  Telemetry.Metrics.counter metrics "mufuzz_checkpoint_written_total"
    ~help:"campaign checkpoints written"

let create ?metrics ?(start_execs = 0) ~tool ~contract store
    (config : Mufuzz.Config.t) =
  {
    store;
    every_execs = config.checkpoint_every_execs;
    every_seconds = config.checkpoint_every_seconds;
    tool;
    config;
    contract;
    m_written = Option.map m_written_counter metrics;
    last_execs = start_execs;
    last_time = Unix.gettimeofday ();
  }

let of_config ?metrics ?start_execs ~tool ~contract (config : Mufuzz.Config.t) =
  Option.map
    (fun dir ->
      create ?metrics ?start_execs ~tool ~contract
        (Store.create ~dir ~keep:config.checkpoint_keep)
        config)
    config.checkpoint_dir

let save t ~bus ~execs snapshot =
  match
    Store.save t.store
      {
        Checkpoint.tool = t.tool;
        config = t.config;
        contract = t.contract;
        snapshot;
      }
  with
  | path ->
    t.last_execs <- execs;
    t.last_time <- Unix.gettimeofday ();
    Option.iter Telemetry.Metrics.incr t.m_written;
    Telemetry.Bus.emit bus (Telemetry.Event.Checkpoint_written { execs; path });
    Some path
  | exception Sys_error msg ->
    (* a full disk must not kill the campaign it was protecting *)
    Log.warn (fun m ->
        m "%s: checkpoint write failed: %s" (Store.dir t.store) msg);
    None

let hook t ~final ~bus ~execs snapshot =
  let due =
    (* never rewrite the state we just loaded or already persisted *)
    execs > t.last_execs
    && (final
       || (t.every_execs > 0 && execs - t.last_execs >= t.every_execs)
       || t.every_seconds > 0.0
          && Unix.gettimeofday () -. t.last_time >= t.every_seconds)
  in
  if due then ignore (save t ~bus ~execs (snapshot ()))
