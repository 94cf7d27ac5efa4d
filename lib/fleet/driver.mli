(** The fleet coordinator.

    Leases shards from the {!Ledger} to forked [fleet worker]
    processes, supervises them by heartbeat, reassigns the leases of
    dead or hung workers, and merges the published shard summaries into
    the fleet aggregate. Both dispatch modes share this one supervision
    loop: {!Processes} runs each worker's campaigns in the worker, and
    {!Daemons} gives every daemon one worker slot whose worker submits
    its shard's campaigns to that daemon (see {!Worker.run_shard}).

    Everything the coordinator holds is O(shards): the ledger, the
    slot table and, at the end, one running {!Summary.t} merge.
    Contract-level state lives only inside workers, one contract at a
    time.

    Crash contract: the coordinator can be SIGKILLed at any moment and
    re-run with the same arguments; completed shards are skipped,
    leased shards are reclaimed and replayed from their workers'
    progress files, and the final aggregate is bit-identical to an
    uninterrupted run's. *)

val config_file : string
(** ["fleet.json"], the pinned run parameters in the state dir. *)

val summary_out : string
(** ["fleet-summary.json"], the merged aggregate. *)

type dispatch =
  | Processes of int  (** N worker slots running campaigns in-process *)
  | Daemons of Serve.Client.addr list
      (** one worker slot per running serve daemon. Before spawning a
          slot's worker the driver checks that its daemon accepts a
          connection; the worker receives the address as [--daemon
          PATH] or [--daemon-port N], appended to its argv. *)

type options = {
  state : string;
  corpus : string;
  config : Config.t;
  dispatch : dispatch;
  heartbeat_timeout : float;
      (** seconds of heartbeat silence before a worker is declared hung,
          SIGKILLed and its lease reassigned; [<= 0] disables *)
  poll_interval : float;
  status_interval : float;  (** stderr status-line cadence; [0] = off *)
  worker_argv : (shard:int -> string array) option;
      (** replaces the default [Sys.executable_name fleet worker --state
          S --corpus C --shard K]; daemon dispatch still appends the
          slot's daemon flags *)
}

val default_options :
  state:string ->
  corpus:string ->
  config:Config.t ->
  dispatch:dispatch ->
  options
(** 60 s heartbeat timeout, 50 ms poll, no status line, default argv. *)

val run :
  ?metrics:Telemetry.Metrics.t ->
  ?bus:Telemetry.Bus.t ->
  options ->
  (Summary.t, string) result
(** Drive the fleet to completion and return the merged summary (also
    written to [state/fleet-summary.json]). Safe to call on a state
    directory a previous run left behind — that is the resume path.
    A [lockf] lock on [state/fleet.lock] (auto-released on process
    death, even SIGKILL) rejects a second concurrent coordinator.

    [Error] leaves the state directory resumable: an unreadable state
    file, a worker that cannot be spawned and a daemon that does not
    accept a connection all stop the run, SIGKILL the running workers
    and return their leases to the pool on the next run.
    [metrics] gains the [mufuzz_fleet_*] series; [bus] receives
    [Fleet_shard_leased] / [Fleet_shard_done] /
    [Fleet_lease_reassigned] events. *)

val write_csvs : dir:string -> config:Config.t -> Summary.t -> unit
(** Emit [fig5_small.csv], [fig5_large.csv], [fig6.csv] and
    [findings.csv] under [dir] in the bench harness's formats. *)
