(** The checkpoint cadence driver.

    Bridges a campaign's safe points (see
    [Mufuzz.Campaign.run ~on_safe_point]) to the rotated {!Store}: at
    each safe point it decides whether a write is due — final safe
    point, ≥ [checkpoint_every_execs] executions, or ≥
    [checkpoint_every_seconds] seconds since the last write — and only
    then forces the snapshot thunk and persists. Successful writes emit
    [Checkpoint_written] on the campaign bus and bump
    [mufuzz_checkpoint_written_total]; write failures are logged and
    swallowed, never killing the campaign they were protecting. *)

type t

val create :
  ?metrics:Telemetry.Metrics.t ->
  ?start_execs:int ->
  tool:string ->
  contract:Minisol.Contract.t ->
  Store.t ->
  Mufuzz.Config.t ->
  t
(** Writes into the given store; cadence comes from the config's
    [checkpoint_every_*] fields. [start_execs] (default 0) is the
    execution count already persisted — pass the snapshot's count when
    resuming so the first safe point does not rewrite the checkpoint
    just loaded. *)

val of_config :
  ?metrics:Telemetry.Metrics.t ->
  ?start_execs:int ->
  tool:string ->
  contract:Minisol.Contract.t ->
  Mufuzz.Config.t ->
  t option
(** {!create} over a store at [config.checkpoint_dir] keeping
    [config.checkpoint_keep] files; [None] when [checkpoint_dir] is
    unset (persistence off). *)

val save :
  t ->
  bus:Telemetry.Bus.t ->
  execs:int ->
  Mufuzz.Campaign.snapshot ->
  string option
(** Write a checkpoint now, whatever the cadence, and return its path;
    [None] when the write failed (logged). The serve engine's slice
    checkpoints go through here. *)

val hook :
  t ->
  final:bool ->
  bus:Telemetry.Bus.t ->
  execs:int ->
  (unit -> Mufuzz.Campaign.snapshot) ->
  unit
(** The cadence: {!save} when due, forcing the snapshot thunk only
    then. [hook t] partially applied is exactly the shape
    [Campaign.run ~on_safe_point] expects. *)
