(** Crash-safe file writes and process-scoped scratch directories.

    Everything the fuzzer persists across runs — corpus blocks, repro
    artifacts, campaign checkpoints, fleet ledgers — goes through
    {!write_atomic} / {!with_atomic_out} so a SIGKILL mid-write can
    never leave a torn file under the final name: readers see either
    the old content or the new, never a prefix.

    Scratch space goes through {!temp_dir} / {!with_temp_dir}: every
    directory created here is removed by one [at_exit] hook, so
    abnormal-but-orderly exits ([exit 1], uncaught exceptions reaching
    the CLI handler) cannot strand [*-tmp-*] litter; only SIGKILL
    can, and the next run is free to sweep it. *)

val with_atomic_out : string -> (out_channel -> 'a) -> 'a
(** [with_atomic_out path f] opens a fresh temp file in
    [Filename.dirname path], runs [f] on its channel, flushes, and
    [Sys.rename]s it over [path] (atomic within one filesystem). On any
    error the temp file is removed and the exception re-raised; [path]
    is untouched. This is the streaming spelling of {!write_atomic} —
    corpus shard files are written through it line by line without
    building the whole content in memory. *)

val write_atomic : string -> string -> unit
(** [write_atomic path content] — {!with_atomic_out} writing one
    string. *)

val mkdirs : string -> unit
(** [mkdirs dir] creates [dir] and any missing parents (mode [0o755]);
    an existing directory, or one a concurrent process creates first,
    is not an error. *)

val read_file : string -> string
(** [read_file path] is the whole (binary) content of [path]. *)

val remove_tree : string -> unit
(** Recursive best-effort delete; missing paths and permission errors
    are ignored (cleanup must never mask the original failure). *)

val temp_dir : ?in_dir:string -> prefix:string -> unit -> string
(** Create a fresh private directory
    [<in_dir>/<prefix>-<pid>-<n>] (default [in_dir]: the system temp
    directory) and register it for removal at process exit. *)

val with_temp_dir : ?in_dir:string -> prefix:string -> (string -> 'a) -> 'a
(** Scoped {!temp_dir}: the directory is removed (and deregistered)
    when [f] returns or raises. *)
