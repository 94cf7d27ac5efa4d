(** Replay verification for repro artifacts.

    Deterministic: the EVM substrate has no wall-clock or randomness,
    so replaying the same artifact twice yields identical outcomes and
    identical {!describe} strings — the property the self-replaying
    regression corpus is built on. *)

type outcome = {
  ok : bool;  (** the artifact's (oracle, pc) fired *)
  raised : Oracles.Oracle.finding list;
      (** every alarm the replay raised, in trace order *)
}

val target_of : Artifact.t -> Shrink.target

val replay : Artifact.t -> outcome

val describe : Artifact.t -> outcome -> string
(** One deterministic human-readable line per replay (no timings, no
    paths) — what [mufuzz repro] prints. *)

val shrink : ?max_execs:int -> Artifact.t -> (Artifact.t * int, string) result
(** Shrink the artifact's sequence under its own execution parameters
    and rebuild it around the re-raised finding (tx_index, detail and
    path hash are recomputed). Returns the new artifact and the
    executions spent, or an error if the artifact does not reproduce.
    Shrinking an already-shrunk artifact returns it unchanged. *)

type written = {
  path : string;
  txs : int;  (** transactions left after shrinking *)
  execs : int;  (** executions the shrink spent *)
}

val save_witnesses :
  dir:string ->
  config:Mufuzz.Config.t ->
  contract:Minisol.Contract.t ->
  (Oracles.Oracle.finding * Mufuzz.Seed.t) list ->
  (Oracles.Oracle.finding * (written, string) result) list
(** Shrink each finding's witness under the campaign's execution
    parameters and save it into [dir] (created if missing) as a repro
    artifact named {!Artifact.file_name}. One outcome per witness, in
    order: the written artifact, or why none was written (the shrunk
    sequence did not re-raise the finding, or shrinking or writing
    raised). What [mufuzz fuzz --artifacts] and a serve campaign's
    completion both run. *)
