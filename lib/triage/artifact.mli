(** Deterministic repro artifacts — a finding frozen as versioned JSON.

    An artifact is self-contained: it embeds the contract source (and
    its Keccak-256, re-verified on load), the full transaction sequence
    (sender / value / calldata as hex streams), the execution parameters
    and the expected (oracle, pc). [mufuzz repro] replays it with no
    other inputs; the checked-in regression corpus is a directory of
    these files. *)

val format_tag : string
(** ["mufuzz-repro"] — the ["format"] field every artifact carries. *)

val current_version : int

type t = {
  contract : Minisol.Contract.t;  (** compiled from the embedded source *)
  finding : Oracles.Oracle.finding;  (** the expected alarm *)
  path_hash : string;  (** triage call-path hash of the witness *)
  gas_per_tx : int;
  n_senders : int;
  attacker : bool;
  seed : Mufuzz.Seed.t;  (** the witnessing transaction sequence *)
}

val make :
  contract:Minisol.Contract.t ->
  gas_per_tx:int ->
  n_senders:int ->
  attacker:bool ->
  finding:Oracles.Oracle.finding ->
  seed:Mufuzz.Seed.t ->
  t
(** Computes [path_hash] from the seed's call path at the finding's
    transaction index. *)

val key : t -> Oracles.Oracle.key
(** The triage dedup key the artifact pins. *)

val source_hash : Minisol.Contract.t -> string

val file_name : t -> string
(** Canonical corpus file name:
    ["<Contract>_<CLS>_<pc>_<pathhash>.json"]. *)

val to_json : t -> Telemetry.Json.t
(** Fixed field order — equal artifacts render byte-identically. *)

val to_string : t -> string

val of_json : Telemetry.Json.t -> (t, string) result
(** Validates the format tag, the exact version, source hash, contract
    name, oracle class and every transaction (unknown function names
    and bad hex are errors, as in {!Mufuzz.Seed.of_json}). *)

val of_string : string -> (t, string) result

val save : string -> t -> unit
(** Writes [to_string] plus a trailing newline. *)

val load : string -> (t, string) result
