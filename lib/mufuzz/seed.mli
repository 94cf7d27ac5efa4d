(** Seeds: a transaction sequence plus the mutable byte stream of each
    transaction's inputs.

    Per §IV-B the fuzzer "internally represents each test input t as a
    byte stream". For a transaction calling [f(inputs...)] the stream is
    the concatenation of the raw ABI argument words followed by a 32-byte
    [msg.value] word, so the mask and the mutation operators uniformly
    cover both arguments and attached ether. *)

type tx = {
  fn : Abi.func;
  stream : string;  (** argument bytes ++ 32-byte value word *)
  sender : int;  (** index into the campaign's sender pool *)
}

type t = { txs : tx list }

val stream_length : Abi.func -> int
(** Canonical stream length for a function: [32 * arity + 32]. *)

val tx_value : tx -> Word.U256.t
(** The msg.value encoded in the stream's trailing word (zero-extended
    if the stream was shortened by deletions). *)

val tx_calldata : tx -> string
(** Full calldata for the EVM: selector + canonicalised arguments. *)

val make_tx : Abi.func -> sender:int -> args:string -> value:Word.U256.t -> tx

val random_tx :
  ?dict:Word.U256.t array -> Util.Rng.t -> n_senders:int -> Abi.func -> tx
(** Interesting-value-biased generation: argument words and values are
    drawn from a dictionary of boundary constants (0, 1, small ints,
    round ether amounts, 2^k ± 1, addresses of pool accounts) mixed with
    uniform bytes — the AFL-style initial corpus. *)

val of_sequence :
  ?dict:Word.U256.t array ->
  Util.Rng.t -> n_senders:int -> Abi.func list -> string list -> t
(** Build a seed for a named function sequence (names must resolve in
    the ABI list). *)

val with_tx : t -> int -> tx -> t
(** Replace the [i]-th transaction. *)

val call_path : t -> upto:int -> string list
(** Function names of transactions [0 .. upto] inclusive — the call
    path under which the triage layer hashes a finding raised at
    transaction [upto]. Empty for [upto < 0] (whole-contract
    findings). *)

val pp : Format.formatter -> t -> unit
val show : t -> string

val to_json : t -> Telemetry.Json.t
(** Checkpoint codec: a list of [{fn; sender; stream}] objects with the
    byte stream hex-encoded. Functions serialise by name and resolve
    against the contract ABI on load. *)

val resolve_tx :
  abi:Abi.func list -> name:string -> sender:int -> hex:string ->
  (tx, string) result
(** Resolve one transaction from its serialised parts: the function by
    name in [abi], a non-negative sender, the hex-decoded stream. The
    shared decoder behind {!of_json} and the corpus line format. *)

val of_json : abi:Abi.func list -> Telemetry.Json.t -> (t, string) result
(** Inverse of {!to_json}. [of_json ~abi (to_json t) = Ok t] whenever
    every transaction's function is present in [abi]. *)
