(** A minimal JSON tree, printer and parser.

    The repository deliberately carries no third-party JSON dependency;
    this module is the single codec behind the JSONL event trace, the
    machine-readable campaign report ([Report.to_json]) and the bench
    harness that consumes both. It covers exactly RFC 8259 minus
    extravagances nobody here emits: numbers parse to [Int] when they
    are integral decimals and to [Float] otherwise. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering (the JSONL framing requirement).
    Strings are escaped per RFC 8259; non-finite floats render as
    [null] (JSON has no representation for them). *)

val of_string : string -> (t, string) result
(** Parse one JSON document; trailing garbage is an error. The error
    string names the offending byte offset. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] on missing field or non-object. *)

val to_int : t -> int option
(** [Int n] and integral [Float]s within the range of [int]; [None]
    for anything else, including integers too large for [int]. *)

val to_float : t -> float option
val to_bool : t -> bool option
val to_list : t -> t list option
val string_value : t -> string option

(** Result-returning decoders: the one toolkit every document reader
    (wire requests, checkpoints, fleet shards, ledgers and summaries,
    repro artifacts, the event trace) decodes through.

    A decoder never raises on malformed input. Its [Error] names the
    JSON path of the offending value, e.g.
    [snapshot.entries[3].masks[0].tx: expected int]. The path is
    assembled only when a decode fails, so a successful decode pays
    nothing for it. A decoder that adds its own check after decoding
    (a range, a cross-field invariant) returns a bare message; the
    enclosing {!field} or {!list} qualifies it with the path. *)
module Decode : sig
  type json := t

  type 'a t = json -> ('a, string) result

  val int : int t
  (** As {!to_int}: integral and within the range of [int]. *)

  val float : float t
  (** Any finite JSON number; a literal that overflows to infinity is
      rejected. *)

  val bool : bool t
  val string : string t

  val int64_decimal : int64 t
  (** A JSON string holding a decimal [int64]: the RNG-seed encoding,
      since an [int64] exceeds the 63-bit {!Int} range. *)

  val list : 'a t -> 'a list t
  (** Every element decodes, or the first failure, at index [[i]]. *)

  val nullable : 'a t -> 'a option t
  (** [null] is [None]; anything else must decode. *)

  val field : string -> 'a t -> 'a t
  (** [field name d] decodes member [name] of an object with [d]; a
      missing member is an error. *)

  val field_opt : string -> 'a t -> 'a option t
  (** As {!field}, but an absent or [null] member is [None]. *)

  val header : format:string -> version:int -> unit t
  (** The versioned-document check: the ["format"] member equals
      [format] and the ["version"] member equals [version] exactly. *)

  val ( let* ) :
    ('a, string) result -> ('a -> ('b, string) result) -> ('b, string) result
end
