(** The four §IV-B mutation operator classes over byte streams.

    A mutation is a pair [m = (x, n)] with [x ∈ {O, I, R, D}]:
    [O] overwrites [n] bytes at position [i] (random bytes or bit flips),
    [I] inserts [n] bytes at [i], [R] replaces [n] bytes at [i] with
    {e interesting} values (the AFL dictionary of boundary constants),
    [D] deletes [n] bytes at [i]. *)

type kind = O | I | R | D

val all_kinds : kind list
val kind_index : kind -> int
(** Stable 0..3 index, used by the mask bitsets. *)

type m = { kind : kind; n : int }

val random : Util.Rng.t -> max_n:int -> m
(** A random operator with [1 <= n <= max_n]. *)

val apply : ?dict:Word.U256.t array -> Util.Rng.t -> m -> pos:int -> string -> string
(** [apply rng m ~pos stream] returns the mutated stream. Positions are
    clamped into the stream; [D] on an empty stream and other degenerate
    cases return the stream unchanged. The result of [I]/[D] changes the
    stream length — decoding re-pads, as the paper's ABI layer does.
    [dict] supplies contract-specific magic-number words that the
    word-level [R] mode draws from. *)

val interesting_bytes : string
(** The single-byte dictionary used by [R]. *)
