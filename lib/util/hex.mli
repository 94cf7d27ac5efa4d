(** Hexadecimal encoding and decoding of byte strings. *)

val encode : string -> string
(** [encode s] is the lowercase hex rendering of [s], two characters per
    byte, no prefix. *)

val decode : string -> string
(** [decode h] parses a hex string (optionally prefixed with ["0x"]).
    @raise Invalid_argument on odd length or non-hex characters. *)

val of_byte : int -> string
(** Two-character hex of a byte value in [\[0, 255\]]. *)
