(** 256-bit unsigned machine words with EVM semantics.

    All arithmetic wraps modulo [2^256], matching the Ethereum Virtual
    Machine. Values are immutable. Signed operations ([sdiv], [srem],
    [slt], [sgt], [shift_right_arith], [sign_extend]) interpret the word
    as two's complement, again as the EVM does. *)

type t

val zero : t
val one : t
val max_value : t
(** [2^256 - 1]. *)

(** {1 Conversions} *)

val of_int : int -> t
(** @raise Invalid_argument on negative input. *)

val of_signed_int : int -> t
(** Negative inputs map to their two's-complement representation. *)

val of_int64 : int64 -> t
(** The int64 is treated as unsigned. *)

val to_int_opt : t -> int option
(** [Some n] iff the value fits in a non-negative OCaml [int]. *)

val to_int_exn : t -> int
(** @raise Invalid_argument if the value does not fit. *)

val to_float : t -> float
(** Nearest float; large values lose precision but preserve ordering
    approximately. Used for branch-distance feedback. *)

val to_float_sub : t -> t -> float
(** [to_float_sub a b] is [to_float (sub a b)], bit for bit, without
    allocating the difference. *)

val to_float_abs_difference : t -> t -> float
(** [to_float_abs_difference a b] is [to_float (abs_difference a b)],
    bit for bit, without allocating the difference. *)

val of_decimal_string : string -> t
(** Parses a decimal literal, wrapping modulo [2^256].
    @raise Invalid_argument on empty or non-numeric input. *)

val of_hex_string : string -> t
(** Parses a hex literal with optional ["0x"] prefix, at most 64 digits. *)

val to_decimal_string : t -> string
val to_hex_string : t -> string
(** Minimal-length lowercase hex with ["0x"] prefix. *)

val of_bytes_be : string -> t
(** Big-endian bytes, at most 32; shorter strings are left-padded with
    zeros (i.e. interpreted as the low-order bytes). *)

val to_bytes_be : t -> string
(** Exactly 32 big-endian bytes. *)

val blit_be : t -> Bytes.t -> int -> unit
(** [blit_be x buf off] writes the 32 big-endian bytes of [x] into [buf]
    at [off] without allocating. [buf] must have at least [off + 32]
    bytes. *)

val read_be : Bytes.t -> int -> t
(** [read_be buf off] reads 32 big-endian bytes from [buf] at [off]
    without intermediate allocation. Inverse of {!blit_be}. *)

val read_be_string : string -> int -> t
(** As {!read_be} but from a string. The caller must guarantee
    [off + 32 <= String.length s]. *)

(** {1 Arithmetic (wrapping mod 2^256)} *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val mul_overflows : t -> t -> bool
(** [mul_overflows a b] is true iff [a * b >= 2^256], i.e. {!mul}
    wraps. Allocates nothing. *)

val div : t -> t -> t
(** Unsigned division; [div x zero = zero] (EVM convention). *)

val rem : t -> t -> t
(** Unsigned remainder; [rem x zero = zero]. *)

val divmod : t -> t -> t * t

val sdiv : t -> t -> t
(** Signed division truncating toward zero, EVM [SDIV]. *)

val srem : t -> t -> t
(** Signed remainder with sign of the dividend, EVM [SMOD]. *)

val add_mod : t -> t -> t -> t
(** [add_mod a b m] is [(a + b) mod m] over unbounded integers,
    EVM [ADDMOD]; zero when [m] is zero. *)

val mul_mod : t -> t -> t -> t
(** [mul_mod a b m] is [(a * b) mod m], EVM [MULMOD]; zero when [m] is
    zero. *)

val exp : t -> t -> t
(** [exp base e] by square-and-multiply, wrapping. *)

val neg : t -> t
(** Two's-complement negation. *)

(** {1 Comparison} *)

val equal : t -> t -> bool
val compare : t -> t -> int
val is_zero : t -> bool
val lt : t -> t -> bool
val gt : t -> t -> bool
val le : t -> t -> bool
val ge : t -> t -> bool
val slt : t -> t -> bool
val sgt : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t

(** {1 Bitwise} *)

val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t

val shift_left : t -> int -> t
(** Zero for shifts [>= 256]. *)

val shift_right : t -> int -> t
(** Logical; zero for shifts [>= 256]. *)

val shift_right_arith : t -> int -> t
(** Arithmetic (sign-propagating), EVM [SAR]. *)

val byte : int -> t -> t
(** [byte i x] is the [i]-th byte of [x] counting from the big end
    (EVM [BYTE]); zero when [i >= 32]. *)

val sign_extend : int -> t -> t
(** [sign_extend k x] sign-extends from byte position [k] (little-endian
    byte index as in EVM [SIGNEXTEND]); identity when [k >= 31]. *)

val is_neg : t -> bool
(** True iff the top bit is set (negative as two's complement). *)

val bit_length : t -> int
(** Position of the highest set bit plus one; 0 for zero. *)

(** {1 Misc} *)

val hash : t -> int
val abs_difference : t -> t -> t
(** [abs_difference a b] is [max a b - min a b] (unsigned). *)

val pp : Format.formatter -> t -> unit
(** Prints the decimal rendering. *)
