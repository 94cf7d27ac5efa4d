(** Canonical EVM byte encoding of programs.

    [encode] serialises a program using the real EVM opcode bytes
    (PUSH1..PUSH32 with minimal operand width); [decode] disassembles a
    byte string back into an instruction array. Jump operands are
    instruction indices in this dialect (see {!Bytecode}); the byte form
    exists for size accounting, on-disk corpora and interoperability
    tests, and round-trips exactly:
    [decode (encode code) = code] for every program whose PUSH operands
    use minimal width. *)

val opcode_byte : Opcode.t -> int
(** The instruction's EVM opcode byte (PUSH returns the byte for its
    minimal width variant). *)

val encode : Bytecode.t -> string

exception Decode_error of string * int
(** message, byte offset *)

val decode : string -> Bytecode.t
(** @raise Decode_error on unknown opcode bytes or truncated PUSH data. *)

val encode_hex : Bytecode.t -> string
