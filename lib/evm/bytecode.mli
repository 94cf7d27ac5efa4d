(** Contract bytecode as an instruction array.

    Program counters are instruction indices (not byte offsets): [JUMP] and
    [JUMPI] target the index of a [JUMPDEST] instruction. [byte_size]
    reports the size the program would occupy in the canonical EVM byte
    encoding — the paper's D1 small/large split ([<= 3632] vs [> 3632]
    encoded instructions) is measured against this. *)

type t = Opcode.t array

val byte_size : t -> int
(** Size of the canonical byte encoding ([PUSH] widths are minimal). *)

val jumpdests : t -> (int, unit) Hashtbl.t
(** Indices of valid [JUMPDEST] instructions. *)

val push_constants : t -> Word.U256.t list
(** Distinct [PUSH] operand values that are not jump targets — the
    contract's "magic numbers", used to seed the fuzzer's mutation
    dictionary (the standard Echidna/ConFuzzius trick for strict
    equality conditions). Sorted ascending. *)

(** {1 Pre-decoded artifacts}

    Everything the interpreter's hot loop needs that is a pure function
    of the bytecode, computed once per program instead of once per
    frame: the jumpdest table as a bitmap, the canonical byte
    size, the push-constant dictionary, and the selector-dispatcher
    chains. *)

type chain = private {
  ch_start : int;  (** pc of the first group's [DUP 1] *)
  ch_consts : Word.U256.t array;  (** group [k]'s compared constant *)
  ch_dests : int array;
      (** group [k]'s jump target, [-1] when the pushed word is not an
          [int] (the interpreter's reading of a JUMPI target) *)
}
(** A maximal run of at least two consecutive
    [DUP 1; PUSH c; EQ; PUSH d; JUMPI] groups, group [k] starting at
    [ch_start + 5 * k]. Groups contain no [JUMPDEST], so a run is only
    entered at its first instruction. *)

type artifact = private {
  a_code : t;
  a_jumpdest : Bytes.t;
      (** one bit per instruction, [pc land 7] of byte [pc lsr 3], set
          for a [JUMPDEST]; [(n + 7) / 8] bytes for [n] instructions,
          bits past the last instruction clear. Read it through
          {!is_jumpdest}. *)
  a_byte_size : int;
  a_push_constants : Word.U256.t array;
  a_chains : chain array;  (** sorted by [ch_start] *)
}

val decode : t -> artifact
(** Pure: computes the artifact from scratch. [is_jumpdest] agrees
    with [jumpdests] membership, [a_byte_size] with [byte_size], and
    [a_push_constants] with [push_constants] (same order). [a_chains]
    lists every maximal group run of length [>= 2], found in one pass. *)

val artifact : t -> artifact
(** Memoized [decode], keyed by physical equality on the code array and
    cached per domain (lock-free under the parallel campaign runner).
    Equal results to [decode] whenever the code array is not mutated —
    bytecode arrays are never mutated after construction. *)

val is_jumpdest : artifact -> int -> bool
(** [is_jumpdest art pc]: O(1), false for out-of-range [pc]. *)

val find_chain : artifact -> int -> int
(** [find_chain art pc] is the index in [a_chains] of the chain starting
    at [pc], or [-1]. *)

val pp : Format.formatter -> t -> unit
(** Disassembly listing, one instruction per line with its index. *)

val to_listing : t -> string
