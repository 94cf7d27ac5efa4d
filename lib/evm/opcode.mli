(** EVM instruction set (the subset generated by the Minisol compiler and
    executed by {!Interp}, which covers every opcode the paper's bug
    oracles and instrumentation observe). *)

type t =
  (* 0x00s: stop and arithmetic *)
  | STOP
  | ADD
  | MUL
  | SUB
  | DIV
  | SDIV
  | MOD
  | SMOD
  | ADDMOD
  | MULMOD
  | EXP
  | SIGNEXTEND
  (* 0x10s: comparison and bitwise *)
  | LT
  | GT
  | SLT
  | SGT
  | EQ
  | ISZERO
  | AND
  | OR
  | XOR
  | NOT
  | BYTE
  | SHL
  | SHR
  | SAR
  (* 0x20 *)
  | SHA3
  (* 0x30s: environment *)
  | ADDRESS
  | BALANCE
  | ORIGIN
  | CALLER
  | CALLVALUE
  | CALLDATALOAD
  | CALLDATASIZE
  | CALLDATACOPY
  | CODESIZE
  (* 0x40s: block information *)
  | BLOCKHASH
  | COINBASE
  | TIMESTAMP
  | NUMBER
  | DIFFICULTY
  | GASLIMIT
  | SELFBALANCE
  (* 0x50s: stack, memory, storage, flow *)
  | POP
  | MLOAD
  | MSTORE
  | MSTORE8
  | SLOAD
  | SSTORE
  | JUMP
  | JUMPI
  | PC
  | MSIZE
  | GAS
  | JUMPDEST
  (* 0x60-0x7f *)
  | PUSH of Word.U256.t
      (** Width is recomputed minimally on assembly; the operand value is
          what matters for execution. *)
  (* 0x80-0x9f *)
  | DUP of int  (** [DUP n], 1-based as in the EVM. *)
  | SWAP of int  (** [SWAP n], 1-based. *)
  (* 0xa0s *)
  | LOG of int  (** [LOG n] with [n] topics. *)
  (* 0xf0s: system *)
  | CALL
  | DELEGATECALL
  | STATICCALL
  | RETURN
  | REVERT
  | INVALID
  | SELFDESTRUCT

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val base_gas : t -> int
(** Simplified static gas cost used by {!Interp} to bound execution. *)
