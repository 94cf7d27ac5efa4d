type t =
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
  | SHA3
  | ADDRESS
  | BALANCE
  | ORIGIN
  | CALLER
  | CALLVALUE
  | CALLDATALOAD
  | CALLDATASIZE
  | CALLDATACOPY
  | CODESIZE
  | BLOCKHASH
  | COINBASE
  | TIMESTAMP
  | NUMBER
  | DIFFICULTY
  | GASLIMIT
  | SELFBALANCE
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
  | PUSH of Word.U256.t
  | DUP of int
  | SWAP of int
  | LOG of int
  | CALL
  | DELEGATECALL
  | STATICCALL
  | RETURN
  | REVERT
  | INVALID
  | SELFDESTRUCT

let to_string = function
  | STOP -> "STOP"
  | ADD -> "ADD"
  | MUL -> "MUL"
  | SUB -> "SUB"
  | DIV -> "DIV"
  | SDIV -> "SDIV"
  | MOD -> "MOD"
  | SMOD -> "SMOD"
  | ADDMOD -> "ADDMOD"
  | MULMOD -> "MULMOD"
  | EXP -> "EXP"
  | SIGNEXTEND -> "SIGNEXTEND"
  | LT -> "LT"
  | GT -> "GT"
  | SLT -> "SLT"
  | SGT -> "SGT"
  | EQ -> "EQ"
  | ISZERO -> "ISZERO"
  | AND -> "AND"
  | OR -> "OR"
  | XOR -> "XOR"
  | NOT -> "NOT"
  | BYTE -> "BYTE"
  | SHL -> "SHL"
  | SHR -> "SHR"
  | SAR -> "SAR"
  | SHA3 -> "SHA3"
  | ADDRESS -> "ADDRESS"
  | BALANCE -> "BALANCE"
  | ORIGIN -> "ORIGIN"
  | CALLER -> "CALLER"
  | CALLVALUE -> "CALLVALUE"
  | CALLDATALOAD -> "CALLDATALOAD"
  | CALLDATASIZE -> "CALLDATASIZE"
  | CALLDATACOPY -> "CALLDATACOPY"
  | CODESIZE -> "CODESIZE"
  | BLOCKHASH -> "BLOCKHASH"
  | COINBASE -> "COINBASE"
  | TIMESTAMP -> "TIMESTAMP"
  | NUMBER -> "NUMBER"
  | DIFFICULTY -> "DIFFICULTY"
  | GASLIMIT -> "GASLIMIT"
  | SELFBALANCE -> "SELFBALANCE"
  | POP -> "POP"
  | MLOAD -> "MLOAD"
  | MSTORE -> "MSTORE"
  | MSTORE8 -> "MSTORE8"
  | SLOAD -> "SLOAD"
  | SSTORE -> "SSTORE"
  | JUMP -> "JUMP"
  | JUMPI -> "JUMPI"
  | PC -> "PC"
  | MSIZE -> "MSIZE"
  | GAS -> "GAS"
  | JUMPDEST -> "JUMPDEST"
  | PUSH v -> "PUSH " ^ Word.U256.to_hex_string v
  | DUP n -> Printf.sprintf "DUP%d" n
  | SWAP n -> Printf.sprintf "SWAP%d" n
  | LOG n -> Printf.sprintf "LOG%d" n
  | CALL -> "CALL"
  | DELEGATECALL -> "DELEGATECALL"
  | STATICCALL -> "STATICCALL"
  | RETURN -> "RETURN"
  | REVERT -> "REVERT"
  | INVALID -> "INVALID"
  | SELFDESTRUCT -> "SELFDESTRUCT"

let pp fmt op = Format.pp_print_string fmt (to_string op)

(* Charged on every interpreted step. Too large for ocamlopt to inline
   unasked, it would otherwise stay a call per step. *)
let[@inline] base_gas = function
  | STOP | RETURN | REVERT | INVALID -> 0
  | ADD | SUB | LT | GT | SLT | SGT | EQ | ISZERO | AND | OR | XOR | NOT
  | BYTE | SHL | SHR | SAR | CALLVALUE | CALLDATALOAD | CALLDATASIZE
  | CODESIZE | POP | PC | MSIZE | GAS | PUSH _ | DUP _ | SWAP _ ->
    3
  | MUL | DIV | SDIV | MOD | SMOD | SIGNEXTEND | CALLDATACOPY -> 5
  | ADDMOD | MULMOD | JUMP -> 8
  | EXP -> 10
  | JUMPI -> 10
  | SHA3 -> 30
  | ADDRESS | ORIGIN | CALLER | COINBASE | TIMESTAMP | NUMBER | DIFFICULTY
  | GASLIMIT | JUMPDEST ->
    2
  | BALANCE | SELFBALANCE -> 20
  | BLOCKHASH -> 20
  | MLOAD | MSTORE | MSTORE8 -> 3
  | SLOAD -> 200
  | SSTORE -> 5000
  | LOG n -> 375 * (n + 1)
  | CALL | DELEGATECALL | STATICCALL -> 700
  | SELFDESTRUCT -> 5000
