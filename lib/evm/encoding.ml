module Op = Opcode
module U = Word.U256

let push_width v = Stdlib.max 1 ((Word.U256.bit_length v + 7) / 8)

let opcode_byte (op : Op.t) =
  match op with
  | STOP -> 0x00
  | ADD -> 0x01
  | MUL -> 0x02
  | SUB -> 0x03
  | DIV -> 0x04
  | SDIV -> 0x05
  | MOD -> 0x06
  | SMOD -> 0x07
  | ADDMOD -> 0x08
  | MULMOD -> 0x09
  | EXP -> 0x0a
  | SIGNEXTEND -> 0x0b
  | LT -> 0x10
  | GT -> 0x11
  | SLT -> 0x12
  | SGT -> 0x13
  | EQ -> 0x14
  | ISZERO -> 0x15
  | AND -> 0x16
  | OR -> 0x17
  | XOR -> 0x18
  | NOT -> 0x19
  | BYTE -> 0x1a
  | SHL -> 0x1b
  | SHR -> 0x1c
  | SAR -> 0x1d
  | SHA3 -> 0x20
  | ADDRESS -> 0x30
  | BALANCE -> 0x31
  | ORIGIN -> 0x32
  | CALLER -> 0x33
  | CALLVALUE -> 0x34
  | CALLDATALOAD -> 0x35
  | CALLDATASIZE -> 0x36
  | CALLDATACOPY -> 0x37
  | CODESIZE -> 0x38
  | BLOCKHASH -> 0x40
  | COINBASE -> 0x41
  | TIMESTAMP -> 0x42
  | NUMBER -> 0x43
  | DIFFICULTY -> 0x44
  | GASLIMIT -> 0x45
  | SELFBALANCE -> 0x47
  | POP -> 0x50
  | MLOAD -> 0x51
  | MSTORE -> 0x52
  | MSTORE8 -> 0x53
  | SLOAD -> 0x54
  | SSTORE -> 0x55
  | JUMP -> 0x56
  | JUMPI -> 0x57
  | PC -> 0x58
  | MSIZE -> 0x59
  | GAS -> 0x5a
  | JUMPDEST -> 0x5b
  | PUSH v -> 0x60 + push_width v - 1
  | DUP n -> 0x80 + n - 1
  | SWAP n -> 0x90 + n - 1
  | LOG n -> 0xa0 + n
  | CALL -> 0xf1
  | DELEGATECALL -> 0xf4
  | STATICCALL -> 0xfa
  | RETURN -> 0xf3
  | REVERT -> 0xfd
  | INVALID -> 0xfe
  | SELFDESTRUCT -> 0xff

let encode (code : Bytecode.t) =
  let buf = Buffer.create (Array.length code * 2) in
  Array.iter
    (fun op ->
      Buffer.add_char buf (Char.chr (opcode_byte op));
      match op with
      | Op.PUSH v ->
        let w = push_width v in
        let bytes = U.to_bytes_be v in
        Buffer.add_string buf (String.sub bytes (32 - w) w)
      | _ -> ())
    code;
  Buffer.contents buf

exception Decode_error of string * int

let decode s =
  let out = ref [] in
  let i = ref 0 in
  let n = String.length s in
  while !i < n do
    let b = Char.code s.[!i] in
    let at = !i in
    incr i;
    let simple op = out := op :: !out in
    (match b with
    | 0x00 -> simple Op.STOP
    | 0x01 -> simple Op.ADD
    | 0x02 -> simple Op.MUL
    | 0x03 -> simple Op.SUB
    | 0x04 -> simple Op.DIV
    | 0x05 -> simple Op.SDIV
    | 0x06 -> simple Op.MOD
    | 0x07 -> simple Op.SMOD
    | 0x08 -> simple Op.ADDMOD
    | 0x09 -> simple Op.MULMOD
    | 0x0a -> simple Op.EXP
    | 0x0b -> simple Op.SIGNEXTEND
    | 0x10 -> simple Op.LT
    | 0x11 -> simple Op.GT
    | 0x12 -> simple Op.SLT
    | 0x13 -> simple Op.SGT
    | 0x14 -> simple Op.EQ
    | 0x15 -> simple Op.ISZERO
    | 0x16 -> simple Op.AND
    | 0x17 -> simple Op.OR
    | 0x18 -> simple Op.XOR
    | 0x19 -> simple Op.NOT
    | 0x1a -> simple Op.BYTE
    | 0x1b -> simple Op.SHL
    | 0x1c -> simple Op.SHR
    | 0x1d -> simple Op.SAR
    | 0x20 -> simple Op.SHA3
    | 0x30 -> simple Op.ADDRESS
    | 0x31 -> simple Op.BALANCE
    | 0x32 -> simple Op.ORIGIN
    | 0x33 -> simple Op.CALLER
    | 0x34 -> simple Op.CALLVALUE
    | 0x35 -> simple Op.CALLDATALOAD
    | 0x36 -> simple Op.CALLDATASIZE
    | 0x37 -> simple Op.CALLDATACOPY
    | 0x38 -> simple Op.CODESIZE
    | 0x40 -> simple Op.BLOCKHASH
    | 0x41 -> simple Op.COINBASE
    | 0x42 -> simple Op.TIMESTAMP
    | 0x43 -> simple Op.NUMBER
    | 0x44 -> simple Op.DIFFICULTY
    | 0x45 -> simple Op.GASLIMIT
    | 0x47 -> simple Op.SELFBALANCE
    | 0x50 -> simple Op.POP
    | 0x51 -> simple Op.MLOAD
    | 0x52 -> simple Op.MSTORE
    | 0x53 -> simple Op.MSTORE8
    | 0x54 -> simple Op.SLOAD
    | 0x55 -> simple Op.SSTORE
    | 0x56 -> simple Op.JUMP
    | 0x57 -> simple Op.JUMPI
    | 0x58 -> simple Op.PC
    | 0x59 -> simple Op.MSIZE
    | 0x5a -> simple Op.GAS
    | 0x5b -> simple Op.JUMPDEST
    | b when b >= 0x60 && b <= 0x7f ->
      let w = b - 0x60 + 1 in
      if !i + w > n then raise (Decode_error ("truncated PUSH operand", at));
      let v = U.of_bytes_be (String.sub s !i w) in
      i := !i + w;
      simple (Op.PUSH v)
    | b when b >= 0x80 && b <= 0x8f -> simple (Op.DUP (b - 0x80 + 1))
    | b when b >= 0x90 && b <= 0x9f -> simple (Op.SWAP (b - 0x90 + 1))
    | b when b >= 0xa0 && b <= 0xa4 -> simple (Op.LOG (b - 0xa0))
    | 0xf1 -> simple Op.CALL
    | 0xf3 -> simple Op.RETURN
    | 0xf4 -> simple Op.DELEGATECALL
    | 0xfa -> simple Op.STATICCALL
    | 0xfd -> simple Op.REVERT
    | 0xfe -> simple Op.INVALID
    | 0xff -> simple Op.SELFDESTRUCT
    | b -> raise (Decode_error (Printf.sprintf "unknown opcode 0x%02x" b, at)))
  done;
  Array.of_list (List.rev !out)

let encode_hex code = Util.Hex.encode (encode code)

