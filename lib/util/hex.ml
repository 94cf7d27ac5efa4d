let hex_chars = "0123456789abcdef"

let encode s =
  let n = String.length s in
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code s.[i] in
    Bytes.set out (2 * i) hex_chars.[c lsr 4];
    Bytes.set out ((2 * i) + 1) hex_chars.[c land 0xf]
  done;
  Bytes.unsafe_to_string out

let nibble c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg (Printf.sprintf "Hex.decode: invalid character %C" c)

let decode h =
  let h =
    if String.length h >= 2 && h.[0] = '0' && (h.[1] = 'x' || h.[1] = 'X') then
      String.sub h 2 (String.length h - 2)
    else h
  in
  let n = String.length h in
  if n mod 2 <> 0 then invalid_arg "Hex.decode: odd length";
  let out = Bytes.create (n / 2) in
  for i = 0 to (n / 2) - 1 do
    Bytes.set out i (Char.chr ((nibble h.[2 * i] lsl 4) lor nibble h.[(2 * i) + 1]))
  done;
  Bytes.unsafe_to_string out

let of_byte v =
  if v < 0 || v > 255 then invalid_arg "Hex.of_byte";
  Printf.sprintf "%c%c" hex_chars.[v lsr 4] hex_chars.[v land 0xf]
