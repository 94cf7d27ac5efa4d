module U = Word.U256

type ty = Uint256 | Uint8 | Address | Bool

let ty_to_string = function
  | Uint256 -> "uint256"
  | Uint8 -> "uint8"
  | Address -> "address"
  | Bool -> "bool"

let word_size = 32

type value = VUint of U.t | VAddress of U.t | VBool of bool

let value_to_string = function
  | VUint v -> U.to_decimal_string v
  | VAddress a -> U.to_hex_string a
  | VBool b -> string_of_bool b

type func = {
  name : string;
  inputs : ty list;
  payable : bool;
  is_constructor : bool;
}

let signature f =
  Printf.sprintf "%s(%s)" f.name
    (String.concat "," (List.map ty_to_string f.inputs))

(* Selectors are requested for every transaction the executor encodes,
   so memoize per domain (lock-free under the parallel campaign runner).
   Keyed by content, the name and input types that determine the
   signature, so a lookup neither formats the signature nor depends on
   [func] records being physically shared (seed records are not). A
   long-lived process fuzzes many contracts, so the table is dropped
   whenever it reaches [selector_memo_cap] entries. *)
module Sig_tbl = Hashtbl.Make (struct
  type t = func

  let ty_code = function Uint256 -> 0 | Uint8 -> 1 | Address -> 2 | Bool -> 3

  let equal a b =
    String.equal a.name b.name
    && List.equal (fun x y -> ty_code x = ty_code y) a.inputs b.inputs

  let hash f =
    List.fold_left (fun h ty -> (h * 5) + ty_code ty) (Hashtbl.hash f.name) f.inputs
end)

let selector_memo_cap = 1024

let selector_memo : string Sig_tbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Sig_tbl.create 64)

let selector f =
  let memo = Domain.DLS.get selector_memo in
  match Sig_tbl.find_opt memo f with
  | Some s -> s
  | None ->
    let s = Crypto.Keccak.selector (signature f) in
    if Sig_tbl.length memo >= selector_memo_cap then Sig_tbl.reset memo;
    Sig_tbl.add memo f s;
    s

let address_mask =
  U.sub (U.shift_left U.one 160) U.one

let canonicalize_word ty w =
  match ty with
  | Uint256 -> w
  | Uint8 -> U.logand w (U.of_int 0xff)
  | Address -> U.logand w address_mask
  | Bool -> if U.is_zero w then U.zero else U.one

let word_of_value ty v =
  let w =
    match v with
    | VUint w -> w
    | VAddress w -> w
    | VBool b -> if b then U.one else U.zero
  in
  canonicalize_word ty w

let encode_value ty v = U.to_bytes_be (word_of_value ty v)

let encode_call f values =
  if List.length values <> List.length f.inputs then
    invalid_arg "Abi.encode_call: arity mismatch";
  let buf = Buffer.create (4 + (word_size * List.length values)) in
  Buffer.add_string buf (selector f);
  List.iter2 (fun ty v -> Buffer.add_string buf (encode_value ty v)) f.inputs values;
  Buffer.contents buf

let args_byte_length f = word_size * List.length f.inputs

(* One buffer, zero-filled: the selector and each argument word are
   blitted in, keeping only the bytes the type's canonical form keeps
   (the byte-level image of [canonicalize_word]); bytes past the end of
   [raw] stay zero. *)
let encode_args_raw f raw =
  let out = Bytes.make (4 + args_byte_length f) '\000' in
  Bytes.blit_string (selector f) 0 out 0 4;
  let raw_len = String.length raw in
  List.iteri
    (fun i ty ->
      let src = i * word_size in
      let dst = 4 + src in
      let avail = Stdlib.max 0 (Stdlib.min word_size (raw_len - src)) in
      match ty with
      | Uint256 -> if avail > 0 then Bytes.blit_string raw src out dst avail
      | Uint8 -> if avail = word_size then Bytes.set out (dst + 31) raw.[src + 31]
      | Address ->
        if avail > 12 then Bytes.blit_string raw (src + 12) out (dst + 12) (avail - 12)
      | Bool ->
        let j = ref 0 in
        while !j < avail && raw.[src + !j] = '\000' do incr j done;
        if !j < avail then Bytes.set out (dst + 31) '\001')
    f.inputs;
  Bytes.unsafe_to_string out

let decode_args f data =
  List.mapi
    (fun i ty ->
      let word =
        String.init word_size (fun j ->
            let k = (i * word_size) + j in
            if k < String.length data then data.[k] else '\000')
      in
      let w = canonicalize_word ty (U.of_bytes_be word) in
      match ty with
      | Uint256 | Uint8 -> VUint w
      | Address -> VAddress w
      | Bool -> VBool (not (U.is_zero w)))
    f.inputs
