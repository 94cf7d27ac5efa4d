type kind = O | I | R | D

let all_kinds = [ O; I; R; D ]

let kind_index = function O -> 0 | I -> 1 | R -> 2 | D -> 3

type m = { kind : kind; n : int }

let random rng ~max_n =
  let kind =
    match Util.Rng.int rng 4 with 0 -> O | 1 -> I | 2 -> R | _ -> D
  in
  { kind; n = 1 + Util.Rng.int rng (Stdlib.max 1 max_n) }

let interesting_bytes = "\x00\x01\x02\x07\x08\x0f\x10\x1f\x20\x40\x64\x7f\x80\xff"

(* wei, finney, ether *)
let value_units =
  Array.map Word.U256.of_decimal_string [| "1"; "1000000000000000"; "1000000000000000000" |]

(* Word-level dictionary for the R operator: boundary constants and
   round ether denominations — the values strict branch conditions
   compare against. *)
let interesting_word rng =
  let module U = Word.U256 in
  match Util.Rng.int rng 6 with
  | 0 -> U.of_int (Util.Rng.int rng 256)
  | 1 ->
    (* k wei/finney/ether for small k *)
    let unit = value_units.(Util.Rng.int rng 3) in
    U.mul (U.of_int (1 + Util.Rng.int rng 200)) unit
  | 2 -> U.shift_left U.one (Util.Rng.int rng 256)
  | 3 -> U.sub (U.shift_left U.one (1 + Util.Rng.int rng 255)) U.one
  | 4 -> U.max_value
  | _ -> U.of_int (Util.Rng.int rng 100000)

let clamp_pos stream pos = Stdlib.max 0 (Stdlib.min pos (String.length stream))

(* Log-scale arithmetic steps on the aligned word containing [pos]:
   combined with branch-distance seed retention this hill-climbs toward
   strict numeric conditions. *)
let arith_word rng stream pos =
  let module U = Word.U256 in
  let len = String.length stream in
  let word_start = Stdlib.min (pos / 32 * 32) (len - 32) in
  let w = U.of_bytes_be (String.sub stream word_start 32) in
  let w' =
    match Util.Rng.int rng 8 with
    | 0 -> U.add w U.one
    | 1 -> U.sub w U.one
    | 2 -> U.add w (U.of_int 256)
    | 3 -> U.sub w (U.of_int 256)
    | 4 -> U.mul w (U.of_int 2)
    | 5 -> U.div w (U.of_int 2)
    | 6 -> U.mul w (U.of_int 10)
    | _ -> U.div w (U.of_int 10)
  in
  String.sub stream 0 word_start ^ U.to_bytes_be w'
  ^ String.sub stream (word_start + 32) (len - word_start - 32)

let apply ?(dict = [||]) rng m ~pos stream =
  let len = String.length stream in
  let pos = clamp_pos stream pos in
  match m.kind with
  | O ->
    if len = 0 then stream
    else if len >= 32 && Util.Rng.int rng 3 = 0 then arith_word rng stream pos
    else begin
      let n = Stdlib.min m.n (len - Stdlib.min pos (len - 1)) in
      let b = Bytes.of_string stream in
      for k = 0 to n - 1 do
        let i = Stdlib.min (pos + k) (len - 1) in
        (* half overwrite with fresh bytes, half single-bit flips *)
        if Util.Rng.bool rng then Bytes.set b i (Util.Rng.byte rng)
        else
          Bytes.set b i
            (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Util.Rng.int rng 8)))
      done;
      Bytes.to_string b
    end
  | I ->
    let chunk = Bytes.to_string (Util.Rng.bytes rng m.n) in
    String.sub stream 0 pos ^ chunk ^ String.sub stream pos (len - pos)
  | R ->
    if len = 0 then stream
    else if Util.Rng.bool rng && len >= 32 then begin
      (* word-level replace: swap the aligned 32-byte word containing
         [pos] for a dictionary word — the move that satisfies strict
         equality conditions like [msg.value == 88 finney] *)
      let word_start = Stdlib.min (pos / 32 * 32) (len - 32) in
      let candidate =
        if Array.length dict > 0 && Util.Rng.bool rng then
          (* contract-specific magic numbers, occasionally perturbed *)
          let base = Util.Rng.choose rng dict in
          match Util.Rng.int rng 4 with
          | 0 -> Word.U256.add base Word.U256.one
          | 1 -> Word.U256.sub base Word.U256.one
          | _ -> base
        else interesting_word rng
      in
      let w = Word.U256.to_bytes_be candidate in
      String.sub stream 0 word_start ^ w
      ^ String.sub stream (word_start + 32) (len - word_start - 32)
    end
    else begin
      let n = Stdlib.min m.n (len - Stdlib.min pos (len - 1)) in
      let b = Bytes.of_string stream in
      for k = 0 to n - 1 do
        let i = Stdlib.min (pos + k) (len - 1) in
        Bytes.set b i
          interesting_bytes.[Util.Rng.int rng (String.length interesting_bytes)]
      done;
      Bytes.to_string b
    end
  | D ->
    if len = 0 then stream
    else begin
      let n = Stdlib.min m.n (len - pos) in
      if n <= 0 then stream
      else String.sub stream 0 pos ^ String.sub stream (pos + n) (len - pos - n)
    end
