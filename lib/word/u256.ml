(* 256-bit words as four 64-bit limbs, least significant first. All
   arithmetic wraps modulo 2^256 per EVM semantics. *)

type t = { l0 : int64; l1 : int64; l2 : int64; l3 : int64 }

let make l0 l1 l2 l3 = { l0; l1; l2; l3 }

let zero = make 0L 0L 0L 0L
let one = make 1L 0L 0L 0L
let max_value = make (-1L) (-1L) (-1L) (-1L)

let equal a b =
  Int64.equal a.l0 b.l0 && Int64.equal a.l1 b.l1 && Int64.equal a.l2 b.l2
  && Int64.equal a.l3 b.l3

let is_zero a = equal a zero

let compare a b =
  let c = Int64.unsigned_compare a.l3 b.l3 in
  if c <> 0 then c
  else
    let c = Int64.unsigned_compare a.l2 b.l2 in
    if c <> 0 then c
    else
      let c = Int64.unsigned_compare a.l1 b.l1 in
      if c <> 0 then c else Int64.unsigned_compare a.l0 b.l0

let lt a b = compare a b < 0
let gt a b = compare a b > 0
let le a b = compare a b <= 0
let ge a b = compare a b >= 0
let min a b = if le a b then a else b
let max a b = if ge a b then a else b

let limb a i =
  match i with
  | 0 -> a.l0
  | 1 -> a.l1
  | 2 -> a.l2
  | 3 -> a.l3
  | _ -> invalid_arg "U256.limb"

(* Add with carry-in; carry out is 0 or 1. *)
let add64c a b c =
  let s1 = Int64.add a b in
  let c1 = if Int64.unsigned_compare s1 a < 0 then 1L else 0L in
  let s2 = Int64.add s1 c in
  let c2 = if Int64.unsigned_compare s2 s1 < 0 then 1L else 0L in
  (s2, Int64.add c1 c2)

let sub64b a b brw =
  let d1 = Int64.sub a b in
  let b1 = if Int64.unsigned_compare a b < 0 then 1L else 0L in
  let d2 = Int64.sub d1 brw in
  let b2 = if Int64.unsigned_compare d1 brw < 0 then 1L else 0L in
  (d2, Int64.add b1 b2)

let add a b =
  let l0, c = add64c a.l0 b.l0 0L in
  let l1, c = add64c a.l1 b.l1 c in
  let l2, c = add64c a.l2 b.l2 c in
  let l3, _ = add64c a.l3 b.l3 c in
  make l0 l1 l2 l3

let sub a b =
  let l0, brw = sub64b a.l0 b.l0 0L in
  let l1, brw = sub64b a.l1 b.l1 brw in
  let l2, brw = sub64b a.l2 b.l2 brw in
  let l3, _ = sub64b a.l3 b.l3 brw in
  make l0 l1 l2 l3

let neg a = sub zero a

(* 64x64 -> 128 multiplication via 32-bit halves. *)
let mul64_wide a b =
  let mask = 0xFFFFFFFFL in
  let al = Int64.logand a mask and ah = Int64.shift_right_logical a 32 in
  let bl = Int64.logand b mask and bh = Int64.shift_right_logical b 32 in
  let ll = Int64.mul al bl in
  let lh = Int64.mul al bh in
  let hl = Int64.mul ah bl in
  let hh = Int64.mul ah bh in
  let mid = Int64.add (Int64.shift_right_logical ll 32) (Int64.logand lh mask) in
  let mid = Int64.add mid (Int64.logand hl mask) in
  let lo = Int64.logor (Int64.logand ll mask) (Int64.shift_left mid 32) in
  let hi =
    Int64.add
      (Int64.add hh (Int64.shift_right_logical mid 32))
      (Int64.add (Int64.shift_right_logical lh 32) (Int64.shift_right_logical hl 32))
  in
  (lo, hi)

let mul a b =
  (* Schoolbook product, keeping only the low 256 bits. *)
  let acc = Array.make 4 0L in
  let carry_into idx v =
    let i = ref idx and v = ref v in
    while !i < 4 && not (Int64.equal !v 0L) do
      let s, c = add64c acc.(!i) !v 0L in
      acc.(!i) <- s;
      v := c;
      incr i
    done
  in
  for i = 0 to 3 do
    for j = 0 to 3 - i do
      let lo, hi = mul64_wide (limb a i) (limb b j) in
      carry_into (i + j) lo;
      if i + j + 1 < 4 then carry_into (i + j + 1) hi
    done
  done;
  make acc.(0) acc.(1) acc.(2) acc.(3)

let get_bit a i =
  let l = limb a (i / 64) in
  Int64.logand (Int64.shift_right_logical l (i mod 64)) 1L = 1L

let bit_length a =
  let limb_bits l = if Int64.equal l 0L then 0 else 64 - Int64_util.count_leading_zeros l in
  if not (Int64.equal a.l3 0L) then 192 + limb_bits a.l3
  else if not (Int64.equal a.l2 0L) then 128 + limb_bits a.l2
  else if not (Int64.equal a.l1 0L) then 64 + limb_bits a.l1
  else limb_bits a.l0

let shift_left a n =
  if n <= 0 then if n = 0 then a else invalid_arg "U256.shift_left"
  else if n >= 256 then zero
  else
    let words = n / 64 and bits = n mod 64 in
    let get i = if i < 0 then 0L else limb a i in
    let part i =
      if bits = 0 then get (i - words)
      else
        Int64.logor
          (Int64.shift_left (get (i - words)) bits)
          (Int64.shift_right_logical (get (i - words - 1)) (64 - bits))
    in
    make (part 0) (part 1) (part 2) (part 3)

let shift_right a n =
  if n <= 0 then if n = 0 then a else invalid_arg "U256.shift_right"
  else if n >= 256 then zero
  else
    let words = n / 64 and bits = n mod 64 in
    let get i = if i > 3 then 0L else limb a i in
    let part i =
      if bits = 0 then get (i + words)
      else
        Int64.logor
          (Int64.shift_right_logical (get (i + words)) bits)
          (Int64.shift_left (get (i + words + 1)) (64 - bits))
    in
    make (part 0) (part 1) (part 2) (part 3)

let is_neg a = Int64.logand a.l3 Int64.min_int <> 0L

let logand a b = make (Int64.logand a.l0 b.l0) (Int64.logand a.l1 b.l1)
    (Int64.logand a.l2 b.l2) (Int64.logand a.l3 b.l3)

let logor a b = make (Int64.logor a.l0 b.l0) (Int64.logor a.l1 b.l1)
    (Int64.logor a.l2 b.l2) (Int64.logor a.l3 b.l3)

let logxor a b = make (Int64.logxor a.l0 b.l0) (Int64.logxor a.l1 b.l1)
    (Int64.logxor a.l2 b.l2) (Int64.logxor a.l3 b.l3)

let lognot a = make (Int64.lognot a.l0) (Int64.lognot a.l1)
    (Int64.lognot a.l2) (Int64.lognot a.l3)

let shift_right_arith a n =
  if n >= 256 then if is_neg a then max_value else zero
  else
    let shifted = shift_right a n in
    if is_neg a && n > 0 then
      (* Fill the vacated top bits with ones. *)
      logor shifted (shift_left max_value (256 - n))
    else shifted

(* ---------------- division ----------------

   Division is on the interpreter's hot path: compiled [x % k]
   expressions execute MOD, and MUL's overflow check divides the wrapped
   product back by an operand. Three cases, cheapest first:
   - both operands fit in one limb: the machine's 64-bit division;
   - the divisor fits in 32 bits: short division, one native-int
     division per digit of the dividend;
   - otherwise Knuth's Algorithm D (TAOCP vol. 2, 4.3.1) over 16-bit
     digits held in native ints, so every product, partial remainder
     and trial quotient fits in 63 bits.
   Digit arrays are indexed least significant first. *)

(* The [i]-th [w]-bit digit of [a], for [w] dividing 64. *)
let digit a w i =
  let bit = i * w in
  Int64.to_int (Int64.shift_right_logical (limb a (bit lsr 6)) (bit land 63))
  land ((1 lsl w) - 1)

(* Limb [k] of the word whose [w]-bit digits are [ds]. *)
let limb_of_digits w ds k =
  let per = 64 / w in
  let acc = ref 0L in
  for j = per - 1 downto 0 do
    acc := Int64.logor (Int64.shift_left !acc w) (Int64.of_int ds.((k * per) + j))
  done;
  !acc

let of_digits w ds =
  make (limb_of_digits w ds 0) (limb_of_digits w ds 1) (limb_of_digits w ds 2)
    (limb_of_digits w ds 3)

(* Short division by [0 < d < 2^32]. Digits are 32 bits wide when
   [d < 2^30], so that [r * 2^32 + digit] stays below [max_int], and
   16 bits wide otherwise. Leading zero digits of [a] are skipped. *)
let divmod_small a d =
  assert (d > 0 && d <= 0xFFFF_FFFF);
  let w = if d < 0x4000_0000 then 32 else 16 in
  let q = Array.make (256 / w) 0 in
  let r = ref 0 in
  for i = ((bit_length a + w - 1) / w) - 1 downto 0 do
    let cur = (!r lsl w) lor digit a w i in
    let qd = cur / d in
    q.(i) <- qd;
    r := cur - (qd * d)
  done;
  (of_digits w q, !r)

(* Algorithm D for [a >= b >= 2^32], over 16-bit digits. *)
let divmod_knuth a b =
  let base = 0x10000 and mask = 0xFFFF in
  let m = (bit_length a + 15) / 16 and n = (bit_length b + 15) / 16 in
  (* D1: normalise so the divisor's top digit has its high bit set; the
     shifted dividend gains one digit at the top. *)
  let s = (16 * n) - bit_length b in
  let vn = Array.make n 0 and un = Array.make (m + 1) 0 in
  let shift_digits x len out =
    let carry = ref 0 in
    for i = 0 to len - 1 do
      let d = digit x 16 i in
      out.(i) <- ((d lsl s) lor !carry) land mask;
      carry := d lsr (16 - s)
    done;
    !carry
  in
  ignore (shift_digits b n vn);
  un.(m) <- shift_digits a m un;
  let q = Array.make 16 0 in
  let vtop = vn.(n - 1) and vnext = vn.(n - 2) in
  for j = m - n downto 0 do
    (* D3: estimate the quotient digit from the top two digits, then
       correct it (at most twice) with the third. *)
    let num = (un.(j + n) * base) + un.(j + n - 1) in
    let qhat = ref (num / vtop) in
    let rhat = ref (num - (!qhat * vtop)) in
    while
      !rhat < base
      && (!qhat >= base || !qhat * vnext > (!rhat * base) + un.(j + n - 2))
    do
      decr qhat;
      rhat := !rhat + vtop
    done;
    (* D4: multiply and subtract; [k] carries the product's high digit
       plus the borrow. *)
    let k = ref 0 in
    for i = 0 to n - 1 do
      let p = !qhat * vn.(i) in
      let t = un.(i + j) - !k - (p land mask) in
      un.(i + j) <- t land mask;
      k := (p lsr 16) - (t asr 16)
    done;
    let t = un.(j + n) - !k in
    un.(j + n) <- t land mask;
    if t >= 0 then q.(j) <- !qhat
    else begin
      (* D6: the estimate was one too large; add the divisor back. *)
      q.(j) <- !qhat - 1;
      let k = ref 0 in
      for i = 0 to n - 1 do
        let t = un.(i + j) + vn.(i) + !k in
        un.(i + j) <- t land mask;
        k := t lsr 16
      done;
      un.(j + n) <- (un.(j + n) + !k) land mask
    end
  done;
  (* D8: the remainder is the low [n] digits, shifted back. *)
  let r = Array.make 16 0 in
  for i = 0 to n - 1 do
    r.(i) <- (un.(i) lsr s) lor ((un.(i + 1) lsl (16 - s)) land mask)
  done;
  (of_digits 16 q, of_digits 16 r)

let fits_limb a = Int64.equal a.l1 0L && Int64.equal a.l2 0L && Int64.equal a.l3 0L

let divmod a b =
  if is_zero b then (zero, zero)
  else if lt a b then (zero, a)
  else if fits_limb a then begin
    (* [b <= a], so [b] fits in one limb too *)
    let q = Int64.unsigned_div a.l0 b.l0 in
    (make q 0L 0L 0L, make (Int64.sub a.l0 (Int64.mul q b.l0)) 0L 0L 0L)
  end
  else if fits_limb b && Int64.unsigned_compare b.l0 0x1_0000_0000L < 0 then begin
    let q, r = divmod_small a (Int64.to_int b.l0) in
    (q, make (Int64.of_int r) 0L 0L 0L)
  end
  else divmod_knuth a b

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

(* Whether [mul a b] wraps: the high half of the 512-bit product is
   non-zero. Bit lengths settle every pair except [bit_length a +
   bit_length b = 257], whose product lies in [2^255, 2^257); there the
   low half's 16-bit-digit columns are summed with carries, as
   schoolbook multiplication would, and the carry into bit 256 decides.
   Nothing is allocated: the EVM asks this on every MUL. *)
let mul_overflows a b =
  let la = bit_length a and lb = bit_length b in
  if la = 0 || lb = 0 || la + lb <= 256 then false
  else if la + lb > 257 then true
  else begin
    let na = (la + 15) / 16 and nb = (lb + 15) / 16 in
    let carry = ref 0 in
    for k = 0 to 15 do
      let sum = ref !carry in
      for i = Stdlib.max 0 (k - nb + 1) to Stdlib.min k (na - 1) do
        sum := !sum + (digit a 16 i * digit b 16 (k - i))
      done;
      carry := !sum lsr 16
    done;
    !carry <> 0
  end

let slt a b =
  match (is_neg a, is_neg b) with
  | true, false -> true
  | false, true -> false
  | _ -> lt a b

let sgt a b = slt b a

let abs_signed a = if is_neg a then neg a else a

let sdiv a b =
  if is_zero b then zero
  else
    let q = div (abs_signed a) (abs_signed b) in
    if is_neg a <> is_neg b then neg q else q

let srem a b =
  if is_zero b then zero
  else
    let r = rem (abs_signed a) (abs_signed b) in
    if is_neg a then neg r else r

let add_mod a b m =
  if is_zero m then zero
  else begin
    let a = rem a m and b = rem b m in
    let s = add a b in
    (* Detect the 257th carry bit: the wrapped sum is smaller than an
       addend exactly when overflow happened. *)
    if lt s a then sub s m else if ge s m then sub s m else s
  end

let mul_mod a b m =
  if is_zero m then zero
  else begin
    (* Russian-peasant multiplication under the modulus. *)
    let result = ref zero in
    let a = ref (rem a m) and b = ref b in
    while not (is_zero !b) do
      if get_bit !b 0 then result := add_mod !result !a m;
      a := add_mod !a !a m;
      b := shift_right !b 1
    done;
    !result
  end

let exp base e =
  let result = ref one and base = ref base and e = ref e in
  while not (is_zero !e) do
    if get_bit !e 0 then result := mul !result !base;
    base := mul !base !base;
    e := shift_right !e 1
  done;
  !result

let of_int n =
  if n < 0 then invalid_arg "U256.of_int: negative"
  else make (Int64.of_int n) 0L 0L 0L

let of_signed_int n =
  if n >= 0 then of_int n else neg (of_int (-n))

let of_int64 n = make n 0L 0L 0L

let to_int_opt a =
  if Int64.equal a.l1 0L && Int64.equal a.l2 0L && Int64.equal a.l3 0L
     && Int64.unsigned_compare a.l0 (Int64.of_int Stdlib.max_int) <= 0
  then Some (Int64.to_int a.l0)
  else None

let to_int_exn a =
  match to_int_opt a with
  | Some n -> n
  | None -> invalid_arg "U256.to_int_exn: out of range"

let[@inline] u64_to_float v =
  if Int64.compare v 0L >= 0 then Int64.to_float v
  else Int64.to_float v +. 18446744073709551616.0

let[@inline] float_of_limbs l0 l1 l2 l3 =
  let two64 = 18446744073709551616.0 in
  ((u64_to_float l3 *. two64 +. u64_to_float l2) *. two64 +. u64_to_float l1)
  *. two64
  +. u64_to_float l0

let to_float a = float_of_limbs a.l0 a.l1 a.l2 a.l3

let[@inline] ult x y = Int64.unsigned_compare x y < 0

(* [to_float (sub a b)] without building the difference: the same limbs
   go through the same fold, so the float is bit-identical. Branch
   distances take one of these per comparison opcode executed. *)
let to_float_sub a b =
  let t1 = Int64.sub a.l1 b.l1 and t2 = Int64.sub a.l2 b.l2 in
  let w0 = ult a.l0 b.l0 in
  let w1 = ult a.l1 b.l1 || (w0 && Int64.equal t1 0L) in
  let w2 = ult a.l2 b.l2 || (w1 && Int64.equal t2 0L) in
  let t3 = Int64.sub a.l3 b.l3 in
  float_of_limbs (Int64.sub a.l0 b.l0)
    (if w0 then Int64.pred t1 else t1)
    (if w1 then Int64.pred t2 else t2)
    (if w2 then Int64.pred t3 else t3)

(* Both operands in one limb (every selector comparison): the difference
   is one limb too, and [float_of_limbs d 0 0 0] only adds zeros to
   [u64_to_float d], so returning that is bit-identical. *)
let to_float_abs_difference a b =
  if Int64.equal (Int64.logor (Int64.logor a.l1 a.l2) a.l3) 0L
     && Int64.equal (Int64.logor (Int64.logor b.l1 b.l2) b.l3) 0L
  then
    u64_to_float
      (if ult a.l0 b.l0 then Int64.sub b.l0 a.l0 else Int64.sub a.l0 b.l0)
  else if ge a b then to_float_sub a b
  else to_float_sub b a

let to_decimal_string a =
  if is_zero a then "0"
  else begin
    (* Peel base-10^9 chunks from the low end, then join most-significant
       first; interior chunks keep their leading zeros. *)
    let chunks = ref [] in
    let v = ref a in
    while not (is_zero !v) do
      let q, r = divmod_small !v 1_000_000_000 in
      chunks := r :: !chunks;
      v := q
    done;
    match !chunks with
    | [] -> "0"
    | first :: rest ->
      let b = Buffer.create 80 in
      Buffer.add_string b (string_of_int first);
      List.iter (fun c -> Buffer.add_string b (Printf.sprintf "%09d" c)) rest;
      Buffer.contents b
  end

let of_decimal_string s =
  if String.length s = 0 then invalid_arg "U256.of_decimal_string: empty";
  let ten = of_int 10 in
  let acc = ref zero in
  String.iter
    (fun c ->
      match c with
      | '0' .. '9' ->
        acc := add (mul !acc ten) (of_int (Char.code c - Char.code '0'))
      | '_' -> ()
      | _ -> invalid_arg "U256.of_decimal_string: non-digit")
    s;
  !acc

let of_hex_string s =
  let s =
    if String.length s >= 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X') then
      String.sub s 2 (String.length s - 2)
    else s
  in
  if String.length s = 0 || String.length s > 64 then
    invalid_arg "U256.of_hex_string: bad length";
  let nibble c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "U256.of_hex_string: non-hex"
  in
  let acc = ref zero in
  String.iter (fun c -> acc := logor (shift_left !acc 4) (of_int (nibble c))) s;
  !acc

let to_hex_string a =
  if is_zero a then "0x0"
  else begin
    let buf = Buffer.create 66 in
    Buffer.add_string buf "0x";
    let started = ref false in
    for i = 63 downto 0 do
      let nib =
        Int64.to_int
          (Int64.logand (Int64.shift_right_logical (limb a (i / 16)) ((i mod 16) * 4)) 0xFL)
      in
      if nib <> 0 then started := true;
      if !started then Buffer.add_char buf "0123456789abcdef".[nib]
    done;
    Buffer.contents buf
  end

let to_bytes_be a =
  String.init 32 (fun i ->
      let bit = (31 - i) * 8 in
      Char.chr
        (Int64.to_int
           (Int64.logand (Int64.shift_right_logical (limb a (bit / 64)) (bit mod 64)) 0xFFL)))

(* Allocation-free big-endian word I/O: four 64-bit limb moves instead of
   a 32-byte intermediate string. These are the EVM interpreter's MSTORE /
   MLOAD primitives. *)

let blit_be a buf off =
  Bytes.set_int64_be buf off a.l3;
  Bytes.set_int64_be buf (off + 8) a.l2;
  Bytes.set_int64_be buf (off + 16) a.l1;
  Bytes.set_int64_be buf (off + 24) a.l0

let read_be buf off =
  make
    (Bytes.get_int64_be buf (off + 24))
    (Bytes.get_int64_be buf (off + 16))
    (Bytes.get_int64_be buf (off + 8))
    (Bytes.get_int64_be buf off)

let read_be_string s off =
  make
    (String.get_int64_be s (off + 24))
    (String.get_int64_be s (off + 16))
    (String.get_int64_be s (off + 8))
    (String.get_int64_be s off)

(* Exact-width input (hash outputs, memory and calldata words) is read in
   place; shorter input is left-padded into a scratch word first. *)
let of_bytes_be s =
  let n = String.length s in
  if n = 32 then read_be_string s 0
  else if n > 32 then invalid_arg "U256.of_bytes_be: more than 32 bytes"
  else begin
    let b = Bytes.make 32 '\000' in
    Bytes.blit_string s 0 b (32 - n) n;
    read_be b 0
  end

let byte i x =
  if i >= 32 || i < 0 then zero
  else logand (shift_right x ((31 - i) * 8)) (of_int 0xff)

let sign_extend k x =
  if k >= 31 || k < 0 then x
  else
    let sign_bit = (8 * (k + 1)) - 1 in
    let mask = sub (shift_left one (sign_bit + 1)) one in
    if get_bit x sign_bit then logor x (lognot mask) else logand x mask

let hash a =
  let mix h l = (h * 31) + (Int64.to_int l land 0x3FFFFFFF) in
  mix (mix (mix (mix 17 a.l0) a.l1) a.l2) a.l3

let abs_difference a b = if ge a b then sub a b else sub b a

let pp fmt a = Format.pp_print_string fmt (to_decimal_string a)
