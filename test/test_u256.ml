(* Unit and property tests for the 256-bit word substrate. *)

module U = Word.U256

let u256 = Alcotest.testable U.pp U.equal

(* QCheck generator: mixes full-width random words with small and
   boundary values, where arithmetic corner cases live. *)
let gen_u256 =
  QCheck2.Gen.(
    oneof
      [
        (let* a = int64 and* b = int64 and* c = int64 and* d = int64 in
         return
           (U.logor
              (U.shift_left (U.of_int64 a) 192)
              (U.logor
                 (U.shift_left (U.of_int64 b) 128)
                 (U.logor (U.shift_left (U.of_int64 c) 64) (U.of_int64 d)))));
        map (fun n -> U.of_int (abs n)) small_int;
        oneofl [ U.zero; U.one; U.max_value; U.sub U.max_value U.one;
                 U.shift_left U.one 255; U.sub (U.shift_left U.one 128) U.one ];
      ])

(* Division-shaped words. [gen_u256] never yields a 2- or 3-limb word,
   so on its own it leaves most of long division's digit-count pairs
   untried. These mix 1 to 4 significant limbs, words at limb
   boundaries (2^(64k) and its neighbours) and words of every bit
   length with their top bit set, the normalisation edge. *)
let gen_div_u256 =
  QCheck2.Gen.(
    let of_limbs ls =
      List.fold_left (fun acc l -> U.logor (U.shift_left acc 64) (U.of_int64 l)) U.zero ls
    in
    oneof
      [
        gen_u256;
        (let* k = int_range 1 4 in
         map of_limbs (list_repeat k int64));
        (let* k = int_range 1 3 and* delta = oneofl [ -1; 0; 1 ] in
         let p = U.shift_left U.one (64 * k) in
         return
           (if delta < 0 then U.sub p U.one else if delta > 0 then U.add p U.one else p));
        (let* bits = int_range 1 256 and* w = gen_u256 in
         let low = U.shift_right w (256 - bits) in
         return (U.logor low (U.shift_left U.one (bits - 1))));
      ])

let print1 = U.to_decimal_string
let print2 (a, b) = U.to_decimal_string a ^ ", " ^ U.to_decimal_string b
let print3 (a, b, c) = String.concat ", " (List.map U.to_decimal_string [ a; b; c ])

let gen2 = QCheck2.Gen.pair gen_u256 gen_u256
let gen3 = QCheck2.Gen.triple gen_u256 gen_u256 gen_u256

let prop1 name f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count:500 ~print:print1 gen_u256 f)

let prop2 name f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count:500 ~print:print2 gen2 f)

(* Division properties run on division-shaped pairs, with a deeper
   sweep under QCHECK_LONG. *)
let prop2_div name f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count:1000 ~long_factor:50 ~print:print2
       (QCheck2.Gen.pair gen_div_u256 gen_div_u256)
       f)

(* Pairs whose bit lengths sum to 257, the one case in which
   [mul_overflows] cannot answer from bit lengths alone. *)
let gen_mul_boundary =
  QCheck2.Gen.(
    let top bits w = U.logor (U.shift_right w (256 - bits)) (U.shift_left U.one (bits - 1)) in
    let* la = int_range 1 256 and* wa = gen_u256 and* wb = gen_u256 in
    return (top la wa, top (257 - la) wb))

(* The overflow check [mul_overflows] replaces in the interpreter. *)
let mul_wraps_by_division a b =
  (not (U.is_zero a)) && not (U.equal (U.div (U.mul a b) a) b)

let prop3 name f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count:500 ~print:print3 gen3 f)

let unit name f = Alcotest.test_case name `Quick f

(* The byte-at-a-time definition [of_bytes_be] had before it read limbs
   from a left-padded word. *)
let of_bytes_be_model s =
  let acc = ref U.zero in
  String.iter (fun c -> acc := U.logor (U.shift_left !acc 8) (U.of_int (Char.code c))) s;
  !acc

let conversions =
  [
    unit "of_int/to_int roundtrip" (fun () ->
        List.iter
          (fun n -> Alcotest.(check (option int)) "n" (Some n) (U.to_int_opt (U.of_int n)))
          [ 0; 1; 42; 1_000_000; max_int ]);
    unit "of_int negative rejected" (fun () ->
        Alcotest.check_raises "negative" (Invalid_argument "U256.of_int: negative")
          (fun () -> ignore (U.of_int (-1))));
    unit "decimal string roundtrip" (fun () ->
        List.iter
          (fun s ->
            Alcotest.(check string) s s (U.to_decimal_string (U.of_decimal_string s)))
          [ "0"; "1"; "1000000000000000000";
            "115792089237316195423570985008687907853269984665640564039457584007913129639935";
            "340282366920938463463374607431768211456" ]);
    unit "hex string roundtrip" (fun () ->
        List.iter
          (fun s -> Alcotest.(check string) s s (U.to_hex_string (U.of_hex_string s)))
          [ "0x1"; "0xdeadbeef"; "0xffffffffffffffffffffffffffffffff" ]);
    unit "max_value is 2^256-1" (fun () ->
        Alcotest.check u256 "max+1=0" U.zero (U.add U.max_value U.one));
    unit "of_bytes_be short strings left-pad" (fun () ->
        Alcotest.check u256 "0xff" (U.of_int 255) (U.of_bytes_be "\xff"));
    unit "to_bytes_be length 32" (fun () ->
        Alcotest.(check int) "len" 32 (String.length (U.to_bytes_be U.one)));
    unit "signed int conversion" (fun () ->
        Alcotest.check u256 "-1" U.max_value (U.of_signed_int (-1));
        Alcotest.check u256 "-2" (U.sub U.max_value U.one) (U.of_signed_int (-2)));
    prop1 "bytes_be roundtrip" (fun a ->
        U.equal a (U.of_bytes_be (U.to_bytes_be a)));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"of_bytes_be matches the byte fold at lengths 0-32"
         ~count:1000 ~long_factor:50 ~print:(Printf.sprintf "%S")
         QCheck2.Gen.(int_range 0 32 >>= fun n -> string_size ~gen:char (return n))
         (fun s -> U.equal (U.of_bytes_be s) (of_bytes_be_model s)));
    unit "of_bytes_be rejects more than 32 bytes" (fun () ->
        Alcotest.check_raises "33 bytes"
          (Invalid_argument "U256.of_bytes_be: more than 32 bytes")
          (fun () -> ignore (U.of_bytes_be (String.make 33 '\001'))));
    prop1 "decimal roundtrip" (fun a ->
        U.equal a (U.of_decimal_string (U.to_decimal_string a)));
    prop1 "hex roundtrip" (fun a -> U.equal a (U.of_hex_string (U.to_hex_string a)));
  ]

let ring_laws =
  [
    prop2 "add commutative" (fun (a, b) -> U.equal (U.add a b) (U.add b a));
    prop3 "add associative" (fun (a, b, c) ->
        U.equal (U.add (U.add a b) c) (U.add a (U.add b c)));
    prop2 "mul commutative" (fun (a, b) -> U.equal (U.mul a b) (U.mul b a));
    prop3 "mul associative" (fun (a, b, c) ->
        U.equal (U.mul (U.mul a b) c) (U.mul a (U.mul b c)));
    prop3 "mul distributes over add" (fun (a, b, c) ->
        U.equal (U.mul a (U.add b c)) (U.add (U.mul a b) (U.mul a c)));
    prop2 "sub inverts add" (fun (a, b) -> U.equal (U.sub (U.add a b) b) a);
    prop1 "neg is additive inverse" (fun a -> U.is_zero (U.add a (U.neg a)));
    prop1 "zero is add identity" (fun a -> U.equal (U.add a U.zero) a);
    prop1 "one is mul identity" (fun a -> U.equal (U.mul a U.one) a);
  ]

let division =
  [
    prop2_div "divmod identity" (fun (a, b) ->
        if U.is_zero b then true
        else
          let q, r = U.divmod a b in
          U.equal a (U.add (U.mul q b) r) && U.lt r b);
    unit "long division add-back vectors" (fun () ->
        (* Each takes Algorithm D's rare add-back step (the trial
           quotient digit one too large) at least once; quotient and
           remainder were computed with arbitrary-precision integers. *)
        List.iter
          (fun (a, b, q, r) ->
            let h = U.of_hex_string in
            let q', r' = U.divmod (h a) (h b) in
            Alcotest.check u256 ("quotient of " ^ a) (h q) q';
            Alcotest.check u256 ("remainder of " ^ a) (h r) r')
          [
            ( "0x59ff8000fffe8000fffec118", "0x8000000180008001", "0xb3feffff",
              "0x71ffa6024c004119" );
            ( "0x7fff7fff800100002720fffe9db2fffe0000e0b500018000",
              "0x7fff7fffffffa9d500017fff", "0xffffffff0001ac57fa964e40",
              "0x550200f0130739eb8537ce40" );
            ( "0xfffe7fff912800010001486cffff", "0x7ffffffffad04259", "0x1fffcffff370e",
              "0x6bbfc2fa15214021" );
            ( "0x8000ffff00008001f2aa000054a27fff8001ffff0001336d80012c488001ecfc",
              "0x8000ffffffff80018000fffeffff80019e2a8000fffe000080010001ffff",
              "0xffff",
              "0x80000000fffff2aa800254a1fffd61d91e288004336b0000ac478004ecfb" );
          ]);
    unit "division fast-path boundaries" (fun () ->
        let p k = U.shift_left U.one k in
        (* one limb, top bit set: unsigned, not signed, 64-bit division *)
        let q, r = U.divmod (U.of_int64 (-1L)) (p 63) in
        Alcotest.check u256 "2^64-1 / 2^63" U.one q;
        Alcotest.check u256 "2^64-1 mod 2^63" (U.sub (p 63) U.one) r;
        (* divisors on either side of the 30- and 32-bit short-division
           limits and of the first long division, against the ring ops *)
        List.iter
          (fun k ->
            List.iter
              (fun b ->
                List.iter
                  (fun a ->
                    let q, r = U.divmod a b in
                    if not (U.equal a (U.add (U.mul q b) r) && U.lt r b) then
                      Alcotest.failf "%s / %s" (U.to_hex_string a) (U.to_hex_string b))
                  [ U.max_value; p 255; U.add (p 128) (U.of_int 5); U.sub (p 64) U.one ])
              [ U.sub (p k) U.one; p k; U.add (p k) U.one ])
          [ 29; 30; 31; 32; 33; 63; 64 ]);
    prop2_div "mul_overflows matches the division check" (fun (a, b) ->
        U.mul_overflows a b = mul_wraps_by_division a b);
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"mul_overflows at bit lengths summing to 257"
         ~count:1000 ~long_factor:50 ~print:print2 gen_mul_boundary (fun (a, b) ->
           U.mul_overflows a b = mul_wraps_by_division a b));
    unit "mul_overflows boundary vectors" (fun () ->
        let p k = U.shift_left U.one k in
        List.iter
          (fun (a, b, expect) ->
            Alcotest.(check bool)
              (U.to_hex_string a ^ " * " ^ U.to_hex_string b)
              expect (U.mul_overflows a b);
            Alcotest.(check bool) "commutes" expect (U.mul_overflows b a))
          [
            (p 128, U.sub (p 128) U.one, false);
            (U.add (p 128) U.one, U.sub (p 128) U.one, false);
            (U.add (p 128) (U.of_int 2), U.sub (p 128) U.one, true);
            (p 128, p 128, true);
            (p 255, U.of_int 2, true);
            (p 255, U.one, false);
            (U.max_value, U.one, false);
            (U.max_value, U.zero, false);
          ]);
    prop1 "div by zero is zero (EVM)" (fun a -> U.is_zero (U.div a U.zero));
    prop1 "rem by zero is zero (EVM)" (fun a -> U.is_zero (U.rem a U.zero));
    prop1 "div self is one" (fun a ->
        U.is_zero a || U.equal (U.div a a) U.one);
    unit "sdiv truncates toward zero" (fun () ->
        let m7 = U.of_signed_int (-7) and p2 = U.of_int 2 in
        Alcotest.check u256 "-7 sdiv 2 = -3" (U.of_signed_int (-3)) (U.sdiv m7 p2);
        Alcotest.check u256 "7 sdiv -2 = -3" (U.of_signed_int (-3))
          (U.sdiv (U.of_int 7) (U.of_signed_int (-2))));
    unit "sdiv min/-1 wraps to min (EVM)" (fun () ->
        let min_signed = U.shift_left U.one 255 in
        Alcotest.check u256 "min" min_signed (U.sdiv min_signed U.max_value));
    unit "srem takes dividend sign" (fun () ->
        Alcotest.check u256 "-7 smod 2 = -1" (U.of_signed_int (-1))
          (U.srem (U.of_signed_int (-7)) (U.of_int 2));
        Alcotest.check u256 "7 smod -2 = 1" U.one
          (U.srem (U.of_int 7) (U.of_signed_int (-2))));
    prop3 "add_mod matches small ints" (fun (a, b, m) ->
        let a = U.rem a (U.of_int 10000) and b = U.rem b (U.of_int 10000) in
        let m = U.add (U.rem m (U.of_int 9999)) U.one in
        let expect =
          (U.to_int_exn a + U.to_int_exn b) mod U.to_int_exn m
        in
        U.equal (U.add_mod a b m) (U.of_int expect));
    prop3 "mul_mod matches small ints" (fun (a, b, m) ->
        let a = U.rem a (U.of_int 10000) and b = U.rem b (U.of_int 10000) in
        let m = U.add (U.rem m (U.of_int 9999)) U.one in
        let expect =
          U.to_int_exn a * U.to_int_exn b mod U.to_int_exn m
        in
        U.equal (U.mul_mod a b m) (U.of_int expect));
    unit "add_mod handles 257-bit sums" (fun () ->
        (* (2^256-1 + 2^256-1) mod (2^256-1) = 0 *)
        Alcotest.check u256 "wrap" U.zero
          (U.add_mod U.max_value U.max_value U.max_value);
        (* (max + max) mod (max-1): max mod (max-1) = 1 each, sum 2 *)
        Alcotest.check u256 "wrap2" (U.of_int 2)
          (U.add_mod U.max_value U.max_value (U.sub U.max_value U.one)));
    unit "exp small cases" (fun () ->
        Alcotest.check u256 "2^10" (U.of_int 1024) (U.exp (U.of_int 2) (U.of_int 10));
        Alcotest.check u256 "x^0" U.one (U.exp (U.of_int 12345) U.zero);
        Alcotest.check u256 "0^0 = 1 (EVM)" U.one (U.exp U.zero U.zero));
    prop1 "exp matches repeated mul" (fun a ->
        let e = 3 in
        U.equal (U.exp a (U.of_int e)) (U.mul a (U.mul a a)));
  ]

let comparison =
  [
    prop2 "compare total order antisym" (fun (a, b) ->
        U.compare a b = -U.compare b a);
    prop2 "lt iff compare < 0" (fun (a, b) -> U.lt a b = (U.compare a b < 0));
    prop2 "le = lt or eq" (fun (a, b) -> U.le a b = (U.lt a b || U.equal a b));
    prop2 "slt on sign split" (fun (a, b) ->
        match (U.is_neg a, U.is_neg b) with
        | true, false -> U.slt a b
        | false, true -> not (U.slt a b)
        | _ -> U.slt a b = U.lt a b);
    prop2 "abs_difference symmetric" (fun (a, b) ->
        U.equal (U.abs_difference a b) (U.abs_difference b a));
    prop2 "min/max round trip" (fun (a, b) ->
        U.equal (U.add (U.min a b) (U.max a b)) (U.add a b));
  ]

let bitwise =
  [
    prop1 "lognot involutive" (fun a -> U.equal a (U.lognot (U.lognot a)));
    prop1 "and with self" (fun a -> U.equal a (U.logand a a));
    prop1 "xor with self is zero" (fun a -> U.is_zero (U.logxor a a));
    prop2 "de morgan" (fun (a, b) ->
        U.equal (U.lognot (U.logand a b)) (U.logor (U.lognot a) (U.lognot b)));
    prop1 "shift_left is mul by 2^k" (fun a ->
        let k = 7 in
        U.equal (U.shift_left a k) (U.mul a (U.of_int 128)));
    prop1 "shift_right is div by 2^k" (fun a ->
        let k = 13 in
        U.equal (U.shift_right a k) (U.div a (U.shift_left U.one k)));
    prop1 "shift roundtrip low bits" (fun a ->
        let k = 64 in
        U.equal (U.shift_right (U.shift_left a k) k)
          (U.logand a (U.sub (U.shift_left U.one (256 - k)) U.one)));
    unit "shifts >= 256 give zero" (fun () ->
        Alcotest.check u256 "shl" U.zero (U.shift_left U.max_value 256);
        Alcotest.check u256 "shr" U.zero (U.shift_right U.max_value 300));
    unit "sar propagates sign" (fun () ->
        Alcotest.check u256 "neg" U.max_value (U.shift_right_arith U.max_value 10);
        Alcotest.check u256 "neg full" U.max_value
          (U.shift_right_arith (U.shift_left U.one 255) 256);
        Alcotest.check u256 "pos" (U.of_int 1) (U.shift_right_arith (U.of_int 2) 1));
    unit "byte extracts from big end" (fun () ->
        let x = U.of_hex_string "0xaabbcc" in
        Alcotest.check u256 "byte31" (U.of_int 0xcc) (U.byte 31 x);
        Alcotest.check u256 "byte30" (U.of_int 0xbb) (U.byte 30 x);
        Alcotest.check u256 "byte0" U.zero (U.byte 0 x);
        Alcotest.check u256 "byte32" U.zero (U.byte 32 x));
    unit "sign_extend" (fun () ->
        Alcotest.check u256 "0xff k=0 -> -1" U.max_value
          (U.sign_extend 0 (U.of_int 0xff));
        Alcotest.check u256 "0x7f k=0 -> 0x7f" (U.of_int 0x7f)
          (U.sign_extend 0 (U.of_int 0x7f));
        Alcotest.check u256 "k>=31 identity" (U.of_int 0xff)
          (U.sign_extend 31 (U.of_int 0xff)));
    prop1 "bit_length bounds" (fun a ->
        let n = U.bit_length a in
        if U.is_zero a then n = 0
        else
          n >= 1 && n <= 256
          && (n = 256 || U.lt a (U.shift_left U.one n))
          && U.ge a (U.shift_left U.one (n - 1)));
  ]

(* ---------------- reference model ----------------

   An independent schoolbook bignum over 16 limbs of 16 bits (so every
   intermediate product and carry fits a native int with room to
   spare). Words cross into the model only through [to_bytes_be], so a
   bug in U256's add/sub/mul/compare cannot hide inside the model. *)
module Model = struct
  let limbs = 16
  let base = 1 lsl 16

  (* limb 0 = least significant 16 bits *)
  let of_u256 u =
    let b = U.to_bytes_be u in
    Array.init limbs (fun i ->
        let off = 32 - (2 * (i + 1)) in
        (Char.code b.[off] lsl 8) lor Char.code b.[off + 1])

  let to_u256 m =
    let b = Bytes.create 32 in
    for i = 0 to limbs - 1 do
      let off = 32 - (2 * (i + 1)) in
      Bytes.set b off (Char.chr ((m.(i) lsr 8) land 0xff));
      Bytes.set b (off + 1) (Char.chr (m.(i) land 0xff))
    done;
    U.of_bytes_be (Bytes.to_string b)

  let add a b =
    let r = Array.make limbs 0 in
    let carry = ref 0 in
    for i = 0 to limbs - 1 do
      let s = a.(i) + b.(i) + !carry in
      r.(i) <- s mod base;
      carry := s / base
    done;
    (* mod 2^256: the final carry is dropped *)
    r

  let sub a b =
    let r = Array.make limbs 0 in
    let borrow = ref 0 in
    for i = 0 to limbs - 1 do
      let d = a.(i) - b.(i) - !borrow in
      if d < 0 then begin
        r.(i) <- d + base;
        borrow := 1
      end
      else begin
        r.(i) <- d;
        borrow := 0
      end
    done;
    r

  let mul a b =
    let wide = Array.make (2 * limbs) 0 in
    for i = 0 to limbs - 1 do
      let carry = ref 0 in
      for j = 0 to limbs - 1 do
        let t = wide.(i + j) + (a.(i) * b.(j)) + !carry in
        wide.(i + j) <- t mod base;
        carry := t / base
      done;
      wide.(i + limbs) <- wide.(i + limbs) + !carry
    done;
    (* mod 2^256: keep the low 16 limbs *)
    Array.sub wide 0 limbs

  let compare a b =
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (limbs - 1)
end

let model =
  let binop name model_op u_op =
    prop2 (name ^ " matches the limb model") (fun (a, b) ->
        U.equal (u_op a b)
          (Model.to_u256 (model_op (Model.of_u256 a) (Model.of_u256 b))))
  in
  [
    binop "add" Model.add U.add;
    binop "sub" Model.sub U.sub;
    binop "mul" Model.mul U.mul;
    prop2 "compare matches the limb model" (fun (a, b) ->
        U.compare a b = Model.compare (Model.of_u256 a) (Model.of_u256 b));
    prop1 "neg matches model 0 - a" (fun a ->
        U.equal (U.neg a)
          (Model.to_u256 (Model.sub (Model.of_u256 U.zero) (Model.of_u256 a))));
    prop1 "limb model round-trips" (fun a ->
        U.equal a (Model.to_u256 (Model.of_u256 a)));
    (* signed division against the (model-validated) ring ops: for b<>0,
       a = b * sdiv(a,b) + srem(a,b) mod 2^256, the remainder takes the
       dividend's sign, and |r| < |b|. Covers min_int / -1 too, where
       r = 0 and the identity still holds because b*q wraps back. *)
    prop2_div "sdiv/srem division identity" (fun (a, b) ->
        U.is_zero b
        || U.equal a (U.add (U.mul b (U.sdiv a b)) (U.srem a b)));
    prop2_div "srem sign and magnitude" (fun (a, b) ->
        if U.is_zero b then true
        else
          let r = U.srem a b in
          let abs x = if U.is_neg x then U.neg x else x in
          (U.is_zero r || U.is_neg r = U.is_neg a) && U.lt (abs r) (abs b));
    prop2_div "unsigned divmod identity (model mul)" (fun (a, b) ->
        U.is_zero b
        ||
        let q, r = U.divmod a b in
        U.equal a
          (Model.to_u256
             (Model.add
                (Model.mul (Model.of_u256 q) (Model.of_u256 b))
                (Model.of_u256 r)))
        && U.lt r b);
  ]

let misc =
  [
    prop2 "to_float monotone-ish" (fun (a, b) ->
        if U.lt a b then U.to_float a <= U.to_float b else true);
    unit "to_float exact small" (fun () ->
        Alcotest.(check (float 0.0)) "42" 42.0 (U.to_float (U.of_int 42)));
    prop1 "hash equal on equal" (fun a ->
        U.hash a = U.hash (U.of_bytes_be (U.to_bytes_be a)));
  ]

(* ---------------- branch distances ----------------

   The allocation-free distance helpers must return the very float the
   word-building definitions return, bit for bit, and
   [Interp.cmp_dist] must agree with its earlier definition, kept here,
   on every comparison opcode. Near pairs exercise long borrow chains. *)
let bits = Int64.bits_of_float

let reference_cmp_dist (op : Evm.Opcode.t) a b =
  let signed_float x = if U.is_neg x then -.U.to_float (U.neg x) else U.to_float x in
  match op with
  | EQ ->
    let d = U.to_float (U.abs_difference a b) in
    if d = 0.0 then (0.0, 1.0) else (d, 0.0)
  | LT ->
    if U.lt a b then (0.0, U.to_float (U.sub b a))
    else (U.to_float (U.sub a b) +. 1.0, 0.0)
  | GT ->
    if U.gt a b then (0.0, U.to_float (U.sub a b))
    else (U.to_float (U.sub b a) +. 1.0, 0.0)
  | SLT ->
    let sa = signed_float a and sb = signed_float b in
    if sa < sb then (0.0, sb -. sa) else (sa -. sb +. 1.0, 0.0)
  | SGT ->
    let sa = signed_float a and sb = signed_float b in
    if sa > sb then (0.0, sa -. sb) else (sb -. sa +. 1.0, 0.0)
  | _ -> invalid_arg "reference_cmp_dist"

let gen_dist_pair =
  QCheck2.Gen.(
    oneof
      [
        pair gen_div_u256 gen_div_u256;
        (let* a = gen_div_u256 and* d = int_range (-3) 3 in
         return (a, if d < 0 then U.sub a (U.of_int (-d)) else U.add a (U.of_int d)));
        map (fun a -> (a, a)) gen_div_u256;
      ])

let prop_dist name f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count:1000 ~long_factor:50 ~print:print2 gen_dist_pair f)

let distances =
  [
    prop_dist "to_float_sub is bit-equal to to_float (sub a b)" (fun (a, b) ->
        bits (U.to_float_sub a b) = bits (U.to_float (U.sub a b)));
    prop_dist "to_float_abs_difference is bit-equal to to_float (abs_difference a b)"
      (fun (a, b) ->
        bits (U.to_float_abs_difference a b) = bits (U.to_float (U.abs_difference a b)));
    (* the one-limb fast path: both orders of every pair, equal
       operands, and the limb's unsigned extremes *)
    Alcotest.test_case "one-limb pairs are bit-equal to to_float (abs_difference a b)"
      `Quick (fun () ->
        let limbs =
          [ 0L; 1L; 0x12345678L; Int64.max_int; Int64.min_int;
            Int64.add Int64.min_int 1L; -2L; -1L ]
        in
        List.iter
          (fun x ->
            List.iter
              (fun y ->
                let a = U.of_int64 x and b = U.of_int64 y in
                Alcotest.(check int64) (print2 (a, b))
                  (bits (U.to_float (U.abs_difference a b)))
                  (bits (U.to_float_abs_difference a b)))
              limbs)
          limbs);
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"random one-limb pairs are bit-equal" ~count:1000
         ~long_factor:50 ~print:print2
         QCheck2.Gen.(
           map (fun (x, y) -> (U.of_int64 x, U.of_int64 y)) (pair int64 int64))
         (fun (a, b) ->
           bits (U.to_float_abs_difference a b) = bits (U.to_float (U.abs_difference a b))));
    prop_dist "cmp_dist matches the word-building definition" (fun (a, b) ->
        List.for_all
          (fun op ->
            let t, f = Evm.Interp.cmp_dist op a b and t', f' = reference_cmp_dist op a b in
            bits t = bits t' && bits f = bits f')
          Evm.Opcode.[ EQ; LT; GT; SLT; SGT ]);
  ]

let suite =
  [
    ("u256: conversions", conversions);
    ("u256: ring laws", ring_laws);
    ("u256: division", division);
    ("u256: comparison", comparison);
    ("u256: bitwise", bitwise);
    ("u256: model", model);
    ("u256: misc", misc);
    ("u256: distances", distances);
  ]
