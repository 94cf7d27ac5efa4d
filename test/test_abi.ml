(* ABI encoding: selectors, argument round-trips, canonicalisation. *)

module U = Word.U256

let unit name f = Alcotest.test_case name `Quick f

let fn name inputs = { Abi.name; inputs; payable = false; is_constructor = false }

let tests =
  [
    unit "signature rendering" (fun () ->
        Alcotest.(check string) "sig" "transfer(address,uint256)"
          (Abi.signature (fn "transfer" [ Abi.Address; Abi.Uint256 ])));
    unit "selector is canonical keccak prefix" (fun () ->
        Alcotest.(check string) "sel" "a9059cbb"
          (Util.Hex.encode (Abi.selector (fn "transfer" [ Abi.Address; Abi.Uint256 ]))));
    unit "encode_call layout" (fun () ->
        let f = fn "f" [ Abi.Uint256; Abi.Bool ] in
        let data = Abi.encode_call f [ Abi.VUint (U.of_int 7); Abi.VBool true ] in
        Alcotest.(check int) "len" (4 + 64) (String.length data);
        Alcotest.(check string) "arg1 tail byte" "\x07"
          (String.sub data 35 1);
        Alcotest.(check string) "bool" "\x01" (String.sub data 67 1));
    unit "encode_call arity mismatch" (fun () ->
        Alcotest.check_raises "arity"
          (Invalid_argument "Abi.encode_call: arity mismatch") (fun () ->
            ignore (Abi.encode_call (fn "f" [ Abi.Uint256 ]) [])));
    unit "decode_args inverts encode" (fun () ->
        let f = fn "g" [ Abi.Uint256; Abi.Address; Abi.Bool ] in
        let vals =
          [ Abi.VUint (U.of_int 123456789); Abi.VAddress (U.of_int 0xabcdef);
            Abi.VBool false ]
        in
        let data = Abi.encode_call f vals in
        let args_part = String.sub data 4 (String.length data - 4) in
        Alcotest.(check (list string)) "roundtrip"
          (List.map Abi.value_to_string vals)
          (List.map Abi.value_to_string (Abi.decode_args f args_part)));
    unit "canonicalize uint8 masks to low byte" (fun () ->
        Alcotest.(check string) "low byte" "255"
          (U.to_decimal_string (Abi.canonicalize_word Abi.Uint8 (U.of_int 0xFFF))));
    unit "canonicalize address keeps low 160 bits" (fun () ->
        let w = U.max_value in
        let a = Abi.canonicalize_word Abi.Address w in
        Alcotest.(check int) "bits" 160 (U.bit_length a));
    unit "canonicalize bool is 0/1" (fun () ->
        Alcotest.(check string) "1" "1"
          (U.to_decimal_string (Abi.canonicalize_word Abi.Bool (U.of_int 77)));
        Alcotest.(check string) "0" "0"
          (U.to_decimal_string (Abi.canonicalize_word Abi.Bool U.zero)));
    unit "encode_args_raw pads short streams" (fun () ->
        let f = fn "h" [ Abi.Uint256; Abi.Uint256 ] in
        let data = Abi.encode_args_raw f "\x01" in
        Alcotest.(check int) "len" (4 + 64) (String.length data);
        (* the single byte becomes the high byte of the first word *)
        Alcotest.(check char) "first" '\x01' data.[4]);
    unit "encode_args_raw canonicalises each word" (fun () ->
        let f = fn "h" [ Abi.Bool ] in
        let data = Abi.encode_args_raw f (String.make 32 '\xff') in
        (* bool word must canonicalise to exactly one *)
        Alcotest.(check string) "word is one" (U.to_decimal_string U.one)
          (U.to_decimal_string (U.of_bytes_be (String.sub data 4 32))));
    unit "args_byte_length" (fun () ->
        Alcotest.(check int) "2 args" 64
          (Abi.args_byte_length (fn "f" [ Abi.Uint256; Abi.Address ])));
  ]

(* The encoder [Abi.encode_args_raw] had before it wrote into one
   buffer: each argument word is padded out with [String.init], read as a
   word, canonicalised and written back, after a selector taken from the
   formatted signature. *)
let encode_args_raw_model (f : Abi.func) raw =
  let buf = Buffer.create (4 + Abi.args_byte_length f) in
  Buffer.add_string buf (Crypto.Keccak.selector (Abi.signature f));
  List.iteri
    (fun i ty ->
      let word =
        String.init Abi.word_size (fun j ->
            let k = (i * Abi.word_size) + j in
            if k < String.length raw then raw.[k] else '\000')
      in
      Buffer.add_string buf (U.to_bytes_be (Abi.canonicalize_word ty (U.of_bytes_be word))))
    f.inputs;
  Buffer.contents buf

let gen_ty = QCheck2.Gen.oneofl [ Abi.Uint256; Abi.Uint8; Abi.Address; Abi.Bool ]

(* Raw streams built word by word from the canonicalisation edge cases,
   all-zero words and words with one non-zero byte (Bool, Uint8, the
   Address boundary) beside random ones, then cut at any length up to
   past the arguments, so streams also end inside a word. *)
let gen_raw n_inputs =
  QCheck2.Gen.(
    let sparse_word =
      map2
        (fun pos c -> String.init Abi.word_size (fun j -> if j = pos then c else '\000'))
        (int_range 0 (Abi.word_size - 1)) (char_range '\001' '\255')
    in
    let word =
      frequency
        [ (1, return (String.make Abi.word_size '\000'));
          (2, sparse_word);
          (2, string_size ~gen:char (return Abi.word_size)) ]
    in
    map2
      (fun words len ->
        let s = String.concat "" words in
        String.sub s 0 (Stdlib.min len (String.length s)))
      (list_repeat (n_inputs + 2) word)
      (int_range 0 ((Abi.word_size * n_inputs) + 40)))

let gen_func_raw =
  QCheck2.Gen.(
    pair (oneofl [ "f"; "transfer"; "g2" ]) (list_size (int_range 0 6) gen_ty)
    >>= fun (name, inputs) ->
    map (fun raw -> (fn name inputs, raw)) (gen_raw (List.length inputs)))

let print_func_raw ((f : Abi.func), raw) =
  Printf.sprintf "%s raw=%s" (Abi.signature f) (Util.Hex.encode raw)

let equivalence =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"encode_args_raw matches the word-by-word encoder"
         ~count:1000 ~long_factor:50 ~print:print_func_raw gen_func_raw (fun (f, raw) ->
           String.equal (Abi.encode_args_raw f raw) (encode_args_raw_model f raw)));
    unit "selector memo: equal content, physically distinct funcs" (fun () ->
        (* built at run time so the records are not shared constants *)
        let mk () = fn (String.concat "" [ "trans"; "fer" ]) [ Abi.Address; Abi.Uint256 ] in
        let a = mk () and b = { (mk ()) with payable = true } in
        Alcotest.(check bool) "distinct records" false (a == b);
        let sa = Abi.selector a and sb = Abi.selector b in
        Alcotest.(check string) "first" "a9059cbb" (Util.Hex.encode sa);
        Alcotest.(check string) "second" "a9059cbb" (Util.Hex.encode sb);
        (* the second lookup is served from the entry the first one made *)
        Alcotest.(check bool) "one memo entry" true (sa == sb));
    unit "selector memo: same name, different inputs" (fun () ->
        let sel inputs = Abi.selector (fn "f" inputs) in
        let sigs =
          [ []; [ Abi.Uint256 ]; [ Abi.Uint8 ]; [ Abi.Address ]; [ Abi.Bool ];
            [ Abi.Uint256; Abi.Bool ]; [ Abi.Bool; Abi.Uint256 ] ]
        in
        (* twice, so the second round reads the memo *)
        for _ = 1 to 2 do
          List.iter
            (fun inputs ->
              Alcotest.(check string)
                (Abi.signature (fn "f" inputs))
                (Crypto.Keccak.selector (Abi.signature (fn "f" inputs)))
                (sel inputs))
            sigs
        done;
        let distinct = List.sort_uniq String.compare (List.map sel sigs) in
        Alcotest.(check int) "all distinct" (List.length sigs) (List.length distinct));
    unit "selector memo stays correct past its size cap" (fun () ->
        let f i = fn (Printf.sprintf "fn%d" i) [ Abi.Uint256 ] in
        for i = 0 to 2500 do
          ignore (Abi.selector (f i))
        done;
        List.iter
          (fun i ->
            Alcotest.(check string) (string_of_int i)
              (Crypto.Keccak.selector (Abi.signature (f i)))
              (Abi.selector (f i)))
          [ 0; 1023; 1024; 2500 ]);
  ]

let suite = [ ("abi", tests); ("abi: encoder model", equivalence) ]
