module U = Word.U256

type tx = { fn : Abi.func; stream : string; sender : int }

type t = { txs : tx list }

let stream_length (fn : Abi.func) = Abi.args_byte_length fn + 32

let args_part tx = String.sub tx.stream 0
    (Stdlib.min (Abi.args_byte_length tx.fn) (String.length tx.stream))

let tx_value tx =
  let alen = Abi.args_byte_length tx.fn in
  let n = String.length tx.stream in
  if n <= alen then U.zero
  else begin
    let avail = Stdlib.min 32 (n - alen) in
    U.of_bytes_be (String.sub tx.stream alen avail)
  end

let tx_calldata tx = Abi.encode_args_raw tx.fn (args_part tx)

let make_tx fn ~sender ~args ~value =
  let alen = Abi.args_byte_length fn in
  let args =
    if String.length args >= alen then String.sub args 0 alen
    else args ^ String.make (alen - String.length args) '\000'
  in
  { fn; stream = args ^ U.to_bytes_be value; sender }

let finney_word = U.of_decimal_string "1000000000000000"
let ether_word = U.of_decimal_string "1000000000000000000"

(* Boundary dictionary for initial word generation. *)
let interesting_words =
  lazy
    (let ether n = U.mul (U.of_int n) ether_word in
     let finney n = U.mul (U.of_int n) finney_word in
     [| U.zero; U.one; U.of_int 2; U.of_int 10; U.of_int 100; U.of_int 255;
        U.of_int 256; U.of_int 1024; U.of_int 65535;
        ether 1; ether 10; ether 100; finney 1; finney 100;
        U.sub (U.shift_left U.one 128) U.one;
        U.sub (U.shift_left U.one 255) U.one;
        U.max_value;
        U.sub U.max_value U.one |])

let random_word rng =
  let dict = Lazy.force interesting_words in
  match Util.Rng.int rng 4 with
  | 0 -> Util.Rng.choose rng dict
  | 1 -> U.of_int (Util.Rng.int rng 1024)
  | 2 ->
    (* small perturbation of a dictionary word *)
    let base = Util.Rng.choose rng dict in
    let delta = U.of_int (Util.Rng.int rng 8) in
    if Util.Rng.bool rng then U.add base delta else U.sub base delta
  | _ -> U.of_bytes_be (Bytes.to_string (Util.Rng.bytes rng 32))

let random_value rng =
  (* msg.value: keep mostly realistic amounts so transfers fund *)
  match Util.Rng.int rng 5 with
  | 0 -> U.zero
  | 1 -> U.of_int (Util.Rng.int rng 1000)
  | 2 -> U.mul (U.of_int (1 + Util.Rng.int rng 200)) finney_word
  | 3 -> U.mul (U.of_int (1 + Util.Rng.int rng 200)) ether_word
  | _ -> Util.Rng.choose rng (Lazy.force interesting_words)

let random_word_for ?(dict = [||]) rng ~n_senders (ty : Abi.ty) =
  match ty with
  | Abi.Address when Util.Rng.int rng 10 < 7 ->
    (* addresses that exist in the campaign's account universe *)
    Util.Rng.choose_list rng (Accounts.address_dictionary n_senders)
  | Abi.Bool -> if Util.Rng.bool rng then U.one else U.zero
  | Abi.Uint8 -> U.of_int (Util.Rng.int rng 256)
  | Abi.Address | Abi.Uint256 ->
    if Array.length dict > 0 && Util.Rng.int rng 4 = 0 then
      Util.Rng.choose rng dict
    else random_word rng

let random_tx ?(dict = [||]) rng ~n_senders (fn : Abi.func) =
  let args =
    String.concat ""
      (List.map
         (fun ty -> U.to_bytes_be (random_word_for ~dict rng ~n_senders ty))
         fn.Abi.inputs)
  in
  let value =
    if not fn.Abi.payable then U.zero
    else if Array.length dict > 0 && Util.Rng.int rng 4 = 0 then
      Util.Rng.choose rng dict
    else random_value rng
  in
  make_tx fn ~sender:(Util.Rng.int rng n_senders) ~args ~value

let of_sequence ?(dict = [||]) rng ~n_senders abi names =
  let find name =
    match List.find_opt (fun (f : Abi.func) -> f.Abi.name = name) abi with
    | Some f -> f
    | None -> invalid_arg (Printf.sprintf "Seed.of_sequence: unknown function %s" name)
  in
  { txs = List.map (fun name -> random_tx ~dict rng ~n_senders (find name)) names }

let with_tx t i tx = { txs = List.mapi (fun j old -> if j = i then tx else old) t.txs }

let call_path t ~upto =
  if upto < 0 then []
  else
    List.filteri (fun i _ -> i <= upto) t.txs
    |> List.map (fun tx -> tx.fn.Abi.name)

let pp fmt t =
  Format.fprintf fmt "[%s]"
    (String.concat " -> "
       (List.map
          (fun tx ->
            let args = Abi.decode_args tx.fn (args_part tx) in
            Printf.sprintf "%s(%s)%s by s%d" tx.fn.Abi.name
              (String.concat ", " (List.map Abi.value_to_string args))
              (let v = tx_value tx in
               if U.is_zero v then "" else " +" ^ U.to_decimal_string v ^ "wei")
              tx.sender)
          t.txs))

let show t = Format.asprintf "%a" pp t

(* ---------------- JSON codec (campaign checkpoints) ---------------- *)

module J = Telemetry.Json

let to_json t =
  J.List
    (List.map
       (fun tx ->
         J.Obj
           [
             ("fn", J.String tx.fn.Abi.name);
             ("sender", J.Int tx.sender);
             ("stream", J.String (Util.Hex.encode tx.stream));
           ])
       t.txs)

(* The one transaction resolver: the JSON codec below and the corpus
   line format ([Replay]) both decode a (function name, sender, hex
   stream) triple through it. *)
let resolve_tx ~abi ~name ~sender ~hex =
  match List.find_opt (fun (f : Abi.func) -> f.Abi.name = name) abi with
  | None -> Error (Printf.sprintf "unknown function %s" name)
  | Some _ when sender < 0 -> Error (Printf.sprintf "bad sender %d" sender)
  | Some fn -> (
    match Util.Hex.decode hex with
    | stream -> Ok { fn; sender; stream }
    | exception Invalid_argument m -> Error m)

let of_json ~abi j =
  let open J.Decode in
  let tx j =
    let* name = field "fn" string j in
    let* sender = field "sender" int j in
    let* hex = field "stream" string j in
    resolve_tx ~abi ~name ~sender ~hex
  in
  let* txs = list tx j in
  Ok { txs }
