(* Deterministic repro artifacts: one finding, frozen as a versioned
   JSON document that replays without the campaign that produced it.

   The artifact embeds the full Minisol source (so a checked-in corpus
   is self-contained) plus its Keccak-256, which [of_json] re-verifies —
   an artifact whose source was edited without re-shrinking is rejected
   rather than silently replayed against a different program. *)

module J = Telemetry.Json

let format_tag = "mufuzz-repro"

let current_version = 1

type t = {
  contract : Minisol.Contract.t;
  finding : Oracles.Oracle.finding;
  path_hash : string;
  gas_per_tx : int;
  n_senders : int;
  attacker : bool;
  seed : Mufuzz.Seed.t;
}

let source_hash (c : Minisol.Contract.t) = Crypto.Keccak.hash_hex c.source

let key t =
  {
    Oracles.Oracle.k_cls = t.finding.cls;
    k_pc = t.finding.pc;
    k_path = t.path_hash;
  }

let make ~contract ~gas_per_tx ~n_senders ~attacker
    ~(finding : Oracles.Oracle.finding) ~seed =
  {
    contract;
    finding;
    path_hash =
      Oracles.Oracle.path_hash
        (Mufuzz.Seed.call_path seed ~upto:finding.tx_index);
    gas_per_tx;
    n_senders;
    attacker;
    seed;
  }

let file_name t =
  Printf.sprintf "%s_%s_%d_%s.json" t.contract.name
    (Oracles.Oracle.class_to_string t.finding.cls)
    t.finding.pc t.path_hash

(* Field order is fixed here; [J.to_string] preserves it, so equal
   artifacts render byte-identically (the repro determinism contract). *)
let to_json t =
  J.Obj
    [
      ("format", J.String format_tag);
      ("version", J.Int current_version);
      ("contract", J.String t.contract.name);
      ("source_hash", J.String (source_hash t.contract));
      ("oracle", J.String (Oracles.Oracle.class_to_string t.finding.cls));
      ("pc", J.Int t.finding.pc);
      ("tx_index", J.Int t.finding.tx_index);
      ("detail", J.String t.finding.detail);
      ("path_hash", J.String t.path_hash);
      ("gas_per_tx", J.Int t.gas_per_tx);
      ("n_senders", J.Int t.n_senders);
      ("attacker", J.Bool t.attacker);
      ("txs", Mufuzz.Seed.to_json t.seed);
      ("source", J.String t.contract.source);
    ]

let to_string t = J.to_string (to_json t)

let of_json json =
  let open J.Decode in
  let* () = header ~format:format_tag ~version:current_version json in
  let* name = field "contract" string json in
  let* source_hash = field "source_hash" string json in
  let* source = field "source" string json in
  let* contract = Minisol.Contract.of_embedded ~name ~source_hash ~source in
  let* cls =
    field "oracle"
      (fun j ->
        let* s = string j in
        Option.to_result ~none:(Printf.sprintf "unknown oracle class %S" s)
          (Oracles.Oracle.class_of_string s))
      json
  in
  let* pc = field "pc" int json in
  let* tx_index = field "tx_index" int json in
  let* detail = field "detail" string json in
  let* path_hash = field "path_hash" string json in
  let* gas_per_tx = field "gas_per_tx" int json in
  let* n_senders = field "n_senders" int json in
  let* attacker = field "attacker" bool json in
  let* seed = field "txs" (Mufuzz.Seed.of_json ~abi:contract.abi) json in
  Ok
    {
      contract;
      finding = { Oracles.Oracle.cls; pc; tx_index; detail };
      path_hash;
      gas_per_tx;
      n_senders;
      attacker;
      seed;
    }

let of_string s = Result.bind (J.of_string s) of_json

let save path t = Util.Fileio.write_atomic path (to_string t ^ "\n")

let load path =
  match Util.Fileio.read_file path with
  | exception Sys_error m -> Error m
  | content -> of_string (String.trim content)
