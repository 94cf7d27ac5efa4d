(* The campaign checkpoint document: a versioned, self-describing JSON
   snapshot of everything a running campaign would lose on SIGKILL.

   Follows the repro-artifact precedent: the document embeds the full
   Minisol source plus its Keccak-256, which [of_json] re-verifies and
   recompiles — a checkpoint directory is self-contained, resumable on
   a machine that has never seen the original contract file. *)

module J = Telemetry.Json

let format_tag = "mufuzz-checkpoint"

(* v2 added the input-prediction flip-attempt counts ("attempts"), v3
   the prediction proposal counter ("predict_proposals"). Only v3 is
   read: both fields are required, and no reader holds older documents.
   Fields a v3 writer once added and this one no longer does (the
   retired round-batch controller's "round_batch" and "rb_votes") are
   ignored on read. *)
let current_version = 3

type t = {
  tool : string;
  config : Mufuzz.Config.t;
  contract : Minisol.Contract.t;
  snapshot : Mufuzz.Campaign.snapshot;
}

let source_hash (c : Minisol.Contract.t) = Crypto.Keccak.hash_hex c.source

(* ---------------- encoding ---------------- *)

let branch_json (pc, taken) =
  J.Obj [ ("pc", J.Int pc); ("taken", J.Bool taken) ]

let branches_json l = J.List (List.map branch_json l)

let dist_json ((pc, taken), d) =
  J.Obj [ ("pc", J.Int pc); ("taken", J.Bool taken); ("d", J.Float d) ]

let entry_json (se : Mufuzz.Campaign.snapshot_entry) =
  J.Obj
    [
      ("seed", Mufuzz.Seed.to_json se.sn_seed);
      ("path", branches_json se.sn_path);
      ("nested", branches_json se.sn_nested);
      ("fdists", J.List (List.map dist_json se.sn_fdists));
      ( "masks",
        J.List
          (List.map
             (fun (i, m) ->
               J.Obj [ ("tx", J.Int i); ("mask", Mufuzz.Mask.to_json m) ])
             se.sn_masks) );
    ]

let finding_json ((f : Oracles.Oracle.finding), seed) =
  J.Obj
    [
      ("class", J.String (Oracles.Oracle.class_to_string f.cls));
      ("pc", J.Int f.pc);
      ("tx_index", J.Int f.tx_index);
      ("detail", J.String f.detail);
      ("seed", Mufuzz.Seed.to_json seed);
    ]

let occ_json ((k : Oracles.Oracle.key), n) =
  J.Obj
    [
      ("class", J.String (Oracles.Oracle.class_to_string k.k_cls));
      ("pc", J.Int k.k_pc);
      ("path_hash", J.String k.k_path);
      ("count", J.Int n);
    ]

let snapshot_json (s : Mufuzz.Campaign.snapshot) =
  J.Obj
    [
      ("execs", J.Int s.sn_execs);
      ("steps", J.Int s.sn_steps);
      ("mask_probes", J.Int s.sn_mask_probes);
      ("cursor", J.Int s.sn_cursor);
      (* int64 RNG state exceeds the 63-bit [J.Int] range *)
      ("rng", J.String (Int64.to_string s.sn_rng));
      ("rng_counter", J.Int s.sn_rng_counter);
      ("elapsed", J.Float s.sn_elapsed);
      ("entries", J.List (Array.to_list (Array.map entry_json s.sn_entries)));
      ("queue", J.List (List.map (fun i -> J.Int i) s.sn_queue));
      ( "best",
        J.List
          (List.map
             (fun ((pc, taken), d, i) ->
               J.Obj
                 [
                   ("pc", J.Int pc);
                   ("taken", J.Bool taken);
                   ("d", J.Float d);
                   ("entry", J.Int i);
                 ])
             s.sn_best) );
      ("coverage", Mufuzz.Coverage.to_json s.sn_coverage);
      ( "weights",
        match s.sn_weights with
        | None -> J.Null
        | Some ws -> J.List (List.map dist_json ws) );
      ("findings", J.List (List.map finding_json s.sn_findings));
      ("occ", J.List (List.map occ_json s.sn_occ));
      ( "over_time",
        J.List
          (List.map
             (fun (cp : Mufuzz.Report.checkpoint) ->
               J.Obj [ ("execs", J.Int cp.execs); ("covered", J.Int cp.covered) ])
             s.sn_over_time) );
      ( "attempts",
        J.List
          (List.map
             (fun ((pc, taken), n) ->
               J.Obj
                 [ ("pc", J.Int pc); ("taken", J.Bool taken); ("n", J.Int n) ])
             s.sn_attempts) );
      ("predict_proposals", J.Int s.sn_predict_proposals);
    ]

(* Field order is fixed; [J.to_string] preserves it, so equal
   checkpoints render byte-identically. The (large) source string goes
   last to keep the head of the file human-greppable. *)
let to_json t =
  J.Obj
    [
      ("format", J.String format_tag);
      ("version", J.Int current_version);
      ("tool", J.String t.tool);
      ("contract", J.String t.contract.name);
      ("source_hash", J.String (source_hash t.contract));
      ("config", Mufuzz.Config.to_json t.config);
      ("snapshot", snapshot_json t.snapshot);
      ("source", J.String t.contract.source);
    ]

let to_string t = J.to_string (to_json t)

(* ---------------- decoding ---------------- *)

let ( let* ) = Result.bind

let field name conv json =
  match Option.bind (J.member name json) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)

let map_result f l =
  List.fold_left
    (fun acc x ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    (Ok []) l
  |> Result.map List.rev

let branch_of_json j =
  let* pc = field "pc" J.to_int j in
  let* taken = field "taken" J.to_bool j in
  Ok (pc, taken)

let dist_of_json j =
  let* br = branch_of_json j in
  let* d = field "d" J.to_float j in
  Ok (br, d)

let entry_of_json ~abi j : (Mufuzz.Campaign.snapshot_entry, string) result =
  let* seed = Result.bind (field "seed" Option.some j) (Mufuzz.Seed.of_json ~abi) in
  let* path = Result.bind (field "path" J.to_list j) (map_result branch_of_json) in
  let* nested =
    Result.bind (field "nested" J.to_list j) (map_result branch_of_json)
  in
  let* fdists =
    Result.bind (field "fdists" J.to_list j) (map_result dist_of_json)
  in
  let* masks =
    Result.bind
      (field "masks" J.to_list j)
      (map_result (fun mj ->
           let* tx = field "tx" J.to_int mj in
           let* m =
             Result.bind (field "mask" Option.some mj) Mufuzz.Mask.of_json
           in
           Ok (tx, m)))
  in
  Ok
    {
      Mufuzz.Campaign.sn_seed = seed;
      sn_path = path;
      sn_nested = nested;
      sn_fdists = fdists;
      sn_masks = masks;
    }

let class_of_json j =
  let* s = field "class" J.string_value j in
  match Oracles.Oracle.class_of_string s with
  | Some c -> Ok c
  | None -> Error (Printf.sprintf "unknown oracle class %S" s)

let finding_of_json ~abi j =
  let* cls = class_of_json j in
  let* pc = field "pc" J.to_int j in
  let* tx_index = field "tx_index" J.to_int j in
  let* detail = field "detail" J.string_value j in
  let* seed = Result.bind (field "seed" Option.some j) (Mufuzz.Seed.of_json ~abi) in
  Ok ({ Oracles.Oracle.cls; pc; tx_index; detail }, seed)

let occ_of_json j =
  let* k_cls = class_of_json j in
  let* k_pc = field "pc" J.to_int j in
  let* k_path = field "path_hash" J.string_value j in
  let* count = field "count" J.to_int j in
  Ok ({ Oracles.Oracle.k_cls; k_pc; k_path }, count)

let snapshot_of_json ~abi j : (Mufuzz.Campaign.snapshot, string) result =
  let* sn_execs = field "execs" J.to_int j in
  let* sn_steps = field "steps" J.to_int j in
  let* sn_mask_probes = field "mask_probes" J.to_int j in
  let* sn_cursor = field "cursor" J.to_int j in
  let* sn_rng =
    let* s = field "rng" J.string_value j in
    match Int64.of_string_opt s with
    | Some v -> Ok v
    | None -> Error "rng state is not a 64-bit decimal"
  in
  let* sn_rng_counter = field "rng_counter" J.to_int j in
  let* sn_elapsed = field "elapsed" J.to_float j in
  let* entries =
    Result.bind (field "entries" J.to_list j) (map_result (entry_of_json ~abi))
  in
  let sn_entries = Array.of_list entries in
  let n = Array.length sn_entries in
  let valid_id i = i >= 0 && i < n in
  let* sn_queue =
    Result.bind
      (field "queue" J.to_list j)
      (map_result (fun ij ->
           match J.to_int ij with
           | Some i when valid_id i -> Ok i
           | Some i -> Error (Printf.sprintf "queue entry index %d out of range" i)
           | None -> Error "ill-typed queue entry"))
  in
  let* sn_best =
    Result.bind
      (field "best" J.to_list j)
      (map_result (fun bj ->
           let* br = branch_of_json bj in
           let* d = field "d" J.to_float bj in
           let* i = field "entry" J.to_int bj in
           if valid_id i then Ok (br, d, i)
           else Error (Printf.sprintf "best entry index %d out of range" i)))
  in
  let* sn_coverage =
    Result.bind (field "coverage" Option.some j) Mufuzz.Coverage.of_json
  in
  let* sn_weights =
    match J.member "weights" j with
    | Some J.Null -> Ok None
    | Some (J.List ws) -> Result.map Option.some (map_result dist_of_json ws)
    | Some _ -> Error "ill-typed field \"weights\""
    | None -> Error "missing field \"weights\""
  in
  let* sn_findings =
    Result.bind (field "findings" J.to_list j) (map_result (finding_of_json ~abi))
  in
  let* sn_occ = Result.bind (field "occ" J.to_list j) (map_result occ_of_json) in
  let* sn_over_time =
    Result.bind
      (field "over_time" J.to_list j)
      (map_result (fun cj ->
           let* execs = field "execs" J.to_int cj in
           let* covered = field "covered" J.to_int cj in
           Ok { Mufuzz.Report.execs; covered }))
  in
  let* sn_attempts =
    Result.bind
      (field "attempts" J.to_list j)
      (map_result (fun aj ->
           let* br = branch_of_json aj in
           let* n = field "n" J.to_int aj in
           Ok (br, n)))
  in
  let* sn_predict_proposals = field "predict_proposals" J.to_int j in
  Ok
    {
      Mufuzz.Campaign.sn_execs;
      sn_steps;
      sn_mask_probes;
      sn_cursor;
      sn_rng;
      sn_rng_counter;
      sn_elapsed;
      sn_entries;
      sn_queue;
      sn_best;
      sn_coverage;
      sn_weights;
      sn_findings;
      sn_occ;
      sn_over_time;
      sn_attempts;
      sn_predict_proposals;
    }

let of_json json =
  let* fmt = field "format" J.string_value json in
  let* () =
    if fmt = format_tag then Ok ()
    else Error (Printf.sprintf "not a %s document (format=%S)" format_tag fmt)
  in
  let* version = field "version" J.to_int json in
  let* () =
    if version = current_version then Ok ()
    else
      Error
        (Printf.sprintf "checkpoint version %d not supported (only %d)" version
           current_version)
  in
  let* tool = field "tool" J.string_value json in
  let* name = field "contract" J.string_value json in
  let* src_hash = field "source_hash" J.string_value json in
  let* source = field "source" J.string_value json in
  let* () =
    let actual = Crypto.Keccak.hash_hex source in
    if actual = src_hash then Ok ()
    else
      Error
        (Printf.sprintf
           "embedded source hash mismatch: recorded %s, actual %s (source \
            edited after the checkpoint was written?)"
           src_hash actual)
  in
  let* contract =
    match Minisol.Contract.compile source with
    | c -> Ok c
    | exception _ -> Error "embedded source does not compile"
  in
  let* () =
    if contract.name = name then Ok ()
    else
      Error
        (Printf.sprintf
           "contract name mismatch: checkpoint says %S, source declares %S"
           name contract.name)
  in
  let* config =
    Result.bind (field "config" Option.some json)
      (Mufuzz.Config.of_json ~abi:contract.abi)
  in
  let* snapshot =
    Result.bind (field "snapshot" Option.some json)
      (snapshot_of_json ~abi:contract.abi)
  in
  Ok { tool; config; contract; snapshot }

let of_string s =
  let* json =
    match J.of_string s with
    | Ok j -> Ok j
    | Error e -> Error (Printf.sprintf "corrupt checkpoint: %s" e)
  in
  of_json json

let save path t = Util.Fileio.write_atomic path (to_string t ^ "\n")

let load path =
  match Util.Fileio.read_file path with
  | exception Sys_error m -> Error m
  | content -> of_string (String.trim content)
