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

open J.Decode

let branch j =
  let* pc = field "pc" int j in
  let* taken = field "taken" bool j in
  Ok (pc, taken)

let dist j =
  let* br = branch j in
  let* d = field "d" float j in
  Ok (br, d)

let entry ~abi j : (Mufuzz.Campaign.snapshot_entry, string) result =
  let* sn_seed = field "seed" (Mufuzz.Seed.of_json ~abi) j in
  let* sn_path = field "path" (list branch) j in
  let* sn_nested = field "nested" (list branch) j in
  let* sn_fdists = field "fdists" (list dist) j in
  let* sn_masks =
    field "masks"
      (list (fun mj ->
           let* tx = field "tx" int mj in
           let* m = field "mask" Mufuzz.Mask.of_json mj in
           Ok (tx, m)))
      j
  in
  Ok { Mufuzz.Campaign.sn_seed; sn_path; sn_nested; sn_fdists; sn_masks }

let oracle_class j =
  let* s = string j in
  Option.to_result ~none:(Printf.sprintf "unknown oracle class %S" s)
    (Oracles.Oracle.class_of_string s)

let finding ~abi j =
  let* cls = field "class" oracle_class j in
  let* pc = field "pc" int j in
  let* tx_index = field "tx_index" int j in
  let* detail = field "detail" string j in
  let* seed = field "seed" (Mufuzz.Seed.of_json ~abi) j in
  Ok ({ Oracles.Oracle.cls; pc; tx_index; detail }, seed)

let occ j =
  let* k_cls = field "class" oracle_class j in
  let* k_pc = field "pc" int j in
  let* k_path = field "path_hash" string j in
  let* count = field "count" int j in
  Ok ({ Oracles.Oracle.k_cls; k_pc; k_path }, count)

let snapshot ~abi j : (Mufuzz.Campaign.snapshot, string) result =
  let* sn_execs = field "execs" int j in
  let* sn_steps = field "steps" int j in
  let* sn_mask_probes = field "mask_probes" int j in
  let* sn_cursor = field "cursor" int j in
  let* sn_rng = field "rng" int64_decimal j in
  let* sn_rng_counter = field "rng_counter" int j in
  let* sn_elapsed = field "elapsed" float j in
  let* entries = field "entries" (list (entry ~abi)) j in
  let sn_entries = Array.of_list entries in
  let entry_index what j =
    let* i = int j in
    if i >= 0 && i < Array.length sn_entries then Ok i
    else Error (Printf.sprintf "%s entry index %d out of range" what i)
  in
  let* sn_queue = field "queue" (list (entry_index "queue")) j in
  let* sn_best =
    field "best"
      (list (fun bj ->
           let* br = branch bj in
           let* d = field "d" float bj in
           let* i = field "entry" (entry_index "best") bj in
           Ok (br, d, i)))
      j
  in
  let* sn_coverage = field "coverage" Mufuzz.Coverage.of_json j in
  let* sn_weights = field "weights" (nullable (list dist)) j in
  let* sn_findings = field "findings" (list (finding ~abi)) j in
  let* sn_occ = field "occ" (list occ) j in
  let* sn_over_time =
    field "over_time"
      (list (fun cj ->
           let* execs = field "execs" int cj in
           let* covered = field "covered" int cj in
           Ok { Mufuzz.Report.execs; covered }))
      j
  in
  let* sn_attempts =
    field "attempts"
      (list (fun aj ->
           let* br = branch aj in
           let* n = field "n" int aj in
           Ok (br, n)))
      j
  in
  let* sn_predict_proposals = field "predict_proposals" int j in
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
  let* () = header ~format:format_tag ~version:current_version json in
  let* tool = field "tool" string json in
  let* name = field "contract" string json in
  let* source_hash = field "source_hash" string json in
  let* source = field "source" string json in
  let* contract = Minisol.Contract.of_embedded ~name ~source_hash ~source in
  let* config = field "config" (Mufuzz.Config.of_json ~abi:contract.abi) json in
  let* snapshot = field "snapshot" (snapshot ~abi:contract.abi) json in
  Ok { tool; config; contract; snapshot }

let of_string s =
  Result.bind
    (Result.map_error (( ^ ) "corrupt checkpoint: ") (J.of_string s))
    of_json

let save path t = Util.Fileio.write_atomic path (to_string t ^ "\n")

let load path =
  match Util.Fileio.read_file path with
  | exception Sys_error m -> Error m
  | content -> of_string (String.trim content)
