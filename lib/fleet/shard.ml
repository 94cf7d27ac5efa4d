module J = Telemetry.Json

let format_tag = "mufuzz-fleet-shard"

let manifest_tag = "mufuzz-fleet-manifest"

let current_version = 1

let manifest_file = "fleet-manifest.json"

let shard_file k = Printf.sprintf "fleet-shard-%04d.jsonl" k

type entry = { name : string; source : string }

type shard_info = { si_file : string; si_count : int; si_hash : string }

type manifest = { m_total : int; m_shards : shard_info list }

let shards m = List.length m.m_shards

let source_hash source = Crypto.Keccak.hash_hex source

(* The shard's identity: Keccak over the concatenated per-entry source
   hashes, in order. O(count) bytes of hex, never the sources
   themselves. *)
let entries_hash hashes =
  let buf = Buffer.create (64 * List.length hashes) in
  List.iter (Buffer.add_string buf) (List.rev hashes);
  Crypto.Keccak.hash_hex (Buffer.contents buf)

let header_json ~shard ~count =
  J.Obj
    [
      ("format", J.String format_tag);
      ("version", J.Int current_version);
      ("shard", J.Int shard);
      ("count", J.Int count);
    ]

let entry_json e =
  J.Obj
    [
      ("name", J.String e.name);
      ("source", J.String e.source);
      ("source_hash", J.String (source_hash e.source));
    ]

let manifest_json m =
  J.Obj
    [
      ("format", J.String manifest_tag);
      ("version", J.Int current_version);
      ("total", J.Int m.m_total);
      ( "shards",
        J.List
          (List.map
             (fun s ->
               J.Obj
                 [
                   ("file", J.String s.si_file);
                   ("count", J.Int s.si_count);
                   ("entries_hash", J.String s.si_hash);
                 ])
             m.m_shards) );
    ]

(* Balanced contiguous slicing: shard k holds entry indices
   [k*total/K, (k+1)*total/K) — deterministic, so a re-sharded corpus
   with the same (total, K) reproduces the same assignment. *)
let bounds ~total ~shards k = (k * total / shards, (k + 1) * total / shards)

let write ~dir ~shards ~total seq =
  if shards < 1 then invalid_arg "Shard.write: shards must be >= 1";
  if total < 0 then invalid_arg "Shard.write: negative total";
  Util.Fileio.mkdirs dir;
  let rest = ref seq in
  let next () =
    match !rest () with
    | Seq.Nil -> invalid_arg "Shard.write: sequence shorter than total"
    | Seq.Cons (e, tail) ->
      rest := tail;
      e
  in
  let infos =
    List.init shards (fun k ->
        let start, stop = bounds ~total ~shards k in
        let count = stop - start in
        let file = shard_file k in
        let hashes = ref [] in
        Util.Fileio.with_atomic_out (Filename.concat dir file) (fun oc ->
            output_string oc (J.to_string (header_json ~shard:k ~count));
            output_char oc '\n';
            for _ = 1 to count do
              let e = next () in
              hashes := source_hash e.source :: !hashes;
              output_string oc (J.to_string (entry_json e));
              output_char oc '\n'
            done);
        { si_file = file; si_count = count; si_hash = entries_hash !hashes })
  in
  let m = { m_total = total; m_shards = infos } in
  Util.Fileio.write_atomic
    (Filename.concat dir manifest_file)
    (J.to_string (manifest_json m) ^ "\n");
  m

let write_list ~dir ~shards entries =
  write ~dir ~shards ~total:(List.length entries) (List.to_seq entries)

(* ---------------- reading ---------------- *)

open J.Decode

let load_manifest dir =
  let path = Filename.concat dir manifest_file in
  let* content =
    try Ok (Util.Fileio.read_file path)
    with Sys_error e -> Error (Printf.sprintf "%s: %s" path e)
  in
  let shard_info j =
    let* si_file = field "file" string j in
    let* si_count = field "count" int j in
    let* si_hash = field "entries_hash" string j in
    Ok { si_file; si_count; si_hash }
  in
  Result.map_error (Printf.sprintf "%s: %s" path)
    (let* json = J.of_string (String.trim content) in
     let* () = header ~format:manifest_tag ~version:current_version json in
     let* total = field "total" int json in
     let* infos = field "shards" (list shard_info) json in
     let counted = List.fold_left (fun n s -> n + s.si_count) 0 infos in
     if counted <> total then
       Error
         (Printf.sprintf "shard counts sum to %d, manifest total says %d"
            counted total)
     else Ok { m_total = total; m_shards = infos })

let manifest_digest dir =
  let path = Filename.concat dir manifest_file in
  try Ok (Crypto.Keccak.hash_hex (Util.Fileio.read_file path))
  with Sys_error e -> Error (Printf.sprintf "%s: %s" path e)

let parse_entry json =
  let* name = field "name" string json in
  let* source = field "source" string json in
  let* expected = field "source_hash" string json in
  let actual = source_hash source in
  if actual <> expected then
    Error
      (Printf.sprintf "entry %S: source hash mismatch (want %s, got %s)" name
         expected actual)
  else Ok ({ name; source }, actual)

(* Streaming fold: exactly one entry is live at a time — the reader
   materialises a line, hands the decoded entry to [f], and drops it.
   Caller exceptions propagate (the worker's interrupt hook relies on
   that); codec violations come back as [Error]. *)
let fold ~dir ~shard ~manifest ~init ~f =
  match List.nth_opt manifest.m_shards shard with
  | None ->
    Error
      (Printf.sprintf "shard %d out of range (manifest has %d)" shard
         (shards manifest))
  | Some info -> (
    let path = Filename.concat dir info.si_file in
    let fail fmt = Printf.ksprintf (fun s -> Error (path ^ ": " ^ s)) fmt in
    match open_in_bin path with
    | exception Sys_error e -> Error e
    | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let read_line what =
            match input_line ic with
            | line -> Ok line
            | exception End_of_file -> fail "truncated: missing %s" what
            | exception Sys_error e -> fail "%s" e
          in
          let* header_line = read_line "header line" in
          let* k, count =
            Result.map_error (Printf.sprintf "%s: header: %s" path)
              (let* h = J.of_string header_line in
               let* () = header ~format:format_tag ~version:current_version h in
               let* k = field "shard" int h in
               let* count = field "count" int h in
               Ok (k, count))
          in
          if k <> shard then fail "header names shard %d, expected %d" k shard
          else if count <> info.si_count then
            fail "header count %d disagrees with manifest count %d" count
              info.si_count
          else begin
            let hashes = ref [] in
            let rec loop acc i =
              if i >= count then Ok acc
              else
                let* line = read_line (Printf.sprintf "entry %d of %d" i count) in
                let* entry, hash =
                  Result.map_error
                    (Printf.sprintf "%s: line %d: %s" path (i + 2))
                    (Result.bind (J.of_string line) parse_entry)
                in
                hashes := hash :: !hashes;
                loop (f acc i entry) (i + 1)
            in
            let* acc = loop init 0 in
            let computed = entries_hash !hashes in
            if computed <> info.si_hash then
              fail "entries hash mismatch (manifest %s, file %s)" info.si_hash
                computed
            else
              match input_line ic with
              | _ -> fail "trailing data after %d entries" count
              | exception End_of_file -> Ok acc
          end))
