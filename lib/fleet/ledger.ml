module J = Telemetry.Json

let format_tag = "mufuzz-fleet-ledger"

let current_version = 1

let file = "fleet-ledger.json"

type state =
  | Pending
  | Leased of { l_worker : int }
  | Done of { d_contracts : int; d_failed : int }

type t = {
  lg_manifest_hash : string;
  lg_config_digest : string;
  lg_states : state array;
  lg_reassignments : int;
}

let create ~manifest_hash ~config_digest ~shards =
  if shards < 1 then invalid_arg "Ledger.create: shards must be >= 1";
  {
    lg_manifest_hash = manifest_hash;
    lg_config_digest = config_digest;
    lg_states = Array.make shards Pending;
    lg_reassignments = 0;
  }

let shards t = Array.length t.lg_states

let state t k = t.lg_states.(k)

let set t k s =
  let states = Array.copy t.lg_states in
  states.(k) <- s;
  { t with lg_states = states }

let done_count t =
  Array.fold_left
    (fun n -> function Done _ -> n + 1 | _ -> n)
    0 t.lg_states

let all_done t = done_count t = shards t

(* Startup after a crash: every lease belongs to a process that no
   longer exists (the driver owns all workers), so put them back. *)
let reclaim_all t =
  let reclaimed = ref 0 in
  let states =
    Array.map
      (function
        | Leased _ ->
          incr reclaimed;
          Pending
        | s -> s)
      t.lg_states
  in
  ( { t with
      lg_states = states;
      lg_reassignments = t.lg_reassignments + !reclaimed;
    },
    !reclaimed )

let acquire t ~worker =
  let rec find k =
    if k >= shards t then None
    else
      match t.lg_states.(k) with
      | Pending -> Some (set t k (Leased { l_worker = worker }), k)
      | _ -> find (k + 1)
  in
  find 0

let mark_done t ~shard ~contracts ~failed =
  set t shard (Done { d_contracts = contracts; d_failed = failed })

(* A worker died mid-shard: its lease returns to the pool and the next
   acquire replays the shard (from the worker's progress checkpoint). *)
let mark_pending t ~shard =
  { (set t shard Pending) with lg_reassignments = t.lg_reassignments + 1 }

let state_json = function
  | Pending -> J.Obj [ ("state", J.String "pending") ]
  | Leased { l_worker } ->
    J.Obj [ ("state", J.String "leased"); ("worker", J.Int l_worker) ]
  | Done { d_contracts; d_failed } ->
    J.Obj
      [
        ("state", J.String "done");
        ("contracts", J.Int d_contracts);
        ("failed", J.Int d_failed);
      ]

let to_json t =
  J.Obj
    [
      ("format", J.String format_tag);
      ("version", J.Int current_version);
      ("manifest_hash", J.String t.lg_manifest_hash);
      ("config_digest", J.String t.lg_config_digest);
      ("reassignments", J.Int t.lg_reassignments);
      ("shards", J.List (Array.to_list (Array.map state_json t.lg_states)));
    ]

let state_of_json json =
  let open J.Decode in
  let* tag = field "state" string json in
  match tag with
  | "pending" -> Ok Pending
  | "leased" ->
    let* l_worker = field "worker" int json in
    Ok (Leased { l_worker })
  | "done" ->
    let* d_contracts = field "contracts" int json in
    let* d_failed = field "failed" int json in
    Ok (Done { d_contracts; d_failed })
  | other -> Error (Printf.sprintf "unknown shard state %S" other)

let of_json json =
  let open J.Decode in
  let* () = header ~format:format_tag ~version:current_version json in
  let* lg_manifest_hash = field "manifest_hash" string json in
  let* lg_config_digest = field "config_digest" string json in
  let* lg_reassignments = field "reassignments" int json in
  let* states = field "shards" (list state_of_json) json in
  if states = [] then Error "shards: empty list"
  else
    Ok
      {
        lg_manifest_hash;
        lg_config_digest;
        lg_states = Array.of_list states;
        lg_reassignments;
      }

let save ~dir t =
  Util.Fileio.write_atomic (Filename.concat dir file)
    (J.to_string (to_json t) ^ "\n")

let load ~dir =
  let path = Filename.concat dir file in
  if not (Sys.file_exists path) then Ok None
  else
    match Util.Fileio.read_file path with
    | exception Sys_error e -> Error e
    | content ->
      Result.bind (J.of_string (String.trim content)) of_json
      |> Result.map Option.some
      |> Result.map_error (Printf.sprintf "%s: %s" path)
