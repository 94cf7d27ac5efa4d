type t =
  | Exec_completed of { worker : int; fresh : bool }
  | New_branch_side of { pc : int; taken : bool; covered : int }
  | Seed_enqueued of { txs : int; queue_len : int }
  | Mask_updated of { tx_index : int; probes : int }
  | Energy_reassigned of { energy : int }
  | Finding_raised of { cls : string; pc : int; tx_index : int }
  | Pool_steal of { thief : int; victim : int }
  | Batch_merge of { round : int; execs : int; covered : int }
  | Checkpoint_written of { execs : int; path : string }
  | Checkpoint_loaded of { execs : int; path : string }
  | Fleet_shard_leased of { shard : int; worker : int }
  | Fleet_shard_done of { shard : int; contracts : int; failed : int }
  | Fleet_lease_reassigned of { shard : int; worker : int }

let kind = function
  | Exec_completed _ -> "exec-completed"
  | New_branch_side _ -> "new-branch-side"
  | Seed_enqueued _ -> "seed-enqueued"
  | Mask_updated _ -> "mask-updated"
  | Energy_reassigned _ -> "energy-reassigned"
  | Finding_raised _ -> "finding-raised"
  | Pool_steal _ -> "pool-steal"
  | Batch_merge _ -> "batch-merge"
  | Checkpoint_written _ -> "checkpoint-written"
  | Checkpoint_loaded _ -> "checkpoint-loaded"
  | Fleet_shard_leased _ -> "fleet-shard-leased"
  | Fleet_shard_done _ -> "fleet-shard-done"
  | Fleet_lease_reassigned _ -> "fleet-lease-reassigned"

let to_json ev =
  let tag = ("event", Json.String (kind ev)) in
  match ev with
  | Exec_completed { worker; fresh } ->
    Json.Obj [ tag; ("worker", Int worker); ("fresh", Bool fresh) ]
  | New_branch_side { pc; taken; covered } ->
    Json.Obj [ tag; ("pc", Int pc); ("taken", Bool taken); ("covered", Int covered) ]
  | Seed_enqueued { txs; queue_len } ->
    Json.Obj [ tag; ("txs", Int txs); ("queue_len", Int queue_len) ]
  | Mask_updated { tx_index; probes } ->
    Json.Obj [ tag; ("tx_index", Int tx_index); ("probes", Int probes) ]
  | Energy_reassigned { energy } -> Json.Obj [ tag; ("energy", Int energy) ]
  | Finding_raised { cls; pc; tx_index } ->
    Json.Obj [ tag; ("class", String cls); ("pc", Int pc); ("tx_index", Int tx_index) ]
  | Pool_steal { thief; victim } ->
    Json.Obj [ tag; ("thief", Int thief); ("victim", Int victim) ]
  | Batch_merge { round; execs; covered } ->
    Json.Obj [ tag; ("round", Int round); ("execs", Int execs); ("covered", Int covered) ]
  | Checkpoint_written { execs; path } ->
    Json.Obj [ tag; ("execs", Int execs); ("path", String path) ]
  | Checkpoint_loaded { execs; path } ->
    Json.Obj [ tag; ("execs", Int execs); ("path", String path) ]
  | Fleet_shard_leased { shard; worker } ->
    Json.Obj [ tag; ("shard", Int shard); ("worker", Int worker) ]
  | Fleet_shard_done { shard; contracts; failed } ->
    Json.Obj
      [ tag; ("shard", Int shard); ("contracts", Int contracts);
        ("failed", Int failed) ]
  | Fleet_lease_reassigned { shard; worker } ->
    Json.Obj [ tag; ("shard", Int shard); ("worker", Int worker) ]

let of_json json =
  let open Json.Decode in
  let int name = field name int json in
  let bool name = field name bool json in
  let str name = field name string json in
  let* tag = str "event" in
  match tag with
  | "exec-completed" ->
    let* worker = int "worker" in
    let* fresh = bool "fresh" in
    Ok (Exec_completed { worker; fresh })
  | "new-branch-side" ->
    let* pc = int "pc" in
    let* taken = bool "taken" in
    let* covered = int "covered" in
    Ok (New_branch_side { pc; taken; covered })
  | "seed-enqueued" ->
    let* txs = int "txs" in
    let* queue_len = int "queue_len" in
    Ok (Seed_enqueued { txs; queue_len })
  | "mask-updated" ->
    let* tx_index = int "tx_index" in
    let* probes = int "probes" in
    Ok (Mask_updated { tx_index; probes })
  | "energy-reassigned" ->
    let* energy = int "energy" in
    Ok (Energy_reassigned { energy })
  | "finding-raised" ->
    let* cls = str "class" in
    let* pc = int "pc" in
    let* tx_index = int "tx_index" in
    Ok (Finding_raised { cls; pc; tx_index })
  | "pool-steal" ->
    let* thief = int "thief" in
    let* victim = int "victim" in
    Ok (Pool_steal { thief; victim })
  | "batch-merge" ->
    let* round = int "round" in
    let* execs = int "execs" in
    let* covered = int "covered" in
    Ok (Batch_merge { round; execs; covered })
  | "checkpoint-written" ->
    let* execs = int "execs" in
    let* path = str "path" in
    Ok (Checkpoint_written { execs; path })
  | "checkpoint-loaded" ->
    let* execs = int "execs" in
    let* path = str "path" in
    Ok (Checkpoint_loaded { execs; path })
  | "fleet-shard-leased" ->
    let* shard = int "shard" in
    let* worker = int "worker" in
    Ok (Fleet_shard_leased { shard; worker })
  | "fleet-shard-done" ->
    let* shard = int "shard" in
    let* contracts = int "contracts" in
    let* failed = int "failed" in
    Ok (Fleet_shard_done { shard; contracts; failed })
  | "fleet-lease-reassigned" ->
    let* shard = int "shard" in
    let* worker = int "worker" in
    Ok (Fleet_lease_reassigned { shard; worker })
  | other -> Error (Printf.sprintf "unknown event kind %S" other)

let pp fmt ev = Format.pp_print_string fmt (Json.to_string (to_json ev))
