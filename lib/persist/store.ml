(* A checkpoint directory: atomically written, rotated files named by
   execution count so lexicographic order equals campaign order. *)

type t = { dir : string; keep : int }

let file_name execs = Printf.sprintf "checkpoint-%012d.json" execs

let prefix = "checkpoint-"

let suffix = ".json"

let is_checkpoint_file name =
  let lp = String.length prefix and ls = String.length suffix in
  String.length name > lp + ls
  && String.sub name 0 lp = prefix
  && String.sub name (String.length name - ls) ls = suffix
  && String.for_all
       (fun c -> c >= '0' && c <= '9')
       (String.sub name lp (String.length name - lp - ls))

let create ~dir ~keep =
  Util.Fileio.mkdirs dir;
  { dir; keep = max 1 keep }

(* Campaign ids double as directory names, so the alphabet is locked
   down: no separators, no dot-files, nothing the shell or a URL would
   reinterpret. *)
let valid_namespace id =
  id <> "" && id.[0] <> '.'
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '-' || c = '_' || c = '.')
       id

let namespaced ~dir ~id ~keep =
  if not (valid_namespace id) then
    invalid_arg (Printf.sprintf "Store.namespaced: invalid campaign id %S" id);
  create ~dir:(Filename.concat dir id) ~keep

(* Fleet layout: <fleet>/<shard>/<campaign>. Every segment is
   validated, so a hostile shard or campaign id can never escape the
   root directory. *)
let namespaced_path ~dir ~path ~keep =
  if path = [] then invalid_arg "Store.namespaced_path: empty path";
  let dir =
    List.fold_left
      (fun dir id ->
        if not (valid_namespace id) then
          invalid_arg
            (Printf.sprintf "Store.namespaced_path: invalid segment %S" id);
        Filename.concat dir id)
      dir path
  in
  create ~dir ~keep

let dir t = t.dir

let namespaces dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
    Array.to_list names
    |> List.filter (fun id ->
           valid_namespace id
           && Sys.is_directory (Filename.concat dir id)
           && Array.exists is_checkpoint_file
                (try Sys.readdir (Filename.concat dir id)
                 with Sys_error _ -> [||]))
    |> List.sort compare

(* Checkpoint files, oldest first. Names embed a zero-padded exec
   count, so string sort is chronological sort. *)
let list t =
  match Sys.readdir t.dir with
  | exception Sys_error _ -> []
  | names ->
    Array.to_list names
    |> List.filter is_checkpoint_file
    |> List.sort compare
    |> List.map (Filename.concat t.dir)

let rotate t =
  let files = list t in
  let excess = List.length files - t.keep in
  if excess > 0 then
    List.iteri
      (fun i path -> if i < excess then try Sys.remove path with Sys_error _ -> ())
      files

let save t (ckpt : Checkpoint.t) =
  let path = Filename.concat t.dir (file_name ckpt.snapshot.sn_execs) in
  Checkpoint.save path ckpt;
  rotate t;
  path

let load_latest dir =
  let store = { dir; keep = max_int } in
  match List.rev (list store) with
  | [] -> Error (Printf.sprintf "no checkpoint files in %s" dir)
  | newest_first ->
    (* Fall back through older checkpoints if the newest is damaged —
       e.g. a partially copied directory. *)
    let rec try_load last_err = function
      | [] -> Error last_err
      | path :: rest -> (
        match Checkpoint.load path with
        | Ok ckpt -> Ok (path, ckpt)
        | Error e ->
          try_load (Printf.sprintf "%s: %s" (Filename.basename path) e) rest)
    in
    try_load "unreachable" newest_first
