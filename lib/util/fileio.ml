let with_atomic_out path f =
  let dir = Filename.dirname path in
  (* the temp file must live in the same directory as the target:
     [Sys.rename] is only atomic within a filesystem, and a crash
     mid-write must never leave a torn file under the final name *)
  let tmp = Filename.temp_file ~temp_dir:dir (Filename.basename path) ".tmp" in
  match
    let oc = open_out_bin tmp in
    let result =
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          let r = f oc in
          flush oc;
          r)
    in
    Sys.rename tmp path;
    result
  with
  | result -> result
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let write_atomic path content =
  with_atomic_out path (fun oc -> output_string oc content)

let rec mkdirs dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdirs parent;
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ---------------- temp directories ---------------- *)

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | exception Unix.Unix_error _ -> ()

(* Every temp dir this process ever creates is registered here and
   removed by one at_exit hook, so scratch space cannot outlive the
   process on paths that return normally or via [exit] — only SIGKILL
   can strand a dir, and a later run with the same prefix is free to
   clean it up. *)
let live_dirs : string list ref = ref []

let live_mutex = Mutex.create ()

let cleanup_registered = ref false

let register dir =
  Mutex.lock live_mutex;
  if not !cleanup_registered then begin
    cleanup_registered := true;
    at_exit (fun () -> List.iter remove_tree !live_dirs)
  end;
  live_dirs := dir :: !live_dirs;
  Mutex.unlock live_mutex

let unregister dir =
  Mutex.lock live_mutex;
  live_dirs := List.filter (fun d -> d <> dir) !live_dirs;
  Mutex.unlock live_mutex

let temp_dir ?(in_dir = Filename.get_temp_dir_name ()) ~prefix () =
  let counter = ref 0 in
  let rec attempt () =
    incr counter;
    let dir =
      Filename.concat in_dir
        (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !counter)
    in
    match Unix.mkdir dir 0o700 with
    | () -> dir
    | exception Unix.Unix_error (Unix.EEXIST, _, _) when !counter < 10_000 ->
      attempt ()
  in
  let dir = attempt () in
  register dir;
  dir

let with_temp_dir ?in_dir ~prefix f =
  let dir = temp_dir ?in_dir ~prefix () in
  Fun.protect
    ~finally:(fun () ->
      remove_tree dir;
      unregister dir)
    (fun () -> f dir)
