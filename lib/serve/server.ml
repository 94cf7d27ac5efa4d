(* The daemon's session loop: a single-threaded [select] multiplexer
   over the listening sockets and the live client connections,
   interleaved with engine time slices.

   The loop alternates two duties: drain whatever request lines the
   clients have sent (each answered with exactly one response line, in
   order), then run one scheduler slice if any campaign is runnable.
   While a slice runs, requests queue in the kernel socket buffers —
   latency is bounded by the slice budget, and no locking or threading
   is needed anywhere. *)

let log_src = Logs.Src.create "mufuzz.serve.net" ~doc:"fuzzing service daemon"

module Log = (val Logs.src_log log_src : Logs.LOG)

type conn = {
  fd : Unix.file_descr;
  peer : string;
  buf : Buffer.t;  (* bytes received but not yet terminated by '\n' *)
}

type t = {
  engine : Engine.t;
  listeners : Unix.file_descr list;
  socket_path : string option;
  mutable conns : conn list;
  mutable stopping : bool;
}

(* ---------------- plumbing ---------------- *)

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let send_line conn line =
  let payload = line ^ "\n" in
  let len = String.length payload in
  let rec loop off =
    if off < len then
      let n = Unix.write_substring conn.fd payload off (len - off) in
      loop (off + n)
  in
  try
    loop 0;
    true
  with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> false

let drop t conn =
  t.conns <- List.filter (fun c -> c.fd != conn.fd) t.conns;
  close_quietly conn.fd;
  Log.debug (fun m -> m "disconnect %s" conn.peer)

(* ---------------- request dispatch ---------------- *)

let respond (result : ((string * Telemetry.Json.t) list, Protocol.error_code * string) result) =
  match result with
  | Ok fields -> Protocol.ok fields
  | Error (code, msg) -> Protocol.error ~code msg

let handle_request t line =
  let module J = Telemetry.Json in
  match Protocol.parse_request line with
  | Error (code, msg) -> Protocol.error ~code msg
  | Ok req -> (
    match req with
    | Protocol.Hello v -> (
      match v with
      | Some v when v <> Protocol.version ->
        Protocol.error ~code:Protocol.Bad_request
          (Printf.sprintf "protocol %d requested, server speaks %d" v
             Protocol.version)
      | _ -> Protocol.greeting)
    | Protocol.Ping -> Protocol.ok [ ("pong", J.Bool true) ]
    | Protocol.Submit s -> respond (Engine.submit t.engine s)
    | Protocol.Status id -> respond (Engine.status t.engine id)
    | Protocol.Cancel id -> respond (Engine.cancel t.engine id)
    | Protocol.List_campaigns ->
      Protocol.ok [ ("campaigns", J.List (Engine.list_campaigns t.engine)) ]
    | Protocol.Report id -> (
      match Engine.report t.engine id with
      | Ok report -> Protocol.ok [ ("report", report) ]
      | Error (code, msg) -> Protocol.error ~code msg)
    | Protocol.Artifacts id -> (
      match Engine.artifacts t.engine id with
      | Ok items ->
        Protocol.ok
          [
            ( "artifacts",
              J.List
                (List.map
                   (fun (path, artifact) ->
                     J.Obj
                       [ ("path", J.String path); ("artifact", artifact) ])
                   items) );
          ]
      | Error (code, msg) -> Protocol.error ~code msg)
    | Protocol.Metrics ->
      Protocol.ok
        [ ("metrics", J.String (Telemetry.Metrics.dump (Engine.metrics t.engine))) ]
    | Protocol.Shutdown ->
      t.stopping <- true;
      Protocol.ok [ ("stopping", J.Bool true) ])

(* Consume complete lines from the connection buffer; each produces
   one response. Returns [false] if the peer went away mid-reply. *)
let drain_lines t conn =
  let rec next () =
    let data = Buffer.contents conn.buf in
    match String.index_opt data '\n' with
    | None ->
      if Buffer.length conn.buf > Protocol.max_source_bytes then begin
        ignore
          (send_line conn
             (Protocol.error ~code:Protocol.Bad_request "request line too long"));
        false
      end
      else true
    | Some i ->
      let line = String.sub data 0 i in
      Buffer.clear conn.buf;
      Buffer.add_substring conn.buf data (i + 1) (String.length data - i - 1);
      let line =
        (* tolerate CRLF clients *)
        if line <> "" && line.[String.length line - 1] = '\r' then
          String.sub line 0 (String.length line - 1)
        else line
      in
      if String.trim line = "" then next ()
      else if send_line conn (handle_request t line) then next ()
      else false
  in
  next ()

let handle_readable t conn =
  let chunk = Bytes.create 65536 in
  match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
  | 0 -> drop t conn
  | n ->
    Buffer.add_subbytes conn.buf chunk 0 n;
    if not (drain_lines t conn) then drop t conn
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
    drop t conn
  | exception Unix.Unix_error (Unix.EAGAIN, _, _) -> ()

let accept_conn t listener =
  match Unix.accept ~cloexec:true listener with
  | fd, addr ->
    let peer =
      match addr with
      | Unix.ADDR_UNIX _ -> "unix"
      | Unix.ADDR_INET (host, port) ->
        Printf.sprintf "%s:%d" (Unix.string_of_inet_addr host) port
    in
    let conn = { fd; peer; buf = Buffer.create 256 } in
    t.conns <- conn :: t.conns;
    Log.debug (fun m -> m "connect %s" peer);
    if not (send_line conn Protocol.greeting) then drop t conn
  | exception Unix.Unix_error _ -> ()

(* ---------------- listeners ---------------- *)

let listen_unix path =
  (* a stale socket file from a crashed daemon would make [bind] fail;
     refuse only if something is actually listening there *)
  (match (Unix.stat path).Unix.st_kind with
  | Unix.S_SOCK ->
    let probe = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error _ -> false
    in
    close_quietly probe;
    if live then failwith (Printf.sprintf "socket %s is already served" path)
    else Unix.unlink path
  | _ -> failwith (Printf.sprintf "%s exists and is not a socket" path)
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 16;
  fd

let listen_tcp port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 16;
  fd

(* ---------------- the loop ---------------- *)

let run ?socket ?port engine =
  let listeners =
    (match socket with None -> [] | Some p -> [ listen_unix p ])
    @ (match port with None -> [] | Some p -> [ listen_tcp p ])
  in
  if listeners = [] then invalid_arg "Server.run: no socket and no port";
  let t =
    { engine; listeners; socket_path = socket; conns = []; stopping = false }
  in
  let prev_handlers = ref [] in
  let trap signal =
    match
      Sys.signal signal
        (Sys.Signal_handle
           (fun _ ->
             Log.info (fun m -> m "signal: shutting down");
             t.stopping <- true))
    with
    | prev -> prev_handlers := (signal, prev) :: !prev_handlers
    | exception (Invalid_argument _ | Sys_error _) -> ()
  in
  trap Sys.sigint;
  trap Sys.sigterm;
  (try prev_handlers := (Sys.sigpipe, Sys.signal Sys.sigpipe Sys.Signal_ignore)
                        :: !prev_handlers
   with Invalid_argument _ | Sys_error _ -> ());
  (match socket with
  | Some p -> Log.app (fun m -> m "listening on %s" p)
  | None -> ());
  (match port with
  | Some p -> Log.app (fun m -> m "listening on 127.0.0.1:%d" p)
  | None -> ());
  let finished () = t.stopping in
  while not (finished ()) do
    let watched = t.listeners @ List.map (fun c -> c.fd) t.conns in
    let timeout = if Engine.has_runnable t.engine then 0.0 else 0.2 in
    let ready =
      match Unix.select watched [] [] timeout with
      | ready, _, _ -> ready
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    List.iter
      (fun fd ->
        if t.stopping then ()
        else if List.memq fd t.listeners then accept_conn t fd
        else
          match List.find_opt (fun c -> c.fd == fd) t.conns with
          | Some conn -> handle_readable t conn
          | None -> ())
      ready;
    if not t.stopping then ignore (Engine.step t.engine)
  done;
  List.iter (fun c -> close_quietly c.fd) t.conns;
  t.conns <- [];
  List.iter close_quietly t.listeners;
  (match t.socket_path with
  | Some p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
  | None -> ());
  List.iter (fun (s, h) -> try Sys.set_signal s h with _ -> ()) !prev_handlers;
  Engine.shutdown engine;
  Log.app (fun m -> m "shut down cleanly")
