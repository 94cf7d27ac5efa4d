module J = Telemetry.Json

type addr = Unix_socket of string | Tcp of int

let addr_to_string = function
  | Unix_socket p -> p
  | Tcp port -> Printf.sprintf "127.0.0.1:%d" port

type t = { ic : in_channel; oc : out_channel }

type error = Lost of string | Refused of string

let response_ok line =
  match J.of_string line with
  | Ok j -> Option.bind (J.member "ok" j) J.to_bool = Some true
  | Error _ -> false

let connect addr =
  (* a daemon that dies mid-request must surface as an [Error] from
     the write, not as a SIGPIPE that kills the client process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let fail fmt =
    Printf.ksprintf (fun s -> Error (addr_to_string addr ^ ": " ^ s)) fmt
  in
  let domain, sockaddr =
    match addr with
    | Unix_socket p -> (Unix.PF_UNIX, Unix.ADDR_UNIX p)
    | Tcp port ->
      (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_loopback, port))
  in
  match
    let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
    (try Unix.connect fd sockaddr
     with e ->
       Unix.close fd;
       raise e);
    fd
  with
  | exception Unix.Unix_error (e, _, _) ->
    fail "cannot connect: %s" (Unix.error_message e)
  | fd -> (
    let t =
      { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
    in
    (* the handshake line; verify it really is a mufuzz-serve daemon *)
    match input_line t.ic with
    | exception (End_of_file | Sys_error _) ->
      close_in_noerr t.ic;
      fail "server closed the connection before greeting"
    | greeting when response_ok greeting -> Ok t
    | greeting ->
      close_in_noerr t.ic;
      fail "bad greeting: %s" greeting)

let close t = close_in_noerr t.ic

let request_line t line =
  match
    output_string t.oc line;
    output_char t.oc '\n';
    flush t.oc;
    input_line t.ic
  with
  | exception End_of_file -> Error "server closed the connection"
  | exception Sys_error e -> Error e
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | response -> Ok response

let request t json =
  match request_line t (J.to_string json) with
  | Error e -> Error (Lost e)
  | Ok line -> (
    match J.of_string line with
    | Error e -> Error (Lost (Printf.sprintf "bad response: %s" e))
    | Ok resp when Option.bind (J.member "ok" resp) J.to_bool = Some true ->
      Ok resp
    | Ok resp ->
      Error
        (Refused
           (Option.value ~default:line
              (Option.bind (J.member "error" resp) J.string_value))))
