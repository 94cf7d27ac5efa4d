(** Blocking client for the [mufuzz serve] line-delimited JSON
    protocol — the one client of the daemon: the [mufuzz client]
    command sends raw request lines through it, and a fleet worker in
    daemon dispatch submits its shard's campaigns through it. *)

type addr = Unix_socket of string | Tcp of int  (** TCP is 127.0.0.1 only *)

val addr_to_string : addr -> string

type t

val connect : addr -> (t, string) result
(** Open a connection and consume and verify the server greeting.
    Ignores SIGPIPE for the process, so a daemon that dies mid-request
    surfaces as an [Error] rather than killing the client. *)

val request_line : t -> string -> (string, string) result
(** Send one raw request line, read one raw response line. [Error]
    only when the connection is lost; error responses are [Ok]. *)

val response_ok : string -> bool
(** Whether a response line is a JSON object with ["ok": true]. *)

type error =
  | Lost of string  (** the connection failed or the reply was not JSON *)
  | Refused of string  (** an [{"ok": false}] response; the server's message *)

val request : t -> Telemetry.Json.t -> (Telemetry.Json.t, error) result
(** Send one request object, read one response. [Ok] responses are the
    parsed object. *)

val close : t -> unit
