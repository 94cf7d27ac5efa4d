(** The `mufuzz serve` wire protocol: line-delimited JSON.

    Every request and every response is one compact JSON object on one
    line. On connect the server sends {!greeting} — the versioned
    handshake — and then answers each request line with exactly one
    response line, in order. Responses carry ["ok": true] on success;
    failures are structured error objects
    [{"ok": false, "code": ..., "error": ...}], never a closed
    connection or an exception trace. See PROTOCOL.md for the full
    request/response schemas. *)

val version : int
(** Protocol version, [1]. Bumped on any incompatible schema change;
    the server's {!greeting} announces it and a client may verify it
    with a ["hello"] request. *)

val server_name : string

val max_source_bytes : int
(** 8 MiB: the longest request line the server buffers (an inline
    source comfortably fits; anything bigger is a protocol violation,
    not a submission), and the largest file a ["file"] submission may
    name. *)

(** Machine-readable failure categories, rendered kebab-case in the
    ["code"] field of error responses. *)
type error_code =
  | Bad_request  (** malformed JSON, missing/ill-typed fields *)
  | Unknown_op
  | Unknown_id  (** no campaign with the given id *)
  | Bad_state  (** valid id, but the campaign is in the wrong phase *)
  | Internal

val code_string : error_code -> string

type submit = {
  sub_source : [ `Inline of string | `File of string ];
      (** contract source text, or a server-side path to read it from *)
  sub_budget : int option;  (** execution budget; default 5000 *)
  sub_seed : int64 option;  (** campaign RNG seed; default 42 *)
  sub_tool : string option;  (** fuzzer profile; default "MuFuzz" *)
  sub_jobs : int option;
      (** worker domains; >1 only honoured when the daemon has a pool *)
  sub_priority : int;  (** higher runs first; default 0 *)
}

type request =
  | Hello of int option
  | Submit of submit
  | Status of string
  | Report of string
  | Cancel of string
  | Artifacts of string
  | List_campaigns
  | Metrics
  | Ping
  | Shutdown

val parse_request : string -> (request, error_code * string) result
(** Parse one request line. Unknown fields are ignored; anything
    missing or ill-typed is an [Error] naming the offence. *)

val ok : (string * Telemetry.Json.t) list -> string
(** Render a success response line: [{"ok": true, ...fields}]. *)

val error : code:error_code -> string -> string
(** Render a structured error response line. *)

val greeting : string
(** The handshake line sent on connect:
    [{"ok":true,"server":"mufuzz-serve","protocol":1}]. *)
