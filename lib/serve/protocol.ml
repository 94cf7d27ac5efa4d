(* The service wire protocol: one JSON object per line, both ways.

   Requests are tagged by an "op" field; responses by "ok". The codec
   is deliberately forgiving about unknown fields (ignored) and strict
   about types — a malformed payload becomes a structured error line,
   never an exception escaping to the session loop. *)

module J = Telemetry.Json

let version = 1

let server_name = "mufuzz-serve"

let max_source_bytes = 8 * 1024 * 1024

type error_code =
  | Bad_request
  | Unknown_op
  | Unknown_id
  | Bad_state
  | Internal

let code_string = function
  | Bad_request -> "bad-request"
  | Unknown_op -> "unknown-op"
  | Unknown_id -> "unknown-id"
  | Bad_state -> "bad-state"
  | Internal -> "internal"

type submit = {
  sub_source : [ `Inline of string | `File of string ];
  sub_budget : int option;
  sub_seed : int64 option;
  sub_tool : string option;
  sub_jobs : int option;
  sub_priority : int;
}

type request =
  | Hello of int option  (** client-announced protocol version *)
  | Submit of submit
  | Status of string
  | Report of string
  | Cancel of string
  | Artifacts of string
  | List_campaigns
  | Metrics
  | Ping
  | Shutdown

(* ---------------- request parsing ---------------- *)

open J.Decode

(* RNG seeds are int64; accept a JSON integer or a decimal string
   (JSON numbers lose precision past 2^53 in sloppy clients). *)
let seed = function J.Int n -> Ok (Int64.of_int n) | j -> int64_decimal j

let parse_submit j =
  let* source = field_opt "source" string j in
  let* file = field_opt "file" string j in
  let* sub_source =
    match (source, file) with
    | Some s, None -> Ok (`Inline s)
    | None, Some f -> Ok (`File f)
    | Some _, Some _ -> Error "give either \"source\" or \"file\", not both"
    | None, None -> Error "submit needs a \"source\" or \"file\" field"
  in
  let* sub_budget = field_opt "budget" int j in
  let* sub_seed = field_opt "seed" seed j in
  let* sub_tool = field_opt "tool" string j in
  let* sub_jobs = field_opt "jobs" int j in
  let* priority = field_opt "priority" int j in
  Ok
    (Submit
       {
         sub_source;
         sub_budget;
         sub_seed;
         sub_tool;
         sub_jobs;
         sub_priority = Option.value priority ~default:0;
       })

let parse_request line =
  let bad r = Result.map_error (fun e -> (Bad_request, e)) r in
  match J.of_string line with
  | Error e -> Error (Bad_request, Printf.sprintf "not a JSON object: %s" e)
  | Ok j -> (
    match field "op" string j with
    | Error e -> Error (Bad_request, e)
    | Ok op -> (
      let with_id k = bad (Result.map k (field "id" string j)) in
      match op with
      | "hello" -> bad (Result.map (fun v -> Hello v) (field_opt "protocol" int j))
      | "submit" -> bad (parse_submit j)
      | "status" -> with_id (fun id -> Status id)
      | "report" -> with_id (fun id -> Report id)
      | "cancel" -> with_id (fun id -> Cancel id)
      | "artifacts" -> with_id (fun id -> Artifacts id)
      | "list" -> Ok List_campaigns
      | "metrics" -> Ok Metrics
      | "ping" -> Ok Ping
      | "shutdown" -> Ok Shutdown
      | op -> Error (Unknown_op, Printf.sprintf "unknown op %S" op)))

(* ---------------- response rendering ---------------- *)

let ok fields = J.to_string (J.Obj (("ok", J.Bool true) :: fields))

let error ~code msg =
  J.to_string
    (J.Obj
       [
         ("ok", J.Bool false);
         ("code", J.String (code_string code));
         ("error", J.String msg);
       ])

let greeting =
  ok
    [
      ("server", J.String server_name);
      ("protocol", J.Int version);
    ]
