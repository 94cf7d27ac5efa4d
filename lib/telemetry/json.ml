type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---------------- printing ---------------- *)

let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_float buf f =
  match Float.classify_float f with
  | FP_nan | FP_infinite -> Buffer.add_string buf "null"
  | _ ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string buf (Printf.sprintf "%.1f" f)
    else
      (* shortest representation that round-trips *)
      let s = Printf.sprintf "%.17g" f in
      let s' = Printf.sprintf "%.15g" f in
      Buffer.add_string buf (if float_of_string s' = f then s' else s)

let rec add buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> add_float buf f
  | String s -> add_escaped buf s
  | List l ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        add buf v)
      l;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        add_escaped buf k;
        Buffer.add_char buf ':';
        add buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  add buf v;
  Buffer.contents buf

(* ---------------- parsing ---------------- *)

exception Parse_error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let h = String.sub s !pos 4 in
    pos := !pos + 4;
    match int_of_string_opt ("0x" ^ h) with
    | Some c -> c
    | None -> fail "bad \\u escape"
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' -> begin
        if !pos >= n then fail "unterminated escape";
        let e = s.[!pos] in
        advance ();
        (match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | 'r' -> Buffer.add_char buf '\r'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
          let c = hex4 () in
          (* encode the code point as UTF-8; surrogate pairs for
             completeness, though the writer never emits them *)
          let c =
            if c >= 0xD800 && c <= 0xDBFF && !pos + 1 < n && s.[!pos] = '\\'
               && s.[!pos + 1] = 'u'
            then begin
              pos := !pos + 2;
              let lo = hex4 () in
              0x10000 + (((c - 0xD800) lsl 10) lor (lo - 0xDC00))
            end
            else c
          in
          if c < 0x80 then Buffer.add_char buf (Char.chr c)
          else if c < 0x800 then begin
            Buffer.add_char buf (Char.chr (0xC0 lor (c lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3F)))
          end
          else if c < 0x10000 then begin
            Buffer.add_char buf (Char.chr (0xE0 lor (c lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((c lsr 6) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3F)))
          end
          else begin
            Buffer.add_char buf (Char.chr (0xF0 lor (c lsr 18)));
            Buffer.add_char buf (Char.chr (0x80 lor ((c lsr 12) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor ((c lsr 6) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3F)))
          end
        | _ -> fail "bad escape");
        loop ()
      end
      | c -> Buffer.add_char buf c; loop ()
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    let integral =
      not (String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok)
    in
    if integral then
      match int_of_string_opt tok with
      | Some v -> Int v
      | None -> (
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail "bad number")
    else
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some '[' -> begin
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [ parse_value () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          items := parse_value () :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    end
    | Some '{' -> begin
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (k, v)
        in
        let fields = ref [ field () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          fields := field () :: !fields;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !fields)
      end
    end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected '%c'" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* ---------------- accessors ---------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

(* [int_of_float] is unspecified outside the [int] range (1e20 gives 0),
   and an integer literal too large for [int] parses as exactly such a
   float: only in-range integral floats are ints. *)
let to_int = function
  | Int n -> Some n
  | Float f
    when Float.is_integer f
         && f >= Float.of_int min_int
         && f < -.Float.of_int min_int ->
    Some (int_of_float f)
  | _ -> None

let to_float = function
  | Float f -> Some f
  | Int n -> Some (float_of_int n)
  | _ -> None

let to_bool = function Bool b -> Some b | _ -> None
let to_list = function List l -> Some l | _ -> None
let string_value = function String s -> Some s | _ -> None

(* ---------------- decoders ---------------- *)

module Decode = struct
  type json = t

  type 'a t = json -> ('a, string) result

  let ( let* ) = Result.bind

  (* An error is "<path>: <message>" once a [field] or [list] has
     wrapped it. Paths are built from lowercase field names and [i]
     indices, so a head of only those characters before the first ": "
     is a path; anything else is a bare message. Only the [Error] branch
     ever looks at this. *)
  let has_path e =
    let is_path_char = function
      | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '[' | ']' -> true
      | _ -> false
    in
    match String.index_opt e ':' with
    | Some i when i > 0 && i + 1 < String.length e && e.[i + 1] = ' ' ->
      let rec all k = k >= i || (is_path_char e.[k] && all (k + 1)) in
      all 0
    | _ -> false

  let under segment e =
    if not (has_path e) then segment ^ ": " ^ e
    else if e.[0] = '[' then segment ^ e
    else segment ^ "." ^ e

  let expected what = Error ("expected " ^ what)

  let int j = match to_int j with Some n -> Ok n | None -> expected "int"
  (* an overflowing literal parses to infinity, which the printer
     cannot render back (it writes [null]) *)
  let float j =
    match to_float j with
    | Some f when Float.is_finite f -> Ok f
    | _ -> expected "a finite number"
  let bool = function Bool b -> Ok b | _ -> expected "bool"
  let string = function String s -> Ok s | _ -> expected "string"

  let int64_decimal = function
    | String s -> (
      match Int64.of_string_opt s with
      | Some v -> Ok v
      | None -> expected "a 64-bit decimal string")
    | _ -> expected "a 64-bit decimal string"

  let list d = function
    | List l ->
      let rec go i acc = function
        | [] -> Ok (List.rev acc)
        | x :: rest -> (
          match d x with
          | Ok v -> go (i + 1) (v :: acc) rest
          | Error e -> Error (under (Printf.sprintf "[%d]" i) e))
      in
      go 0 [] l
    | _ -> expected "list"

  let nullable d = function Null -> Ok None | j -> Result.map Option.some (d j)

  let field_value name = function
    | Obj fields -> Ok (List.assoc_opt name fields)
    | _ -> expected "object"

  let field name d j =
    let* v = field_value name j in
    match v with
    | None -> Error (name ^ ": missing field")
    | Some v -> (
      match d v with Ok _ as ok -> ok | Error e -> Error (under name e))

  let field_opt name d j =
    let* v = field_value name j in
    match v with
    | None | Some Null -> Ok None
    | Some v -> (
      match d v with Ok x -> Ok (Some x) | Error e -> Error (under name e))

  let header ~format ~version j =
    let* f = field "format" string j in
    if f <> format then
      Error (Printf.sprintf "format: expected %S, got %S" format f)
    else
      let* v = field "version" int j in
      if v <> version then
        Error
          (Printf.sprintf "version: %d not supported (this build reads %d)" v
             version)
      else Ok ()
end
