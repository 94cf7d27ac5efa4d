(* Byte-mutation fuzzing of every top-level document decoder. Each
   decoder starts from a valid document; 1-8 byte flips, insertions,
   deletions, truncations or whitespace insertions between JSON tokens
   later it must return [Ok] or [Error] and never raise, and any [Ok v]
   must re-encode to a document that decodes to the same [v] (compared
   through the deterministic encoder, since several values carry hash
   tables). Whitespace keeps a document's meaning, so it is what lets
   documents with content hashes (shards, artifacts) reach [Ok]. *)

module J = Telemetry.Json

type mutation =
  | Flip of int * int  (** position, bit *)
  | Insert of int * char
  | Delete of int
  | Truncate of int
  | Space of int * char  (** token boundary (modulo their count), whitespace *)

(* JSON's structural bytes, so insertions reach past the tokenizer *)
let syntax_char =
  QCheck2.Gen.oneofl
    [ '"'; '{'; '}'; '['; ']'; ','; ':'; '0'; '9'; '-'; '.'; 'e'; ' '; '\\'; 'n' ]

let mutation_gen =
  let open QCheck2.Gen in
  let pos = int_bound 1_000_000 in
  frequency
    [
      (4, map2 (fun p b -> Flip (p, b)) pos (int_bound 7));
      (3, map2 (fun p c -> Insert (p, c)) pos (oneof [ char; syntax_char ]));
      (3, map (fun p -> Delete p) pos);
      (1, map (fun p -> Truncate p) pos);
      (3, map2 (fun p c -> Space (p, c)) pos (oneofl [ ' '; '\t'; '\r'; '\n' ]));
    ]

(* most runs mutate once, so a fair share of documents still decode and
   the re-encoding law is exercised, not just the error path *)
let mutations_gen =
  let open QCheck2.Gen in
  list_size (frequency [ (2, return 1); (1, int_range 2 8) ]) mutation_gen

let print_mutation = function
  | Flip (p, b) -> Printf.sprintf "flip@%d bit %d" p b
  | Insert (p, c) -> Printf.sprintf "insert@%d %C" p c
  | Delete p -> Printf.sprintf "delete@%d" p
  | Truncate p -> Printf.sprintf "truncate@%d" p
  | Space (p, c) -> Printf.sprintf "space@boundary %d %C" p c

let insert s p c =
  String.sub s 0 p ^ String.make 1 c ^ String.sub s p (String.length s - p)

(* Offsets next to a structural character outside string literals: the
   places JSON allows whitespace between tokens. *)
let token_boundaries s =
  let structural c = String.contains "{}[],:" c in
  let acc = ref [] and in_string = ref false and escaped = ref false in
  String.iteri
    (fun i c ->
      if !in_string then begin
        if !escaped then escaped := false
        else if c = '\\' then escaped := true
        else if c = '"' then in_string := false
      end
      else if c = '"' then in_string := true
      else if structural c then acc := (i + 1) :: i :: !acc)
    s;
  Array.of_list (List.sort_uniq compare !acc)

(* positions wrap modulo the current length (or boundary count) *)
let apply s m =
  let n = String.length s in
  match m with
  | Insert (p, c) -> insert s (p mod (n + 1)) c
  | Space (p, c) ->
    let b = token_boundaries s in
    if b = [||] then s else insert s b.(p mod Array.length b) c
  | _ when n = 0 -> s
  | Flip (p, b) ->
    let p = p mod n in
    String.mapi
      (fun i c -> if i = p then Char.chr (Char.code c lxor (1 lsl b)) else c)
      s
  | Delete p ->
    let p = p mod n in
    String.sub s 0 p ^ String.sub s (p + 1) (n - p - 1)
  | Truncate p -> String.sub s 0 (p mod n)

type codec =
  | Codec : {
      name : string;
      doc : string Lazy.t;
      decode : string -> ('a, string) result;
      encode : 'a -> string;
    }
      -> codec

let json_codec name doc of_json to_json =
  Codec
    {
      name;
      doc;
      decode = (fun s -> Result.bind (J.of_string s) of_json);
      encode = (fun v -> J.to_string (to_json v));
    }

(* ---------------- valid documents ---------------- *)

let contract = lazy (Minisol.Contract.compile Corpus.Examples.crowdsale)

let checkpoint_doc =
  lazy
    (let contract = Lazy.force contract in
     let config =
       { Mufuzz.Config.default with max_executions = 300; rng_seed = 5L }
     in
     let snap = ref None in
     let hook ~final ~bus:_ ~execs:_ thunk = if final then snap := Some (thunk ()) in
     ignore (Mufuzz.Campaign.run ~config ~on_safe_point:hook contract);
     match !snap with
     | None -> Alcotest.fail "campaign never reached its final safe point"
     | Some snapshot ->
       Persist.Checkpoint.to_string
         { Persist.Checkpoint.tool = "MuFuzz"; config; contract; snapshot })

let artifact_doc =
  lazy
    (let dir =
       if Sys.file_exists "regressions" then "regressions" else "test/regressions"
     in
     Sys.readdir dir |> Array.to_list
     |> List.filter (fun f -> Filename.check_suffix f ".json")
     |> List.sort compare |> List.hd |> Filename.concat dir
     |> Util.Fileio.read_file |> String.trim)

let summary_doc =
  lazy
    (let obs =
       {
         Fleet.Summary.o_execs = 120;
         o_steps = 4000;
         o_total_sides = 10;
         o_final_covered = 7;
         o_over_time = [ (10, 2); (60, 5); (120, 7) ];
         o_classes = [ ("IO", 2); ("RE", 1) ];
       }
     in
     let s = Fleet.Summary.empty ~buckets:4 in
     let s = Fleet.Summary.fold s ~tool:"MuFuzz" ~size:"small" ~budget:120 obs in
     let s = Fleet.Summary.fold s ~tool:"sFuzz" ~size:"large" ~budget:200 obs in
     let s = Fleet.Summary.contract_done s in
     Fleet.Summary.to_string
       (Fleet.Summary.fold_failure s ~name:"broken" ~reason:"compile: x"))

let ledger_doc =
  lazy
    (let l = Fleet.Ledger.create ~manifest_hash:"ab" ~config_digest:"cd" ~shards:3 in
     let l, _ = Option.get (Fleet.Ledger.acquire l ~worker:1) in
     let l = Fleet.Ledger.mark_done l ~shard:0 ~contracts:4 ~failed:1 in
     let l, _ = Option.get (Fleet.Ledger.acquire l ~worker:2) in
     J.to_string (Fleet.Ledger.to_json l))

(* The request encoder exists only here: the daemon never renders
   requests, clients build them by hand. *)
let request_json (r : Serve.Protocol.request) =
  let op name rest = J.Obj (("op", J.String name) :: rest) in
  let opt f = function None -> J.Null | Some v -> f v in
  let id name i = op name [ ("id", J.String i) ] in
  match r with
  | Hello v -> op "hello" [ ("protocol", opt (fun n -> J.Int n) v) ]
  | Submit s ->
    op "submit"
      [
        (match s.sub_source with
        | `Inline src -> ("source", J.String src)
        | `File f -> ("file", J.String f));
        ("budget", opt (fun n -> J.Int n) s.sub_budget);
        ("seed", opt (fun n -> J.String (Int64.to_string n)) s.sub_seed);
        ("tool", opt (fun t -> J.String t) s.sub_tool);
        ("jobs", opt (fun n -> J.Int n) s.sub_jobs);
        ("priority", J.Int s.sub_priority);
      ]
  | Status i -> id "status" i
  | Report i -> id "report" i
  | Cancel i -> id "cancel" i
  | Artifacts i -> id "artifacts" i
  | List_campaigns -> op "list" []
  | Metrics -> op "metrics" []
  | Ping -> op "ping" []
  | Shutdown -> op "shutdown" []

(* The shard codec is a file format: mutate the shard file under an
   intact manifest and fold it; re-encode by writing the decoded
   entries out again. *)
let shard_codec =
  let entries =
    [
      { Fleet.Shard.name = "a"; source = "contract A { uint x; }" };
      { Fleet.Shard.name = "b"; source = "contract B {\n  uint y;\n}" };
    ]
  in
  let dir = lazy (Util.Fileio.temp_dir ~prefix:"decode-shard" ()) in
  let manifest =
    lazy (Fleet.Shard.write_list ~dir:(Lazy.force dir) ~shards:1 entries)
  in
  let shard_path d = Filename.concat d (Fleet.Shard.shard_file 0) in
  Codec
    {
      name = "shard fold";
      doc = lazy (ignore (Lazy.force manifest); Util.Fileio.read_file (shard_path (Lazy.force dir)));
      decode =
        (fun s ->
          let dir = Lazy.force dir in
          Util.Fileio.write_atomic (shard_path dir) s;
          Fleet.Shard.fold ~dir ~shard:0 ~manifest:(Lazy.force manifest)
            ~init:[] ~f:(fun acc _ e -> e :: acc)
          |> Result.map List.rev);
      encode =
        (fun entries ->
          Util.Fileio.with_temp_dir ~prefix:"decode-shard-out" (fun d ->
              ignore (Fleet.Shard.write_list ~dir:d ~shards:1 entries);
              Util.Fileio.read_file (shard_path d)));
    }

let codecs =
  [
    Codec
      {
        name = "serve request";
        doc =
          lazy
            {|{"op":"submit","source":"contract C { uint x; }","budget":300,"seed":"42","tool":"MuFuzz","jobs":1,"priority":2}|};
        decode =
          (fun s -> Result.map_error snd (Serve.Protocol.parse_request s));
        encode = (fun r -> J.to_string (request_json r));
      };
    Codec
      {
        name = "checkpoint";
        doc = checkpoint_doc;
        decode = Persist.Checkpoint.of_string;
        encode = Persist.Checkpoint.to_string;
      };
    shard_codec;
    json_codec "fleet ledger" ledger_doc Fleet.Ledger.of_json Fleet.Ledger.to_json;
    Codec
      {
        name = "fleet summary";
        doc = summary_doc;
        decode = Fleet.Summary.of_string;
        encode = Fleet.Summary.to_string;
      };
    Codec
      {
        name = "fleet config";
        doc = lazy (Fleet.Config.to_string { Fleet.Config.default with seed = -3L });
        decode = Fleet.Config.of_string;
        encode = Fleet.Config.to_string;
      };
    Codec
      {
        name = "repro artifact";
        doc = artifact_doc;
        decode = Triage.Artifact.of_string;
        encode = Triage.Artifact.to_string;
      };
    json_codec "telemetry event"
      (lazy
        (J.to_string
           (Telemetry.Event.to_json
              (Telemetry.Event.Finding_raised { cls = "RE"; pc = 156; tx_index = 2 }))))
      Telemetry.Event.of_json Telemetry.Event.to_json;
  ]

let valid_docs_decode (Codec c) =
  Alcotest.test_case (c.name ^ ": the unmutated document decodes") `Quick
    (fun () ->
      match c.decode (Lazy.force c.doc) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: %s" c.name e)

let survives_mutation (Codec c) =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:(c.name ^ " survives byte mutations") ~count:150
       ~long_factor:40
       ~print:(fun ms -> String.concat "; " (List.map print_mutation ms))
       mutations_gen
       (fun ms ->
         let s = List.fold_left apply (Lazy.force c.doc) ms in
         match c.decode s with
         | exception e ->
           QCheck2.Test.fail_reportf "decoder raised %s" (Printexc.to_string e)
         | Error _ -> true
         | Ok v -> (
           let s' = c.encode v in
           match c.decode s' with
           | exception e ->
             QCheck2.Test.fail_reportf "re-decode raised %s" (Printexc.to_string e)
           | Error e -> QCheck2.Test.fail_reportf "re-encoded document rejected: %s" e
           | Ok v' -> c.encode v' = s')))

let suite =
  [
    ( "decode: byte mutations",
      List.map valid_docs_decode codecs @ List.map survives_mutation codecs );
  ]
