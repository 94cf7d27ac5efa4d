exception Corrupt of string

let tx_to_line (tx : Seed.tx) =
  Printf.sprintf "%s %d %s" tx.fn.Abi.name tx.sender (Util.Hex.encode tx.stream)

let seed_to_string (seed : Seed.t) =
  String.concat "\n" (List.map tx_to_line seed.txs) ^ "\n"

let rec tx_of_line ~abi line =
  match String.split_on_char ' ' (String.trim line) with
  | [ name; sender; hex ] -> begin
    let sender =
      match int_of_string_opt sender with
      | Some s when s >= 0 -> s
      | _ -> raise (Corrupt ("bad sender in: " ^ line))
    in
    match Seed.resolve_tx ~abi ~name ~sender ~hex with
    | Ok tx -> tx
    | Error m -> raise (Corrupt (m ^ " in: " ^ line))
  end
  | [ name; sender ] -> tx_of_line ~abi (name ^ " " ^ sender ^ " ")
  | _ -> raise (Corrupt ("malformed line: " ^ line))

let seed_of_string ~abi s =
  let lines =
    String.split_on_char '\n' s
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  if lines = [] then raise (Corrupt "empty seed");
  { Seed.txs = List.map (tx_of_line ~abi) lines }

let save_corpus path seeds =
  let buf = Buffer.create 1024 in
  List.iter
    (fun seed ->
      Buffer.add_string buf (seed_to_string seed);
      Buffer.add_char buf '\n')
    seeds;
  (* temp + rename: a crash mid-save never tears an existing corpus *)
  Util.Fileio.write_atomic path (Buffer.contents buf)

let load_corpus ~abi path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let content = really_input_string ic n in
  close_in ic;
  (* seeds are separated by blank lines *)
  let blocks =
    String.split_on_char '\n' content
    |> List.fold_left
         (fun (done_, cur) line ->
           if String.trim line = "" then
             if cur = [] then (done_, []) else (List.rev cur :: done_, [])
           else (done_, line :: cur))
         ([], [])
    |> fun (done_, cur) ->
    List.rev (if cur = [] then done_ else List.rev cur :: done_)
  in
  (* one corrupt block loses that seed, never the corpus: collect the
     good seeds and report each skipped block as (index, reason) *)
  let seeds_rev, skipped_rev, _ =
    List.fold_left
      (fun (seeds, skipped, i) lines ->
        match seed_of_string ~abi (String.concat "\n" lines) with
        | seed -> (seed :: seeds, skipped, i + 1)
        | exception Corrupt reason -> (seeds, (i, reason) :: skipped, i + 1))
      ([], [], 0) blocks
  in
  (List.rev seeds_rev, List.rev skipped_rev)
