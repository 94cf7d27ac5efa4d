let assign ~dynamic ~base ~max_energy ~weights ~path =
  if not dynamic then base
  else
    match weights with
    | None -> base
    | Some tbl ->
      let max_w =
        List.fold_left
          (fun acc br ->
            match Hashtbl.find_opt tbl br with
            | Some w -> Stdlib.max acc w
            | None -> acc)
          0.0 path
      in
      (* weight 0 -> base; each weight point buys a proportional slice of
         the remaining headroom, saturating at max_energy *)
      let scaled = float_of_int base *. (1.0 +. (max_w /. 4.0)) in
      Stdlib.min max_energy (int_of_float scaled)

let update energy ~new_coverage = if new_coverage then energy + 2 else energy - 1

(* ---------------- JSON codec (campaign checkpoints) ---------------- *)

module J = Telemetry.Json

(* Weights are only ever read through [Hashtbl.find_opt] in {!assign},
   so iteration order carries no semantics; emit a canonical sorted
   rendering. *)
let weights_to_json tbl =
  Hashtbl.fold (fun br w acc -> (br, w) :: acc) tbl []
  |> List.sort compare
  |> List.map (fun ((pc, taken), w) ->
         J.Obj [ ("pc", J.Int pc); ("taken", J.Bool taken); ("w", J.Float w) ])
  |> fun l -> J.List l

let weights_of_json j =
  let open J.Decode in
  let* entries =
    list
      (fun e ->
        let* pc = field "pc" int e in
        let* taken = field "taken" bool e in
        let* w = field "w" float e in
        Ok ((pc, taken), w))
      j
  in
  let tbl = Hashtbl.create 64 in
  List.iter (fun (br, w) -> Hashtbl.replace tbl br w) entries;
  Ok tbl
