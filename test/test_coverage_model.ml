(* [Mufuzz.Coverage] against a reference model: the earlier
   implementation over polymorphic [Hashtbl]s keyed by [(pc, taken)]
   tuples. Random scripts of [record], [copy], [merge] and JSON
   round-trips drive both side by side, and every observable must agree:
   the covered set, the frontier, best distances, the count, and the
   checkpoint JSON byte for byte. *)

module C = Mufuzz.Coverage
module J = Telemetry.Json

module Model = struct
  type branch = int * bool

  type t = { hits : (branch, int) Hashtbl.t; dists : (branch, float) Hashtbl.t }

  let create () = { hits = Hashtbl.create 16; dists = Hashtbl.create 16 }

  let record t (trace : Evm.Trace.t) =
    let fresh = ref false in
    List.iter
      (fun ev ->
        match ev with
        | Evm.Trace.Branch { pc; taken; dist_to_flip; _ } ->
          let br = (pc, taken) in
          (match Hashtbl.find_opt t.hits br with
          | Some n -> Hashtbl.replace t.hits br (n + 1)
          | None ->
            Hashtbl.replace t.hits br 1;
            fresh := true;
            Hashtbl.remove t.dists br);
          let flip = (pc, not taken) in
          if not (Hashtbl.mem t.hits flip) then begin
            match Hashtbl.find_opt t.dists flip with
            | Some d when d <= dist_to_flip -> ()
            | _ -> Hashtbl.replace t.dists flip dist_to_flip
          end
        | _ -> ())
      trace.events;
    !fresh

  let copy t = { hits = Hashtbl.copy t.hits; dists = Hashtbl.copy t.dists }

  let merge ~into:dst src =
    Hashtbl.iter
      (fun br n ->
        match Hashtbl.find_opt dst.hits br with
        | Some m -> if n > m then Hashtbl.replace dst.hits br n
        | None ->
          Hashtbl.replace dst.hits br n;
          Hashtbl.remove dst.dists br)
      src.hits;
    Hashtbl.iter
      (fun br d ->
        if not (Hashtbl.mem dst.hits br) then
          match Hashtbl.find_opt dst.dists br with
          | Some d' when d' <= d -> ()
          | _ -> Hashtbl.replace dst.dists br d)
      src.dists

  let covered_count t = Hashtbl.length t.hits
  let covered t = Hashtbl.fold (fun br _ acc -> br :: acc) t.hits []

  let uncovered_frontier t =
    Hashtbl.fold
      (fun (pc, taken) _ acc ->
        let flip = (pc, not taken) in
        if Hashtbl.mem t.hits flip then acc else flip :: acc)
      t.hits []
    |> List.sort_uniq compare

  let best_distance t br = Hashtbl.find_opt t.dists br

  let to_json t =
    let branch_fields (pc, taken) = [ ("pc", J.Int pc); ("taken", J.Bool taken) ] in
    let hits =
      Hashtbl.fold (fun br n acc -> (br, n) :: acc) t.hits []
      |> List.sort compare
      |> List.map (fun (br, n) -> J.Obj (branch_fields br @ [ ("n", J.Int n) ]))
    in
    let dists =
      Hashtbl.fold (fun br d acc -> (br, d) :: acc) t.dists []
      |> List.sort compare
      |> List.map (fun (br, d) -> J.Obj (branch_fields br @ [ ("d", J.Float d) ]))
    in
    J.Obj [ ("hits", J.List hits); ("dists", J.List dists) ]
end

(* ---------------- scripts ---------------- *)

type op =
  | Record of int * (int * bool * float) list  (** map index, branch events *)
  | Copy of int  (** append a copy of map i *)
  | Merge of int * int  (** merge map j into map i *)
  | Roundtrip of int  (** replace map i by its JSON decoding *)

let trace_of events =
  {
    Evm.Trace.status = Evm.Trace.Success;
    events =
      List.map
        (fun (pc, taken, dist_to_flip) ->
          Evm.Trace.Branch { pc; taken; dist_to_flip; cond_taint = 0; cmp = None })
        events;
    return_data = "";
    gas_used = 0;
    steps = 0;
  }

(* A small pc range makes sides, flips and distance ties collide often;
   the distances include exact repeats, zero and huge values. *)
let event_gen =
  QCheck2.Gen.(
    triple (int_range 0 12) bool
      (oneof
         [ map float_of_int (int_range 0 6); oneofl [ 0.5; 1e30; 1.157920892373162e77 ];
           float_range 0.0 100.0 ]))

let op_gen =
  QCheck2.Gen.(
    frequency
      [
        (6, map2 (fun i evs -> Record (i, evs)) nat (list_size (int_range 0 15) event_gen));
        (1, map (fun i -> Copy i) nat);
        (2, map2 (fun i j -> Merge (i, j)) nat nat);
        (1, map (fun i -> Roundtrip i) nat);
      ])

let print_op = function
  | Record (i, evs) ->
    Printf.sprintf "record %d [%s]" i
      (String.concat ";"
         (List.map (fun (pc, t, d) -> Printf.sprintf "(%d,%b,%h)" pc t d) evs))
  | Copy i -> Printf.sprintf "copy %d" i
  | Merge (i, j) -> Printf.sprintf "merge %d <- %d" i j
  | Roundtrip i -> Printf.sprintf "roundtrip %d" i

let json_string = J.to_string

(* every observable the campaign and the checkpoint codec read *)
let agree (m : Model.t) (c : C.t) =
  let sides =
    List.sort_uniq compare
      (Model.covered m @ Model.uncovered_frontier m @ C.covered c
     @ C.uncovered_frontier c)
  in
  List.sort compare (Model.covered m) = List.sort compare (C.covered c)
  && Model.uncovered_frontier m = C.uncovered_frontier c
  && Model.covered_count m = C.covered_count c
  && List.for_all
       (fun br ->
         Model.best_distance m br = C.best_distance c br
         && Hashtbl.mem m.Model.hits br = C.is_covered c br)
       sides
  && json_string (Model.to_json m) = json_string (C.to_json c)

let run_script ops =
  let maps = ref [| (Model.create (), C.create ()) |] in
  let pick i = i mod Array.length !maps in
  List.for_all
    (fun op ->
      (match op with
      | Record (i, evs) ->
        let m, c = !maps.(pick i) in
        let t = trace_of evs in
        let fm = Model.record m t and fc = C.record c t in
        if fm <> fc then QCheck2.Test.fail_reportf "record freshness differs"
      | Copy i ->
        let m, c = !maps.(pick i) in
        maps := Array.append !maps [| (Model.copy m, C.copy c) |]
      | Merge (i, j) ->
        let m, c = !maps.(pick i) and m', c' = !maps.(pick j) in
        Model.merge ~into:m m';
        C.merge ~into:c c'
      | Roundtrip i -> (
        let k = pick i in
        let m, c = !maps.(k) in
        match J.of_string (json_string (C.to_json c)) with
        | Error e -> QCheck2.Test.fail_reportf "json parse: %s" e
        | Ok j -> (
          match C.of_json j with
          | Error e -> QCheck2.Test.fail_reportf "of_json: %s" e
          | Ok c' -> !maps.(k) <- (m, c'))));
      Array.for_all (fun (m, c) -> agree m c) !maps)
    ops

let tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"int-keyed coverage matches the tuple-keyed model"
         ~count:300 ~long_factor:20
         ~print:(fun ops -> String.concat "\n" (List.map print_op ops))
         QCheck2.Gen.(list_size (int_range 1 40) op_gen)
         run_script);
    Alcotest.test_case "copies evolve independently of the original" `Quick
      (fun () ->
        let c = C.create () in
        ignore (C.record c (trace_of [ (4, true, 3.0) ]));
        let c' = C.copy c in
        ignore (C.record c' (trace_of [ (4, false, 1.0); (9, true, 2.0) ]));
        Alcotest.(check int) "original" 1 (C.covered_count c);
        Alcotest.(check (option (float 0.0))) "original distance" (Some 3.0)
          (C.best_distance c (4, false));
        Alcotest.(check int) "copy" 3 (C.covered_count c'));
  ]

let suite = [ ("coverage: model", tests) ]
