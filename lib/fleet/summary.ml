module J = Telemetry.Json

let format_tag = "mufuzz-fleet-summary"

let current_version = 1

(* All aggregation arithmetic is integer fixed-point: coverage ratios
   become micro-percent ([upct], 100% = 100_000_000) at fold time and
   only turn into floats when a CSV cell is printed. Integer addition is
   associative and commutative, so merging shard summaries in any order
   — or replaying half a shard after a SIGKILL — yields bit-identical
   aggregates, which the resume guarantee depends on. *)
let upct ~total ~covered =
  if total <= 0 then 0 else ((100_000_000 * covered) + (total / 2)) / total

type cell = {
  c_n : int;  (** campaigns folded into this (tool, size) cell *)
  c_final_upct : int;  (** sum of final coverage micro-percent *)
  c_curve : int array;  (** per-bucket sums of coverage micro-percent *)
  c_classes : (string * (int * int)) list;
      (** bug class -> (contracts flagging it, total occurrences);
          sorted by class *)
}

type t = {
  s_buckets : int;
  s_contracts : int;
  s_execs : int;
  s_steps : int;
  s_failed : (string * string) list;  (** sorted (name, reason) *)
  s_cells : ((string * string) * cell) list;  (** sorted by (tool, size) *)
}

type obs = {
  o_execs : int;
  o_steps : int;
  o_total_sides : int;
  o_final_covered : int;
  o_over_time : (int * int) list;  (** (execs, covered), execution order *)
  o_classes : (string * int) list;  (** class -> occurrences, sorted *)
}

let empty ~buckets =
  if buckets < 1 then invalid_arg "Summary.empty: buckets must be >= 1";
  {
    s_buckets = buckets;
    s_contracts = 0;
    s_execs = 0;
    s_steps = 0;
    s_failed = [];
    s_cells = [];
  }

(* union of two sorted assoc lists, combining payloads on key collision *)
let rec merge_assoc combine a b =
  match (a, b) with
  | [], l | l, [] -> l
  | (ka, va) :: ta, (kb, vb) :: tb ->
    let c = compare ka kb in
    if c < 0 then (ka, va) :: merge_assoc combine ta b
    else if c > 0 then (kb, vb) :: merge_assoc combine a tb
    else (ka, combine va vb) :: merge_assoc combine ta tb

let empty_cell buckets =
  { c_n = 0; c_final_upct = 0; c_curve = Array.make buckets 0; c_classes = [] }

let merge_cell ~buckets a b =
  if Array.length a.c_curve <> buckets || Array.length b.c_curve <> buckets then
    invalid_arg "Summary.merge: curve length disagrees with buckets";
  {
    c_n = a.c_n + b.c_n;
    c_final_upct = a.c_final_upct + b.c_final_upct;
    c_curve = Array.init buckets (fun i -> a.c_curve.(i) + b.c_curve.(i));
    c_classes =
      merge_assoc
        (fun (n1, o1) (n2, o2) -> (n1 + n2, o1 + o2))
        a.c_classes b.c_classes;
  }

(* [coverage_at] from the bench harness, in integers: best covered count
   among checkpoints at or before [execs]. *)
let covered_at over_time execs =
  List.fold_left
    (fun acc (e, covered) -> if e <= execs then Stdlib.max acc covered else acc)
    0 over_time

let fold t ~tool ~size ~budget obs =
  let buckets = t.s_buckets in
  let contrib =
    {
      c_n = 1;
      c_final_upct = upct ~total:obs.o_total_sides ~covered:obs.o_final_covered;
      c_curve =
        Array.init buckets (fun b ->
            let thr = (b + 1) * budget / buckets in
            upct ~total:obs.o_total_sides
              ~covered:(covered_at obs.o_over_time thr));
      c_classes = List.map (fun (cls, occ) -> (cls, (1, occ))) obs.o_classes;
    }
  in
  {
    t with
    s_execs = t.s_execs + obs.o_execs;
    s_steps = t.s_steps + obs.o_steps;
    s_cells =
      merge_assoc (merge_cell ~buckets) t.s_cells [ ((tool, size), contrib) ];
  }

let contract_done t = { t with s_contracts = t.s_contracts + 1 }

let fold_failure t ~name ~reason =
  { t with s_failed = List.sort compare ((name, reason) :: t.s_failed) }

let merge a b =
  if a.s_buckets <> b.s_buckets then
    invalid_arg "Summary.merge: bucket counts differ";
  {
    s_buckets = a.s_buckets;
    s_contracts = a.s_contracts + b.s_contracts;
    s_execs = a.s_execs + b.s_execs;
    s_steps = a.s_steps + b.s_steps;
    s_failed = List.sort compare (a.s_failed @ b.s_failed);
    s_cells = merge_assoc (merge_cell ~buckets:a.s_buckets) a.s_cells b.s_cells;
  }

(* ---------------- building observations ---------------- *)

let group_classes pairs =
  let tbl = Hashtbl.create 7 in
  List.iter
    (fun (cls, occ) ->
      Hashtbl.replace tbl cls (occ + Option.value ~default:0 (Hashtbl.find_opt tbl cls)))
    pairs;
  Hashtbl.fold (fun cls occ acc -> (cls, occ) :: acc) tbl []
  |> List.sort compare

let obs_of_report (r : Mufuzz.Report.t) =
  {
    o_execs = r.executions;
    o_steps = r.steps;
    o_total_sides = r.total_branch_sides;
    o_final_covered = r.covered_branches;
    o_over_time =
      List.map
        (fun (cp : Mufuzz.Report.checkpoint) -> (cp.execs, cp.covered))
        r.over_time;
    o_classes =
      group_classes
        (List.map
           (fun ((k : Oracles.Oracle.key), count) ->
             (Oracles.Oracle.class_to_string k.k_cls, count))
           r.occurrences);
  }

(* Same observation, but from the JSON report a serve daemon returns
   (the daemon-dispatch path never has the in-memory [Report.t]). *)
let obs_of_report_json json =
  let open J.Decode in
  let* o_execs = field "executions" int json in
  let* o_steps = field "steps" int json in
  let* o_total_sides = field "total_branch_sides" int json in
  let* o_final_covered = field "covered_branches" int json in
  let* o_over_time =
    field "over_time"
      (list (fun cp ->
           let* e = field "execs" int cp in
           let* c = field "covered" int cp in
           Ok (e, c)))
      json
  in
  let* pairs =
    field "unique_findings"
      (list (fun u ->
           let* cls = field "class" string u in
           let* count = field "count" int u in
           Ok (cls, count)))
      json
  in
  Ok
    {
      o_execs;
      o_steps;
      o_total_sides;
      o_final_covered;
      o_over_time;
      o_classes = group_classes pairs;
    }

(* ---------------- serialization ---------------- *)

let to_json t =
  J.Obj
    [
      ("format", J.String format_tag);
      ("version", J.Int current_version);
      ("buckets", J.Int t.s_buckets);
      ("contracts", J.Int t.s_contracts);
      ("execs", J.Int t.s_execs);
      ("steps", J.Int t.s_steps);
      ( "failed",
        J.List
          (List.map
             (fun (name, reason) ->
               J.Obj [ ("name", J.String name); ("reason", J.String reason) ])
             t.s_failed) );
      ( "cells",
        J.List
          (List.map
             (fun ((tool, size), c) ->
               J.Obj
                 [
                   ("tool", J.String tool);
                   ("size", J.String size);
                   ("n", J.Int c.c_n);
                   ("final_upct", J.Int c.c_final_upct);
                   ( "curve",
                     J.List
                       (Array.to_list (Array.map (fun v -> J.Int v) c.c_curve))
                   );
                   ( "classes",
                     J.List
                       (List.map
                          (fun (cls, (n, occ)) ->
                            J.Obj
                              [
                                ("class", J.String cls);
                                ("contracts", J.Int n);
                                ("occurrences", J.Int occ);
                              ])
                          c.c_classes) );
                 ])
             t.s_cells) );
    ]

let of_json json =
  let open J.Decode in
  let* () = header ~format:format_tag ~version:current_version json in
  let* s_buckets = field "buckets" int json in
  if s_buckets < 1 then Error "buckets: must be >= 1"
  else
    let* s_contracts = field "contracts" int json in
    let* s_execs = field "execs" int json in
    let* s_steps = field "steps" int json in
    let* s_failed =
      field "failed"
        (list (fun f ->
             let* name = field "name" string f in
             let* reason = field "reason" string f in
             Ok (name, reason)))
        json
    in
    let curve j =
      let* curve = list int j in
      if List.length curve = s_buckets then Ok (Array.of_list curve)
      else
        Error
          (Printf.sprintf "%d points, buckets=%d" (List.length curve) s_buckets)
    in
    let cls j =
      let* cls = field "class" string j in
      let* n = field "contracts" int j in
      let* occ = field "occurrences" int j in
      Ok (cls, (n, occ))
    in
    let cell j =
      let* tool = field "tool" string j in
      let* size = field "size" string j in
      let* c_n = field "n" int j in
      let* c_final_upct = field "final_upct" int j in
      let* c_curve = field "curve" curve j in
      let* c_classes = field "classes" (list cls) j in
      Ok
        ( (tool, size),
          { c_n; c_final_upct; c_curve; c_classes = List.sort compare c_classes }
        )
    in
    let* s_cells = field "cells" (list cell) json in
    Ok
      {
        s_buckets;
        s_contracts;
        s_execs;
        s_steps;
        s_failed = List.sort compare s_failed;
        s_cells = List.sort (fun (a, _) (b, _) -> compare a b) s_cells;
      }

let to_string t = J.to_string (to_json t)

let of_string s = Result.bind (J.of_string s) of_json

(* ---------------- CSV rendering ---------------- *)

let cell t ~tool ~size =
  Option.value ~default:(empty_cell t.s_buckets)
    (List.assoc_opt (tool, size) t.s_cells)

let mean_pct sum_upct n =
  if n = 0 then 0.0 else float_of_int sum_upct /. float_of_int n /. 1e6

let fig5_csv t ~tools ~size ~budget =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (String.concat "," ("execs" :: tools));
  Buffer.add_char buf '\n';
  for b = 0 to t.s_buckets - 1 do
    let execs = (b + 1) * budget / t.s_buckets in
    Buffer.add_string buf (string_of_int execs);
    List.iter
      (fun tool ->
        let c = cell t ~tool ~size in
        Buffer.add_string buf
          (Printf.sprintf ",%.2f" (mean_pct c.c_curve.(b) c.c_n)))
      tools;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let fig6_csv t ~tools =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "fuzzer,small,large\n";
  List.iter
    (fun tool ->
      let final size =
        let c = cell t ~tool ~size in
        mean_pct c.c_final_upct c.c_n
      in
      Buffer.add_string buf
        (Printf.sprintf "%s,%.2f,%.2f\n" tool (final "small") (final "large")))
    tools;
  Buffer.contents buf

let findings_csv t ~tools =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "tool,size,class,contracts,occurrences\n";
  List.iter
    (fun tool ->
      List.iter
        (fun size ->
          let c = cell t ~tool ~size in
          List.iter
            (fun (cls, (n, occ)) ->
              Buffer.add_string buf
                (Printf.sprintf "%s,%s,%s,%d,%d\n" tool size cls n occ))
            c.c_classes)
        [ "small"; "large" ])
    tools;
  Buffer.contents buf
