type branch = int * bool

(* A side [(pc, taken)] is keyed as [pc lsl 1 lor taken] (the
   [Branch_summary.side] key), so each lookup hashes one int and the
   flip side is [k lxor 1]. Values are plain ints and floats, so [copy]
   is a bucket copy. Keys are injective for [0 <= pc <= max_key_pc];
   traces only produce such pcs and [of_json] rejects the rest. *)
module Tbl = Branch_summary.Tbl

let max_key_pc = max_int asr 1
let key = Branch_summary.side
let branch_of_key = Branch_summary.branch

type t = {
  hits : int Tbl.t;
  (* best distance toward an uncovered side, keyed by that side *)
  dists : float Tbl.t;
}

let create () = { hits = Tbl.create 256; dists = Tbl.create 256 }

let is_covered t (pc, taken) = Tbl.mem t.hits (key pc taken)

(* One branch event; true when its side is newly covered. *)
let record_branch t pc taken dist_to_flip =
  let k = key pc taken in
  let fresh =
    match Tbl.find_opt t.hits k with
    | Some n ->
      Tbl.replace t.hits k (n + 1);
      false
    | None ->
      Tbl.replace t.hits k 1;
      Tbl.remove t.dists k;
      true
  in
  let flip = k lxor 1 in
  if not (Tbl.mem t.hits flip) then begin
    match Tbl.find_opt t.dists flip with
    | Some d when d <= dist_to_flip -> ()
    | _ -> Tbl.replace t.dists flip dist_to_flip
  end;
  fresh

(* A dispatch records its groups in order, as its expansion would. *)
let record t (trace : Evm.Trace.t) =
  let fresh = ref false in
  List.iter
    (fun ev ->
      match ev with
      | Evm.Trace.Branch { pc; taken; dist_to_flip; _ } ->
        if record_branch t pc taken dist_to_flip then fresh := true
      | Dispatch { pc; consts; passed; hit; sel; _ } ->
        for j = 0 to passed - 1 do
          let taken = Evm.Trace.group_taken ~passed ~hit j in
          if
            record_branch t (Evm.Trace.group_pc pc j) taken
              (Evm.Trace.group_dist consts sel ~taken j)
          then fresh := true
        done
      | _ -> ())
    trace.events;
  !fresh

(* The per-run fold, from a summary: one hit update per distinct side,
   then one distance update per side whose twin is still uncovered once
   the whole run is in. A per-event fold reaches the same table: a twin
   covered later in the run drops its distance when it is first hit and
   takes none after, and the summary's first-minimum distance combines
   with the stored one exactly as the events would one by one (the
   interpreter's distances are finite, so the minimum is associative). *)
let record_run t (s : Branch_summary.t) =
  let fresh = ref false in
  let n = Array.length s.keys in
  for i = 0 to n - 1 do
    let k = s.keys.(i) in
    match Tbl.find_opt t.hits k with
    | Some h -> Tbl.replace t.hits k (h + s.hits.(i))
    | None ->
      Tbl.replace t.hits k s.hits.(i);
      fresh := true;
      Tbl.remove t.dists k
  done;
  for i = 0 to n - 1 do
    let flip = s.keys.(i) lxor 1 in
    if not (Tbl.mem t.hits flip) then begin
      match Tbl.find_opt t.dists flip with
      | Some d when d <= s.dists.(i) -> ()
      | _ -> Tbl.replace t.dists flip s.dists.(i)
    end
  done;
  !fresh

let copy t = { hits = Tbl.copy t.hits; dists = Tbl.copy t.dists }

(* Merge [src] into [dst]. Hit counts take the max (counts are never read
   as semantics, and max — unlike sum — makes the merge idempotent);
   distances take the min and are dropped for sides that became covered,
   preserving the invariant that [dists] only tracks uncovered sides.
   Commutative and idempotent over the observable state (covered set +
   best distances), so domain-local maps can be folded into the global
   map in any batch order. *)
let merge ~into:dst src =
  Tbl.iter
    (fun k n ->
      match Tbl.find_opt dst.hits k with
      | Some m -> if n > m then Tbl.replace dst.hits k n
      | None ->
        Tbl.replace dst.hits k n;
        Tbl.remove dst.dists k)
    src.hits;
  Tbl.iter
    (fun k d ->
      if not (Tbl.mem dst.hits k) then
        match Tbl.find_opt dst.dists k with
        | Some d' when d' <= d -> ()
        | _ -> Tbl.replace dst.dists k d)
    src.dists

let covered_count t = Tbl.length t.hits

let covered t = Tbl.fold (fun k _ acc -> branch_of_key k :: acc) t.hits []

(* Sorting keys sorts sides by [(pc, taken)], as both are non-negative. *)
let uncovered_frontier t =
  Tbl.fold
    (fun k _ acc ->
      let flip = k lxor 1 in
      if Tbl.mem t.hits flip then acc else flip :: acc)
    t.hits []
  |> List.sort_uniq Int.compare
  |> List.map branch_of_key

let best_distance t (pc, taken) = Tbl.find_opt t.dists (key pc taken)

(* A visit to [k] is a visit toward [k lxor 1], which counts while that
   side is uncovered and [k] itself covered. Sorting keys sorts sides. *)
let frontier_dists t (s : Branch_summary.t) =
  let acc = ref [] in
  for i = Array.length s.keys - 1 downto 0 do
    let k = s.keys.(i) in
    if Tbl.mem t.hits k && not (Tbl.mem t.hits (k lxor 1)) then
      acc := (k lxor 1, s.dists.(i)) :: !acc
  done;
  List.sort (fun (a, _) (b, _) -> Int.compare a b) !acc
  |> List.map (fun (k, d) -> (branch_of_key k, d))

let total_sides_known t =
  covered_count t + List.length (uncovered_frontier t)

(* ---------------- JSON codec (campaign checkpoints) ---------------- *)

module J = Telemetry.Json

(* Iteration order of the tables is never observed (every reader sorts
   or tests membership), so the codec is free to emit a canonical sorted
   form — which also makes [to_json] byte-stable across save/load. *)
let to_json t =
  let sorted tbl =
    Tbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (k, _) (k', _) -> Int.compare k k')
  in
  let branch_fields k =
    let pc, taken = branch_of_key k in
    [ ("pc", J.Int pc); ("taken", J.Bool taken) ]
  in
  let hits =
    List.map (fun (k, n) -> J.Obj (branch_fields k @ [ ("n", J.Int n) ])) (sorted t.hits)
  in
  let dists =
    List.map (fun (k, d) -> J.Obj (branch_fields k @ [ ("d", J.Float d) ])) (sorted t.dists)
  in
  J.Obj [ ("hits", J.List hits); ("dists", J.List dists) ]

let of_json j =
  let open J.Decode in
  let side j =
    let* pc = field "pc" int j in
    let* taken = field "taken" bool j in
    if pc < 0 || pc > max_key_pc then Error (Printf.sprintf "pc %d out of range" pc)
    else Ok (key pc taken)
  in
  let hit j =
    let* k = side j in
    let* n = field "n" int j in
    if n >= 1 then Ok (k, n) else Error "hit entry needs n >= 1"
  in
  let dist j =
    let* k = side j in
    let* d = field "d" float j in
    Ok (k, d)
  in
  let* hits = field "hits" (list hit) j in
  let* dists = field "dists" (list dist) j in
  let t = create () in
  List.iter (fun (k, n) -> Tbl.replace t.hits k n) hits;
  if List.exists (fun (k, _) -> Tbl.mem t.hits k) dists then
    Error "dists: entry for a covered side"
  else begin
    List.iter (fun (k, d) -> Tbl.replace t.dists k d) dists;
    Ok t
  end
