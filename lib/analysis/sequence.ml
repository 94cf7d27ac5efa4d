module SS = Statevars.StringSet

let dependency_edges (t : Statevars.t) =
  List.concat_map
    (fun (w : Statevars.func_info) ->
      List.concat_map
        (fun (r : Statevars.func_info) ->
          if w.fn_name = r.fn_name then []
          else
            SS.elements (SS.inter w.writes r.reads)
            |> List.map (fun v -> (w.fn_name, r.fn_name, v)))
        t.funcs)
    t.funcs

module IS = Set.Make (Int)

let derive_base (t : Statevars.t) =
  let stateful, stateless =
    List.partition (fun (i : Statevars.func_info) -> i.touches_state) t.funcs
  in
  (* Stateful names in declaration order; a repeated name keeps its
     first position. *)
  let index = Hashtbl.create 16 in
  let names =
    List.filter_map
      (fun (i : Statevars.func_info) ->
        if Hashtbl.mem index i.fn_name then None
        else begin
          Hashtbl.add index i.fn_name (Hashtbl.length index);
          Some i.fn_name
        end)
      stateful
    |> Array.of_list
  in
  let n = Array.length names in
  (* Distinct writer -> reader pairs, counted once into in-degrees. *)
  let readers = Array.make n [] and in_degree = Array.make n 0 in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (w, r, _) ->
      match (Hashtbl.find_opt index w, Hashtbl.find_opt index r) with
      | Some wi, Some ri when not (Hashtbl.mem seen (wi, ri)) ->
        Hashtbl.add seen (wi, ri) ();
        readers.(wi) <- ri :: readers.(wi);
        in_degree.(ri) <- in_degree.(ri) + 1
      | _ -> ())
    (dependency_edges t);
  (* Kahn's algorithm with declaration-order tie-breaking; when only a
     cycle remains, peel the declaration-earliest node. *)
  let removed = Array.make n false in
  let ready = ref IS.empty in
  Array.iteri (fun i d -> if d = 0 then ready := IS.add i !ready) in_degree;
  let earliest = ref 0 in
  let order = ref [] in
  for _ = 1 to n do
    let next =
      match IS.min_elt_opt !ready with
      | Some i -> i
      | None ->
        while removed.(!earliest) do incr earliest done;
        !earliest
    in
    removed.(next) <- true;
    ready := IS.remove next !ready;
    order := names.(next) :: !order;
    List.iter
      (fun r ->
        in_degree.(r) <- in_degree.(r) - 1;
        if in_degree.(r) = 0 && not removed.(r) then ready := IS.add r !ready)
      readers.(next)
  done;
  List.rev !order
  @ List.map (fun (i : Statevars.func_info) -> i.fn_name) stateless

let repeat_mutation (t : Statevars.t) seq =
  let count name = List.length (List.filter (( = ) name) seq) in
  List.fold_left
    (fun seq (i : Statevars.func_info) ->
      if (not (Statevars.should_repeat t i)) || count i.fn_name > 1 then seq
      else begin
        (* The variables whose update is gated behind branches. *)
        let critical = SS.inter i.raw_vars t.all_branch_reads in
        let reads_critical name =
          match Statevars.info t name with
          | Some fi ->
            name <> i.fn_name
            && SS.exists (fun v -> SS.mem v fi.reads) critical
          | None -> false
        in
        (* Insert the repeated call right before the last reader of a
           critical variable; if none follows, append at the end. *)
        let last_reader_idx =
          List.fold_left
            (fun (best, idx) name ->
              ((if reads_critical name then Some idx else best), idx + 1))
            (None, 0) seq
          |> fst
        in
        match last_reader_idx with
        | Some idx ->
          List.concat
            (List.mapi
               (fun j name -> if j = idx then [ i.fn_name; name ] else [ name ])
               seq)
        | None -> seq @ [ i.fn_name ]
      end)
    seq t.funcs

let derive t = repeat_mutation t (derive_base t)

let random_sequence rng (t : Statevars.t) =
  Util.Rng.shuffle_list rng
    (List.map (fun (i : Statevars.func_info) -> i.fn_name) t.funcs)
