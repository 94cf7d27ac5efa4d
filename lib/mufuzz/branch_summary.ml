type side = int

let[@inline] side pc taken = (pc lsl 1) lor Bool.to_int taken
let branch k = (k lsr 1, k land 1 = 1)

module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = k
end)

type t = {
  keys : int array;
  hits : int array;
  dists : float array;
  nested : bool array;
  weights : float array;  (* empty when the builder does not weigh *)
}

let sorted_branches keys =
  let keys = Array.copy keys in
  Array.sort Int.compare keys;
  Array.fold_right (fun k acc -> branch k :: acc) keys []

let path t = sorted_branches t.keys

let nested_sides t =
  sorted_branches
    (Array.of_list
       (List.filteri (fun i _ -> t.nested.(i)) (Array.to_list t.keys)))

let weighted_sides t =
  List.init (Array.length t.weights) (fun i -> (branch t.keys.(i), t.weights.(i)))

(* ---------------- the builder ----------------

   Sides are interned once per campaign into dense ids through an
   open-addressing table (linear probing, load at most 1/2); per-id
   arrays hold the current run's facts, valid where [stamp] equals the
   run's generation, so starting a run costs one increment however many
   sides the last one touched. Everything is sized by the contract's
   JUMPI count, so it stays a few kilobytes. *)

type builder = {
  weighing : bool;
  params : Analysis.Prefix.params;  (* read only when weighing *)
  cfg : Analysis.Cfg.t;
  mutable table : int array;  (* id, or -1 for an empty slot *)
  mutable count : int;  (* interned sides *)
  (* per id *)
  mutable ids_key : int array;
  mutable flip_vuln : bool array;
  mutable stamp : int array;
  mutable b_hits : int array;
  mutable b_dist : float array;
  mutable b_nested : bool array;
  mutable b_weight : float array;
  mutable order : int array;  (* ids this run touched, first visit first *)
  mutable n : int;
  mutable gen : int;
  (* (id, ordinal) pairs of this transaction's branch events that no
     vulnerable event has followed yet *)
  mutable pend : int array;
  mutable npend : int;
}

let rec pow2_above n k = if k >= n then k else pow2_above n (2 * k)

let builder ?weigh cfg =
  let cap = Stdlib.max 16 (2 * List.length (Analysis.Cfg.branch_points cfg)) in
  {
    weighing = Option.is_some weigh;
    params = Option.value weigh ~default:Analysis.Prefix.default_params;
    cfg;
    table = Array.make (pow2_above (2 * cap) 16) (-1);
    count = 0;
    ids_key = Array.make cap 0;
    flip_vuln = Array.make cap false;
    stamp = Array.make cap 0;
    b_hits = Array.make cap 0;
    b_dist = Array.make cap 0.0;
    b_nested = Array.make cap false;
    b_weight = Array.make cap 0.0;
    order = Array.make cap 0;
    n = 0;
    gen = 0;
    pend = Array.make (if Option.is_some weigh then 64 else 0) 0;
    npend = 0;
  }

let grow_ids b =
  let cap = 2 * Array.length b.ids_key in
  let ext a fill =
    let a' = Array.make cap fill in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  in
  b.ids_key <- ext b.ids_key 0;
  b.flip_vuln <- ext b.flip_vuln false;
  b.stamp <- ext b.stamp 0;
  b.b_hits <- ext b.b_hits 0;
  b.b_dist <- ext b.b_dist 0.0;
  b.b_nested <- ext b.b_nested false;
  b.b_weight <- ext b.b_weight 0.0;
  b.order <- ext b.order 0

let rec place table mask id h =
  if table.(h) < 0 then table.(h) <- id else place table mask id ((h + 1) land mask)

let rehash b =
  let table = Array.make (2 * Array.length b.table) (-1) in
  let mask = Array.length table - 1 in
  for id = 0 to b.count - 1 do
    place table mask id (b.ids_key.(id) land mask)
  done;
  b.table <- table

let add b k h =
  let id = b.count in
  if id = Array.length b.ids_key then grow_ids b;
  b.count <- id + 1;
  b.ids_key.(id) <- k;
  b.flip_vuln.(id) <-
    b.weighing
    && Analysis.Prefix.flip_vulnerable b.cfg ~pc:(k lsr 1) ~taken:(k land 1 = 1);
  b.table.(h) <- id;
  if 2 * b.count > Array.length b.table then rehash b;
  id

let rec intern b k h =
  let id = b.table.(h) in
  if id < 0 then add b k h
  else if b.ids_key.(id) = k then id
  else intern b k ((h + 1) land (Array.length b.table - 1))

let grow_pending b =
  let a = Array.make (2 * Array.length b.pend) 0 in
  Array.blit b.pend 0 a 0 (2 * b.npend);
  b.pend <- a

let push_pending b id ord =
  if 2 * b.npend + 2 > Array.length b.pend then grow_pending b;
  b.pend.(2 * b.npend) <- id;
  b.pend.((2 * b.npend) + 1) <- ord;
  b.npend <- b.npend + 1

(* Weigh the pending branch events: a vulnerable event followed them
   ([vulnerable]) or the transaction ended. The expression is
   [Analysis.Prefix.analyze_trace]'s, restated here so that it stays an
   unboxed float. *)
let settle b ~vulnerable =
  let p = b.params in
  for j = 0 to b.npend - 1 do
    let id = b.pend.(2 * j) in
    let w =
      (p.nested_coeff *. float_of_int b.pend.((2 * j) + 1))
      +. if vulnerable || b.flip_vuln.(id) then p.vuln_bonus else 0.0
    in
    if not (b.b_weight.(id) >= w) then b.b_weight.(id) <- w
  done;
  b.npend <- 0

let copy_out b =
  let n = b.n in
  let keys = Array.make n 0 and hits = Array.make n 0 in
  let dists = Array.make n 0.0 and nested = Array.make n false in
  let weights = Array.make (if b.weighing then n else 0) 0.0 in
  for i = 0 to n - 1 do
    let id = b.order.(i) in
    keys.(i) <- b.ids_key.(id);
    hits.(i) <- b.b_hits.(id);
    dists.(i) <- b.b_dist.(id);
    nested.(i) <- b.b_nested.(id);
    if b.weighing then weights.(i) <- b.b_weight.(id)
  done;
  { keys; hits; dists; nested; weights }

let visit b ord k d =
  let h = k land (Array.length b.table - 1) in
  let id = b.table.(h) in
  let id = if id >= 0 && b.ids_key.(id) = k then id else intern b k h in
  if b.stamp.(id) <> b.gen then begin
    b.stamp.(id) <- b.gen;
    b.b_hits.(id) <- 1;
    b.b_dist.(id) <- d;
    b.b_nested.(id) <- ord >= 2;
    b.b_weight.(id) <- neg_infinity;
    b.order.(b.n) <- id;
    b.n <- b.n + 1
  end
  else begin
    b.b_hits.(id) <- b.b_hits.(id) + 1;
    if not (b.b_dist.(id) <= d) then b.b_dist.(id) <- d;
    if ord >= 2 then b.b_nested.(id) <- true
  end;
  if b.weighing then push_pending b id ord

(* One transaction's events; [ord] counts its JUMPIs so far. Distances
   keep the first minimum ([<=] holds the incumbent) and weights the
   first maximum ([>=]), the tie rules of the per-event folds they
   replace. A dispatch visits its groups in order, as the [Branch]
   events of its expansion would, without building them. *)
let rec fold_events b ord (evs : Evm.Trace.event list) =
  match evs with
  | [] -> if b.weighing then settle b ~vulnerable:false
  | Branch { pc; taken; dist_to_flip; _ } :: rest ->
    visit b (ord + 1) (side pc taken) dist_to_flip;
    fold_events b (ord + 1) rest
  | Dispatch { pc; consts; passed; hit; sel; _ } :: rest ->
    for j = 0 to passed - 1 do
      let taken = Evm.Trace.group_taken ~passed ~hit j in
      visit b (ord + j + 1)
        (side (Evm.Trace.group_pc pc j) taken)
        (Evm.Trace.group_dist consts sel ~taken j)
    done;
    fold_events b (ord + passed) rest
  | ev :: rest ->
    if b.weighing && Analysis.Prefix.is_vulnerable_event ev then
      settle b ~vulnerable:true;
    fold_events b ord rest

let rec fold_results b = function
  | [] -> ()
  | (r : Executor.tx_result) :: rest ->
    fold_events b 0 r.trace.events;
    fold_results b rest

let summarize b results =
  b.gen <- b.gen + 1;
  b.n <- 0;
  fold_results b results;
  copy_out b
