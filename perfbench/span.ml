(* In-memory spans recorded around the benchmark's calls into each layer
   of the program. Nothing inside the program is instrumented: a span's
   self time is what the layer it wraps spent outside the child spans
   the benchmark opened within it. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  name : string;
  start : float;
  stop : float;
}

type t = {
  run : string;  (** shared by every span of one benchmark run *)
  mutable on : bool;
  mutable next : int;
  mutable stack : int list;
  mutable spans : span list;  (** newest first *)
}

let create ~run = { run; on = false; next = 0; stack = []; spans = [] }

let now = Unix.gettimeofday

(* Run [f] inside a span named [name]; a no-op when recording is off. *)
let with_span t name f =
  if not t.on then f ()
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let start = now () in
    let finish () =
      t.stack <- List.tl t.stack;
      t.spans <- { id; parent; name; start; stop = now () } :: t.spans
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let spans t = List.rev t.spans

(* Length of the union of [(start, stop)] intervals clipped to
   [lo, hi]: overlapping children (work that ran concurrently) are
   counted once. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (s, e) ->
        let s = Float.max s lo and e = Float.min e hi in
        if e > s then Some (s, e) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (s, e) ->
        match cur with
        | None -> (total, Some (s, e))
        | Some (cs, ce) ->
          if s <= ce then (total, Some (cs, Float.max ce e))
          else (total +. (ce -. cs), Some (s, e)))
      (0.0, None) sorted
  in
  match last with None -> total | Some (s, e) -> total +. (e -. s)

let self_time (s : span) ~children =
  s.stop -. s.start
  -. covered ~lo:s.start ~hi:s.stop
       (List.map (fun (c : span) -> (c.start, c.stop)) children)

(* [(name, (count, total seconds, total self seconds))], sorted by name. *)
let summarize spans =
  let kids = Hashtbl.create 64 in
  List.iter
    (fun (s : span) -> if s.parent >= 0 then Hashtbl.add kids s.parent s)
    spans;
  let acc = Hashtbl.create 32 in
  List.iter
    (fun (s : span) ->
      let self = self_time s ~children:(Hashtbl.find_all kids s.id) in
      let n, tot, st =
        Option.value (Hashtbl.find_opt acc s.name) ~default:(0, 0.0, 0.0)
      in
      Hashtbl.replace acc s.name (n + 1, tot +. (s.stop -. s.start), st +. self))
    spans;
  List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) acc [])

let write t path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"run\":%S,\"id\":%d,\"parent\":%d,\"name\":%S,\"start\":%.6f,\"end\":%.6f}\n"
        t.run s.id s.parent s.name s.start s.stop)
    (spans t);
  close_out oc
