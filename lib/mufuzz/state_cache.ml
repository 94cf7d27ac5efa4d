type snapshot = {
  state : Evm.State.t;
  block : Evm.Interp.block_env;
  tx_results : Executor_types.tx_result list;
  received_value : bool;
}

(* Bounded LRU approximated by a second-chance clock: entries live in a
   ring of [capacity] slots; a hit sets the entry's referenced bit, and
   the clock hand skips (and clears) referenced entries before evicting.
   The previous implementation reset the whole table when full, which
   threw away exactly the hot prefixes the executor was about to ask
   for; the clock evicts only cold entries, one at a time. *)

type entry = {
  e_key : string;
  mutable e_snap : snapshot;
  mutable referenced : bool;
}

type t = {
  table : (string, entry) Hashtbl.t;
  slots : entry option array;
  mutable hand : int;
  mutable occupied : int;
  capacity : int;
  mutable hit_count : int;
  mutable miss_count : int;
  mutable eviction_count : int;
  (* counts already pushed into the registry; the hot find/store path
     only touches the plain local counts above — registry atomics are
     cross-domain cache-line traffic, paid once per [flush_metrics] *)
  mutable flushed_hits : int;
  mutable flushed_misses : int;
  mutable flushed_evictions : int;
  c_hits : Telemetry.Metrics.counter option;
  c_misses : Telemetry.Metrics.counter option;
  c_evictions : Telemetry.Metrics.counter option;
}

let create ?(capacity = 4096) ?metrics () =
  let capacity = Stdlib.max 1 capacity in
  let counter name help =
    Option.map
      (fun m -> Telemetry.Metrics.counter m name ~help)
      metrics
  in
  {
    table = Hashtbl.create 256;
    slots = Array.make capacity None;
    hand = 0;
    occupied = 0;
    capacity;
    hit_count = 0;
    miss_count = 0;
    eviction_count = 0;
    flushed_hits = 0;
    flushed_misses = 0;
    flushed_evictions = 0;
    c_hits = counter "mufuzz_cache_hits_total" "prefix-state cache hits";
    c_misses = counter "mufuzz_cache_misses_total" "prefix-state cache misses";
    c_evictions =
      counter "mufuzz_cache_evictions_total"
        "prefix-state cache entries evicted by the clock hand";
  }

let flush_metrics t =
  let push c current flushed =
    match c with
    | Some c when current > flushed -> Telemetry.Metrics.add c (current - flushed)
    | _ -> ()
  in
  push t.c_hits t.hit_count t.flushed_hits;
  push t.c_misses t.miss_count t.flushed_misses;
  push t.c_evictions t.eviction_count t.flushed_evictions;
  t.flushed_hits <- t.hit_count;
  t.flushed_misses <- t.miss_count;
  t.flushed_evictions <- t.eviction_count

let digest_tx prev (tx : Seed.tx) =
  Crypto.Keccak.hash
    (prev ^ Abi.selector tx.fn ^ String.make 1 (Char.chr (tx.sender land 0xff))
   ^ tx.stream)

let find t key =
  match Hashtbl.find_opt t.table key with
  | Some e ->
    e.referenced <- true;
    t.hit_count <- t.hit_count + 1;
    Some e.e_snap
  | None ->
    t.miss_count <- t.miss_count + 1;
    None

(* Advance the hand to a victim slot: clear referenced bits as it
   passes, stopping at the first unreferenced entry. Terminates within
   two sweeps (after one sweep every bit is clear). *)
let evict_one t =
  let rec spin () =
    match t.slots.(t.hand) with
    | Some e when e.referenced ->
      e.referenced <- false;
      t.hand <- (t.hand + 1) mod t.capacity;
      spin ()
    | Some e ->
      Hashtbl.remove t.table e.e_key;
      t.eviction_count <- t.eviction_count + 1;
      let slot = t.hand in
      t.hand <- (t.hand + 1) mod t.capacity;
      slot
    | None ->
      (* only reachable when not yet full; callers avoid this *)
      let slot = t.hand in
      t.hand <- (t.hand + 1) mod t.capacity;
      slot
  in
  spin ()

let store t key snapshot =
  match Hashtbl.find_opt t.table key with
  | Some e ->
    e.e_snap <- snapshot;
    e.referenced <- true
  | None ->
    let slot =
      if t.occupied < t.capacity then begin
        let s = t.occupied in
        t.occupied <- t.occupied + 1;
        s
      end
      else evict_one t
    in
    let e = { e_key = key; e_snap = snapshot; referenced = false } in
    t.slots.(slot) <- Some e;
    Hashtbl.replace t.table key e

let hits t = t.hit_count
let misses t = t.miss_count
let evictions t = t.eviction_count
