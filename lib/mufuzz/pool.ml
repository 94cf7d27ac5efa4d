(* Work-stealing pool of stdlib Domains.

   Each worker owns a deque; [run_batch] deals tasks round-robin across
   the deques and workers pop from their own front, stealing from the
   back of a sibling when theirs runs dry. All queues share one mutex —
   batches are coarse (a handful of seed-energy tasks per round), so a
   single lock is never contended long enough to matter and keeps the
   invariants trivial. Workers park on a condition variable between
   rounds; the time spent parked while a batch is still in flight is the
   "merge stall" surfaced in reports. *)

type stats = {
  tasks_run : int array;
  busy_seconds : float array;
  stall_seconds : float array;
  merge_wait_seconds : float;
  steals : int;
}

type t = {
  size : int;
  mutex : Mutex.t;
  work_available : Condition.t;
  batch_done : Condition.t;
  deques : (int -> unit) Queue.t array;  (* per-worker; task gets worker id *)
  mutable pending : int;  (* submitted tasks not yet completed *)
  mutable in_batch : bool;  (* a run_batch is in flight: parking = stall *)
  mutable stop : bool;
  tasks_run : int array;
  busy_seconds : float array;
  stall_seconds : float array;
  mutable steals : int;
  mutable merge_wait : float;  (* coordinator seconds blocked at barriers *)
  mutable domains : unit Domain.t array;
  (* telemetry, rebound by [attach] between batches: workers read these
     only after taking a task under the mutex, so a rebinding under the
     mutex is seen by every later task *)
  mutable bus : Telemetry.Bus.t;
  mutable m_tasks : Telemetry.Metrics.counter option;
  mutable m_steals : Telemetry.Metrics.counter option;
  mutable m_merge_wait : Telemetry.Metrics.gauge option;
  mutable m_idle : Telemetry.Metrics.gauge option;
  mutable merge_wait_base : float;  (* [merge_wait] at the last attach *)
  mutable idle_base : float;  (* summed [stall_seconds] at the last attach *)
}

let size t = t.size

(* Pop from own front, else steal from the back of the first non-empty
   sibling (scanning forward from the thief's index so victims rotate).
   Caller holds the mutex. *)
let take_task t me =
  if not (Queue.is_empty t.deques.(me)) then Some (Queue.pop t.deques.(me))
  else begin
    let found = ref None in
    for k = 1 to t.size - 1 do
      let victim = (me + k) mod t.size in
      if !found = None && not (Queue.is_empty t.deques.(victim)) then begin
        (* steal the most recently dealt task: drain to reach the back *)
        let q = t.deques.(victim) in
        let n = Queue.length q in
        let stolen = ref (Queue.pop q) in
        for _ = 2 to n do
          Queue.push !stolen q;
          stolen := Queue.pop q
        done;
        t.steals <- t.steals + 1;
        (match t.m_steals with Some c -> Telemetry.Metrics.incr c | None -> ());
        Telemetry.Bus.emit t.bus
          (Telemetry.Event.Pool_steal { thief = me; victim });
        found := Some !stolen
      end
    done;
    !found
  end

let worker t me =
  let running = ref true in
  while !running do
    Mutex.lock t.mutex;
    let rec next () =
      match take_task t me with
      | Some task -> Some task
      | None ->
        if t.stop then None
        else begin
          let t0 = Unix.gettimeofday () in
          Condition.wait t.work_available t.mutex;
          if t.in_batch then
            t.stall_seconds.(me) <-
              t.stall_seconds.(me) +. (Unix.gettimeofday () -. t0);
          next ()
        end
    in
    (match next () with
    | None ->
      running := false;
      Mutex.unlock t.mutex
    | Some task ->
      Mutex.unlock t.mutex;
      let t0 = Unix.gettimeofday () in
      (try task me with _ -> ());
      t.busy_seconds.(me) <- t.busy_seconds.(me) +. (Unix.gettimeofday () -. t0);
      t.tasks_run.(me) <- t.tasks_run.(me) + 1;
      (match t.m_tasks with Some c -> Telemetry.Metrics.incr c | None -> ());
      Mutex.lock t.mutex;
      t.pending <- t.pending - 1;
      if t.pending = 0 then Condition.broadcast t.batch_done;
      Mutex.unlock t.mutex)
  done

let sum_stalls t = Array.fold_left ( +. ) 0.0 t.stall_seconds

(* Bind the pool's telemetry to [bus] and [metrics] (both off when
   omitted) and restart the wait gauges from zero. Callers attach only
   while no batch is in flight. *)
let attach ?(bus = Telemetry.Bus.null) ?metrics t =
  let handle name help =
    Option.map (fun m -> Telemetry.Metrics.counter m name ~help) metrics
  in
  let ghandle name help =
    Option.map (fun m -> Telemetry.Metrics.gauge m name ~help) metrics
  in
  Mutex.lock t.mutex;
  t.bus <- bus;
  t.m_tasks <- handle "mufuzz_pool_tasks_total" "tasks completed by the domain pool";
  t.m_steals <-
    handle "mufuzz_pool_steals_total" "tasks stolen from a sibling worker's deque";
  t.m_merge_wait <-
    ghandle "mufuzz_pool_merge_wait_seconds"
      "cumulative coordinator seconds blocked at batch barriers";
  t.m_idle <-
    ghandle "mufuzz_pool_worker_idle_seconds"
      "cumulative worker seconds parked while a batch was in flight";
  t.merge_wait_base <- t.merge_wait;
  t.idle_base <- sum_stalls t;
  Mutex.unlock t.mutex

(* The OCaml 5.1 and 5.2 runtimes run at most 128 domains at once; a
   pool past that fails in [Domain.spawn] with some of its workers
   already started. One fixed cap well below the limit, checked before
   anything is spawned. *)
let max_jobs = 64

let check_jobs jobs =
  if jobs > max_jobs then
    Error (Printf.sprintf "jobs must be at most %d, got %d" max_jobs jobs)
  else Ok (Stdlib.max 1 jobs)

let valid_jobs jobs =
  match check_jobs jobs with Ok j -> j | Error msg -> invalid_arg ("Pool: " ^ msg)

let create ?bus ?metrics ~jobs () =
  let jobs = valid_jobs jobs in
  let t =
    {
      size = jobs;
      mutex = Mutex.create ();
      work_available = Condition.create ();
      batch_done = Condition.create ();
      deques = Array.init jobs (fun _ -> Queue.create ());
      pending = 0;
      in_batch = false;
      stop = false;
      tasks_run = Array.make jobs 0;
      busy_seconds = Array.make jobs 0.0;
      stall_seconds = Array.make jobs 0.0;
      steals = 0;
      merge_wait = 0.0;
      domains = [||];
      bus = Telemetry.Bus.null;
      m_tasks = None;
      m_steals = None;
      m_merge_wait = None;
      m_idle = None;
      merge_wait_base = 0.0;
      idle_base = 0.0;
    }
  in
  attach ?bus ?metrics t;
  t.domains <- Array.init jobs (fun i -> Domain.spawn (fun () -> worker t i));
  t

(* Time a coordinator wait loop and fold it into the merge-wait total;
   caller holds the mutex across the whole call (Condition.wait drops
   it while parked, as usual). *)
let timed_wait t cond =
  let t0 = Unix.gettimeofday () in
  while cond () do
    Condition.wait t.batch_done t.mutex
  done;
  t.merge_wait <- t.merge_wait +. (Unix.gettimeofday () -. t0)

(* Publish the wait gauges, totals since the last attach; caller holds
   the mutex. *)
let publish_wait_metrics t =
  (match t.m_merge_wait with
  | Some g -> Telemetry.Metrics.set g (t.merge_wait -. t.merge_wait_base)
  | None -> ());
  match t.m_idle with
  | Some g -> Telemetry.Metrics.set g (sum_stalls t -. t.idle_base)
  | None -> ()

exception Task_error of exn

let run_batch t tasks =
  let n = Array.length tasks in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    let failure = ref None in
    Mutex.lock t.mutex;
    if t.pending <> 0 || t.in_batch then begin
      Mutex.unlock t.mutex;
      invalid_arg "Pool.run_batch: pool already running a batch"
    end;
    Array.iteri
      (fun i task ->
        let wrapped worker_id =
          match task worker_id with
          | v -> results.(i) <- Some v
          | exception e -> if !failure = None then failure := Some e
        in
        Queue.push wrapped t.deques.(i mod t.size))
      tasks;
    t.pending <- n;
    t.in_batch <- true;
    Condition.broadcast t.work_available;
    timed_wait t (fun () -> t.pending > 0);
    t.in_batch <- false;
    publish_wait_metrics t;
    Mutex.unlock t.mutex;
    match !failure with
    | Some e -> raise (Task_error e)
    | None ->
      Array.map
        (function Some v -> v | None -> invalid_arg "Pool.run_batch: lost result")
        results
  end

(* Incremental variant: merge results on the coordinator in submission
   order *while the rest of the batch is still running*, instead of
   parking until the whole batch drains. Workers flag each task's
   completion under the pool mutex, which doubles as the
   happens-before edge making the result write visible; the coordinator
   merges index 0, then 1, ... as each lands, overlapping merge work
   with sibling tasks. Submission order is preserved so merging stays
   deterministic regardless of which worker finished first. *)
let run_batch_iter t tasks ~merge =
  let n = Array.length tasks in
  if n = 0 then ()
  else begin
    let results = Array.make n None in
    let completed = Array.make n false in
    let failure = ref None in
    Mutex.lock t.mutex;
    if t.pending <> 0 || t.in_batch then begin
      Mutex.unlock t.mutex;
      invalid_arg "Pool.run_batch_iter: pool already running a batch"
    end;
    Array.iteri
      (fun i task ->
        let wrapped worker_id =
          (match task worker_id with
          | v -> results.(i) <- Some v
          | exception e -> if !failure = None then failure := Some e);
          Mutex.lock t.mutex;
          completed.(i) <- true;
          Condition.broadcast t.batch_done;
          Mutex.unlock t.mutex
        in
        Queue.push wrapped t.deques.(i mod t.size))
      tasks;
    t.pending <- n;
    t.in_batch <- true;
    Condition.broadcast t.work_available;
    let next = ref 0 in
    while !next < n do
      timed_wait t (fun () -> not completed.(!next));
      let i = !next in
      incr next;
      Mutex.unlock t.mutex;
      (match results.(i) with
      | Some v ->
        if !failure = None then begin
          try merge i v with e -> failure := Some e
        end
      | None -> ());
      Mutex.lock t.mutex
    done;
    (* the last-merged task's worker may not have decremented [pending]
       yet; hold the batch open until it has so overlap checks stay
       sound for the next round *)
    timed_wait t (fun () -> t.pending > 0);
    t.in_batch <- false;
    publish_wait_metrics t;
    Mutex.unlock t.mutex;
    match !failure with Some e -> raise (Task_error e) | None -> ()
  end

let map t f items =
  let tasks = Array.of_list (List.map (fun x -> fun _worker -> f x) items) in
  Array.to_list (run_batch t tasks)

let stats t =
  Mutex.lock t.mutex;
  let s =
    {
      tasks_run = Array.copy t.tasks_run;
      busy_seconds = Array.copy t.busy_seconds;
      stall_seconds = Array.copy t.stall_seconds;
      merge_wait_seconds = t.merge_wait;
      steals = t.steals;
    }
  in
  Mutex.unlock t.mutex;
  s

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.work_available;
  Mutex.unlock t.mutex;
  Array.iter Domain.join t.domains

let with_pool ?bus ?metrics ~jobs f =
  let t = create ?bus ?metrics ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* The process-wide idle slot: at most one parked pool, kept between
   [with_borrowed] calls so back-to-back campaigns reuse its domains
   instead of spawning and joining their own. *)
let idle_mutex = Mutex.create ()
let idle : t option ref = ref None

let take_idle () =
  Mutex.lock idle_mutex;
  let p = !idle in
  idle := None;
  Mutex.unlock idle_mutex;
  p

let retire_idle () = Option.iter shutdown (take_idle ())

let () = at_exit retire_idle

let borrow ?bus ?metrics ~jobs () =
  let jobs = valid_jobs jobs in
  match take_idle () with
  | Some t when t.size = jobs ->
    attach ?bus ?metrics t;
    t
  | other ->
    Option.iter shutdown other;
    create ?bus ?metrics ~jobs ()

(* Park [t] in the idle slot if no batch is in flight and the slot is
   free; shut it down otherwise. A parked pool is detached first, so a
   later steal cannot reach the borrower's (possibly finalized) bus. *)
let give_back t =
  Mutex.lock t.mutex;
  let quiescent = (not t.in_batch) && t.pending = 0 && not t.stop in
  Mutex.unlock t.mutex;
  if quiescent then attach t;
  Mutex.lock idle_mutex;
  let parked = quiescent && Option.is_none !idle in
  if parked then idle := Some t;
  Mutex.unlock idle_mutex;
  if not parked then shutdown t

let with_borrowed ?bus ?metrics ~jobs f =
  let t = borrow ?bus ?metrics ~jobs () in
  Fun.protect ~finally:(fun () -> give_back t) (fun () -> f t)
