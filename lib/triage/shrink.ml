(* Delta-debugging witness shrinker.

   Invariant (oracle preservation): every intermediate sequence the
   shrinker commits to still raises a finding with the same
   (oracle class, pc) as the input finding — candidates that lose the
   alarm are discarded, so the returned seed reproduces iff the input
   did.

   Invariant (fixpoint / idempotence): passes run in a deterministic
   order with no randomness, and the driver loops them until a full
   round changes nothing. Shrinking an already-shrunk seed therefore
   re-executes only the per-pass probes that all fail, commits nothing,
   and returns the input unchanged. *)

type target = {
  contract : Minisol.Contract.t;
  gas : int;
  n_senders : int;
  attacker : bool;
}

let target_of_config (config : Mufuzz.Config.t) contract =
  {
    contract;
    gas = config.gas_per_tx;
    n_senders = config.n_senders;
    attacker = config.attacker_enabled;
  }

type result = {
  seed : Mufuzz.Seed.t;
  execs : int;  (** executions the shrink spent (including the final check) *)
  reproduced : bool;  (** the input seed raised the finding at all *)
}

(* One oracle-preservation check: does [seed] still raise (cls, pc)?
   Every check of one shrink call reuses one executor context and the
   contract's static oracle facts. Candidates re-execute from the
   deployed state: resuming shared prefixes from a state cache cost more
   than it saved. *)
let make_check t (f : Oracles.Oracle.finding) =
  let ctx =
    Mufuzz.Executor.make_ctx ~contract:t.contract ~gas:t.gas
      ~n_senders:t.n_senders ~attacker:t.attacker ()
  in
  let static = Oracles.Oracle.static_info_of t.contract in
  fun seed ->
    List.exists
      (fun (g : Oracles.Oracle.finding) -> g.cls = f.cls && g.pc = f.pc)
      (Mufuzz.Executor.inspect ~static (Mufuzz.Executor.run_in_ctx ctx seed))

(* ---------------- pass 1: ddmin over the transaction list ----------------

   Classic Zeller/Hildebrandt ddmin restricted to complements (chunk
   removal), order-preserving, with the constructor pinned at the head.
   Granularity starts at 2 and doubles whenever no chunk can go. *)

let drop_pass ~check ~budget_left (seed : Mufuzz.Seed.t) =
  match seed.txs with
  | [] | [ _ ] -> (seed, false)
  | ctor :: rest ->
    let changed = ref false in
    let current = ref (Array.of_list rest) in
    let granularity = ref 2 in
    let continue = ref true in
    while !continue && budget_left () do
      let cur = !current in
      let len = Array.length cur in
      if len = 0 || !granularity > len then continue := false
      else begin
        (* chunk boundaries for [granularity] near-equal slices *)
        let bound i = i * len / !granularity in
        let removed = ref (-1) in
        let chunk = ref 0 in
        while !removed < 0 && !chunk < !granularity && budget_left () do
          let lo = bound !chunk and hi = bound (!chunk + 1) in
          if hi > lo then begin
            let complement =
              Array.to_list cur
              |> List.filteri (fun i _ -> i < lo || i >= hi)
            in
            if check { Mufuzz.Seed.txs = ctor :: complement } then
              removed := !chunk
            else incr chunk
          end
          else incr chunk
        done;
        if !removed >= 0 then begin
          let lo = bound !removed and hi = bound (!removed + 1) in
          current :=
            Array.of_list
              (Array.to_list cur |> List.filteri (fun i _ -> i < lo || i >= hi));
          changed := true;
          granularity := Stdlib.max 2 (!granularity - 1)
        end
        else if !granularity >= len then continue := false
        else granularity := Stdlib.min len (2 * !granularity)
      end
    done;
    ({ Mufuzz.Seed.txs = ctor :: Array.to_list !current }, !changed)

(* ---------------- pass 2: per-tx stream byte reduction ----------------

   First whole 32-byte words (arguments and the trailing value word),
   then single bytes — the word sweep clears the common case in one
   execution per word, the byte sweep mops up partial words. Zeroing is
   the canonical reduction: a zero word decodes to 0 / address(0) /
   false, the "simplest" value of every Minisol ABI type. *)

let zero_pass ~check ~budget_left (seed : Mufuzz.Seed.t) =
  let changed = ref false in
  let current = ref seed in
  let n = List.length seed.txs in
  for ti = 0 to n - 1 do
    let try_zero lo len =
      if budget_left () then begin
        let tx = List.nth (!current).Mufuzz.Seed.txs ti in
        let stream = Bytes.of_string tx.stream in
        if lo + len <= Bytes.length stream then begin
          let any_nonzero = ref false in
          for i = lo to lo + len - 1 do
            if Bytes.get stream i <> '\000' then any_nonzero := true
          done;
          if !any_nonzero then begin
            Bytes.fill stream lo len '\000';
            let candidate =
              Mufuzz.Seed.with_tx !current ti
                { tx with stream = Bytes.to_string stream }
            in
            if check candidate then begin
              current := candidate;
              changed := true
            end
          end
        end
      end
    in
    let stream_len =
      String.length (List.nth (!current).Mufuzz.Seed.txs ti).stream
    in
    for w = 0 to (stream_len / 32) - 1 do
      try_zero (w * 32) 32
    done;
    for i = 0 to stream_len - 1 do
      try_zero i 1
    done
  done;
  (!current, !changed)

let shrink ~target:t ?(max_execs = 4000) (finding : Oracles.Oracle.finding)
    seed =
  let execs = ref 0 in
  let budget_left () = !execs < max_execs in
  let check0 = make_check t finding in
  let check s =
    incr execs;
    check0 s
  in
  if not (check seed) then { seed; execs = !execs; reproduced = false }
  else begin
    let current = ref seed in
    let progress = ref true in
    while !progress && budget_left () do
      let after_drop, dropped = drop_pass ~check ~budget_left !current in
      let after_zero, zeroed = zero_pass ~check ~budget_left after_drop in
      current := after_zero;
      progress := dropped || zeroed
    done;
    { seed = !current; execs = !execs; reproduced = true }
  end

(* The finding as re-raised by the shrunk sequence: same (cls, pc), but
   tx_index/detail may have moved when transactions were dropped. *)
let reraise ~target:t (finding : Oracles.Oracle.finding) seed =
  List.find_opt
    (fun (g : Oracles.Oracle.finding) -> g.cls = finding.cls && g.pc = finding.pc)
    (Mufuzz.Executor.findings ~contract:t.contract ~gas:t.gas
       ~n_senders:t.n_senders ~attacker:t.attacker seed)
