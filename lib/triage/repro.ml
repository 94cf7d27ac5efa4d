(* Replay verification: execute an artifact's sequence and confirm the
   recorded (oracle, pc) still fires. Everything here is deterministic —
   the EVM substrate has no wall-clock or randomness — so two replays of
   the same artifact produce byte-identical outcomes (the regression
   gate relies on this). *)

type outcome = {
  ok : bool;  (* the artifact's (oracle, pc) fired *)
  raised : Oracles.Oracle.finding list;  (* every alarm the replay raised *)
}

let target_of (a : Artifact.t) =
  {
    Shrink.contract = a.contract;
    gas = a.gas_per_tx;
    n_senders = a.n_senders;
    attacker = a.attacker;
  }

let replay (a : Artifact.t) =
  let raised =
    Mufuzz.Executor.findings ~contract:a.contract ~gas:a.gas_per_tx
      ~n_senders:a.n_senders ~attacker:a.attacker a.seed
  in
  let ok =
    List.exists
      (fun (g : Oracles.Oracle.finding) ->
        g.cls = a.finding.cls && g.pc = a.finding.pc)
      raised
  in
  { ok; raised }

let describe (a : Artifact.t) (o : outcome) =
  if o.ok then
    Printf.sprintf "[%s] pc=%d reproduced on %s (%d txs, %d alarms raised)"
      (Oracles.Oracle.class_to_string a.finding.cls)
      a.finding.pc a.contract.name
      (List.length a.seed.txs) (List.length o.raised)
  else
    Printf.sprintf
      "[%s] pc=%d did NOT reproduce on %s (%d txs; raised instead: %s)"
      (Oracles.Oracle.class_to_string a.finding.cls)
      a.finding.pc a.contract.name
      (List.length a.seed.txs)
      (match o.raised with
      | [] -> "nothing"
      | fs ->
        String.concat ", "
          (List.map
             (fun (g : Oracles.Oracle.finding) ->
               Printf.sprintf "[%s]@%d"
                 (Oracles.Oracle.class_to_string g.cls)
                 g.pc)
             fs))

let shrink ?max_execs (a : Artifact.t) =
  let target = target_of a in
  let r = Shrink.shrink ~target ?max_execs a.finding a.seed in
  if not r.reproduced then Error "artifact does not reproduce its finding"
  else
    match Shrink.reraise ~target a.finding r.seed with
    | None -> Error "shrunk sequence lost the finding (shrinker bug)"
    | Some finding ->
      Ok
        ( Artifact.make ~contract:a.contract ~gas_per_tx:a.gas_per_tx
            ~n_senders:a.n_senders ~attacker:a.attacker ~finding ~seed:r.seed,
          r.execs )

type written = { path : string; txs : int; execs : int }

let save_witnesses ~dir ~config ~contract witnesses =
  Util.Fileio.mkdirs dir;
  let target = Shrink.target_of_config config contract in
  List.map
    (fun ((f : Oracles.Oracle.finding), seed) ->
      let outcome =
        try
          let r = Shrink.shrink ~target f seed in
          match Shrink.reraise ~target f r.seed with
          | None -> Error "did not reproduce"
          | Some finding ->
            let a =
              Artifact.make ~contract ~gas_per_tx:config.Mufuzz.Config.gas_per_tx
                ~n_senders:config.n_senders ~attacker:config.attacker_enabled
                ~finding ~seed:r.seed
            in
            let path = Filename.concat dir (Artifact.file_name a) in
            Artifact.save path a;
            Ok { path; txs = List.length r.seed.txs; execs = r.execs }
        with e ->
          Error ("artifact generation failed: " ^ Printexc.to_string e)
      in
      (f, outcome))
    witnesses
