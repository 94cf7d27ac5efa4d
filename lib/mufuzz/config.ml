type sequence_mode = Seq_random | Seq_dataflow | Seq_dataflow_repeat

type t = {
  rng_seed : int64;
  jobs : int;
  round_batch : int;
  max_executions : int;
  gas_per_tx : int;
  n_senders : int;
  initial_seeds : int;
  base_energy : int;
  max_energy : int;
  sequence_mode : sequence_mode;
  mask_guided : bool;
  dynamic_energy : bool;
  distance_feedback : bool;
  prolongation : bool;
  blackbox : bool;
  mask_stride : int;
  mask_cache_max : int;
  mask_max_probes : int;
  mask_budget_fraction : float;
  sequence_mutation_prob : float;
  (* input prediction (hybrid fuzzing): solve magic values for frontier
     branches from recorded comparison operands *)
  predict : bool;
  predict_attempts : int;  (* failed flips of a branch before prediction fires *)
  predict_max_candidates : int;  (* proposal executions per firing *)
  attacker_enabled : bool;
  initial_corpus : Seed.t list;
  strict_corpus : bool;
  prefix_params : Analysis.Prefix.params;
  (* telemetry — both default to off, keeping the no-op-bus guarantee *)
  trace_path : string option;
  status_interval : float;
  (* stopping + persistence *)
  max_seconds : float;
  checkpoint_dir : string option;
  checkpoint_every_execs : int;
  checkpoint_every_seconds : float;
  checkpoint_keep : int;
}

let default =
  {
    rng_seed = 42L;
    jobs = 1;
    round_batch = 2;
    max_executions = 2000;
    gas_per_tx = 1_000_000;
    n_senders = 3;
    initial_seeds = 8;
    base_energy = 20;
    max_energy = 120;
    sequence_mode = Seq_dataflow_repeat;
    mask_guided = true;
    dynamic_energy = true;
    distance_feedback = true;
    prolongation = false;
    blackbox = false;
    mask_stride = 8;
    mask_cache_max = 32;
    mask_max_probes = 24;
    mask_budget_fraction = 0.15;
    sequence_mutation_prob = 0.15;
    predict = false;
    predict_attempts = 25;
    predict_max_candidates = 12;
    attacker_enabled = true;
    initial_corpus = [];
    strict_corpus = false;
    prefix_params = Analysis.Prefix.default_params;
    trace_path = None;
    status_interval = 0.0;
    max_seconds = 0.0;
    checkpoint_dir = None;
    checkpoint_every_execs = 500;
    checkpoint_every_seconds = 0.0;
    checkpoint_keep = 3;
  }

let with_budget t budget = { t with max_executions = budget }

let ablation_no_sequence t = { t with sequence_mode = Seq_random }
let ablation_no_mask t = { t with mask_guided = false }
let ablation_no_energy t = { t with dynamic_energy = false }

(* ---------------- JSON codec (campaign checkpoints) ---------------- *)

module J = Telemetry.Json

let sequence_mode_to_string = function
  | Seq_random -> "random"
  | Seq_dataflow -> "dataflow"
  | Seq_dataflow_repeat -> "dataflow-repeat"

let sequence_mode_of_string = function
  | "random" -> Ok Seq_random
  | "dataflow" -> Ok Seq_dataflow
  | "dataflow-repeat" -> Ok Seq_dataflow_repeat
  | s -> Error (Printf.sprintf "unknown sequence mode %S" s)

let to_json t =
  J.Obj
    [
      (* int64 seeds exceed the 63-bit [J.Int] range; ship as decimal *)
      ("rng_seed", J.String (Int64.to_string t.rng_seed));
      ("jobs", J.Int t.jobs);
      ("round_batch", J.Int t.round_batch);
      ("max_executions", J.Int t.max_executions);
      ("gas_per_tx", J.Int t.gas_per_tx);
      ("n_senders", J.Int t.n_senders);
      ("initial_seeds", J.Int t.initial_seeds);
      ("base_energy", J.Int t.base_energy);
      ("max_energy", J.Int t.max_energy);
      ("sequence_mode", J.String (sequence_mode_to_string t.sequence_mode));
      ("mask_guided", J.Bool t.mask_guided);
      ("dynamic_energy", J.Bool t.dynamic_energy);
      ("distance_feedback", J.Bool t.distance_feedback);
      ("prolongation", J.Bool t.prolongation);
      ("blackbox", J.Bool t.blackbox);
      ("mask_stride", J.Int t.mask_stride);
      ("mask_cache_max", J.Int t.mask_cache_max);
      ("mask_max_probes", J.Int t.mask_max_probes);
      ("mask_budget_fraction", J.Float t.mask_budget_fraction);
      ("sequence_mutation_prob", J.Float t.sequence_mutation_prob);
      ("predict", J.Bool t.predict);
      ("predict_attempts", J.Int t.predict_attempts);
      ("predict_max_candidates", J.Int t.predict_max_candidates);
      ("attacker_enabled", J.Bool t.attacker_enabled);
      ("initial_corpus", J.List (List.map Seed.to_json t.initial_corpus));
      ("strict_corpus", J.Bool t.strict_corpus);
      ("nested_coeff", J.Float t.prefix_params.Analysis.Prefix.nested_coeff);
      ("vuln_bonus", J.Float t.prefix_params.Analysis.Prefix.vuln_bonus);
      ( "trace_path",
        match t.trace_path with None -> J.Null | Some p -> J.String p );
      ("status_interval", J.Float t.status_interval);
      ("max_seconds", J.Float t.max_seconds);
      ( "checkpoint_dir",
        match t.checkpoint_dir with None -> J.Null | Some d -> J.String d );
      ("checkpoint_every_execs", J.Int t.checkpoint_every_execs);
      ("checkpoint_every_seconds", J.Float t.checkpoint_every_seconds);
      ("checkpoint_keep", J.Int t.checkpoint_keep);
    ]

let of_json ~abi j =
  let open J.Decode in
  let int name = field name int j in
  let flt name = field name float j in
  let bol name = field name bool j in
  let opt_str name = field_opt name string j in
  let* rng_seed = field "rng_seed" int64_decimal j in
  let* jobs = int "jobs" in
  let* round_batch = int "round_batch" in
  let* max_executions = int "max_executions" in
  let* gas_per_tx = int "gas_per_tx" in
  let* n_senders = int "n_senders" in
  let* initial_seeds = int "initial_seeds" in
  let* base_energy = int "base_energy" in
  let* max_energy = int "max_energy" in
  let* sequence_mode =
    field "sequence_mode"
      (fun v ->
        let* s = string v in
        sequence_mode_of_string s)
      j
  in
  let* mask_guided = bol "mask_guided" in
  let* dynamic_energy = bol "dynamic_energy" in
  let* distance_feedback = bol "distance_feedback" in
  let* prolongation = bol "prolongation" in
  let* blackbox = bol "blackbox" in
  let* mask_stride = int "mask_stride" in
  let* mask_cache_max = int "mask_cache_max" in
  let* mask_max_probes = int "mask_max_probes" in
  let* mask_budget_fraction = flt "mask_budget_fraction" in
  let* sequence_mutation_prob = flt "sequence_mutation_prob" in
  let* predict = bol "predict" in
  let* predict_attempts = int "predict_attempts" in
  let* predict_max_candidates = int "predict_max_candidates" in
  let* attacker_enabled = bol "attacker_enabled" in
  let* initial_corpus = field "initial_corpus" (list (Seed.of_json ~abi)) j in
  let* strict_corpus = bol "strict_corpus" in
  let* nested_coeff = flt "nested_coeff" in
  let* vuln_bonus = flt "vuln_bonus" in
  let* trace_path = opt_str "trace_path" in
  let* status_interval = flt "status_interval" in
  let* max_seconds = flt "max_seconds" in
  let* checkpoint_dir = opt_str "checkpoint_dir" in
  let* checkpoint_every_execs = int "checkpoint_every_execs" in
  let* checkpoint_every_seconds = flt "checkpoint_every_seconds" in
  let* checkpoint_keep = int "checkpoint_keep" in
  Ok
    {
      rng_seed;
      jobs;
      round_batch;
      max_executions;
      gas_per_tx;
      n_senders;
      initial_seeds;
      base_energy;
      max_energy;
      sequence_mode;
      mask_guided;
      dynamic_energy;
      distance_feedback;
      prolongation;
      blackbox;
      mask_stride;
      mask_cache_max;
      mask_max_probes;
      mask_budget_fraction;
      sequence_mutation_prob;
      predict;
      predict_attempts;
      predict_max_candidates;
      attacker_enabled;
      initial_corpus;
      strict_corpus;
      prefix_params = { Analysis.Prefix.nested_coeff; vuln_bonus };
      trace_path;
      status_interval;
      max_seconds;
      checkpoint_dir;
      checkpoint_every_execs;
      checkpoint_every_seconds;
      checkpoint_keep;
    }
