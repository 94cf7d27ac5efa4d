(* The mufuzz command-line tool.

   Subcommands:
     fuzz <file.sol>      — fuzz a contract and report coverage + findings
     resume <dir>         — resume a campaign from its checkpoint directory
     analyze <file.sol>   — static front end: sequence, dependencies, CFG
     disasm <file.sol>    — compile and print the bytecode listing
     exec <file.sol> fn   — run a single transaction and dump the trace
     static <file.sol>    — run the reimplemented static analyzers
     shrink <repro.json>  — delta-debug a repro artifact to a minimal one
     repro <repro.json>…  — replay repro artifacts; exit 0 iff all fire *)

open Cmdliner

let read_source path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load path =
  match Minisol.Contract.compile (read_source path) with
  | c -> c
  | exception Minisol.Lexer.Lex_error (msg, line, col) ->
    Printf.eprintf "%s:%d:%d: lexical error: %s\n" path line col msg;
    exit 1
  | exception Minisol.Parser.Parse_error (msg, line, col) ->
    Printf.eprintf "%s:%d:%d: parse error: %s\n" path line col msg;
    exit 1
  | exception Minisol.Typecheck.Type_error msg ->
    Printf.eprintf "%s: type error: %s\n" path msg;
    exit 1

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"Minisol contract source file.")

let budget_arg =
  Arg.(value & opt int 5000 & info [ "budget"; "n" ] ~docv:"N"
         ~doc:"Execution budget (transaction sequences).")

let seed_arg =
  Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"SEED"
         ~doc:"Campaign RNG seed (campaigns are deterministic per seed).")

(* Worker-domain counts above [Mufuzz.Pool.max_jobs] are structured
   parse errors (exit 124), not a pool that dies half-spawned. *)
let jobs_conv =
  let parse s =
    match int_of_string_opt (String.trim s) with
    | None -> Error (`Msg (Printf.sprintf "jobs must be an integer, got %S" s))
    | Some n -> (
      match Mufuzz.Pool.check_jobs n with
      | Ok _ -> Ok n
      | Error msg -> Error (`Msg msg))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let jobs_arg =
  Arg.(value & opt jobs_conv 1 & info [ "jobs"; "j" ] ~docv:"N"
         ~doc:"Worker domains for the campaign, at most 64. 1 (the \
               default) runs the sequential loop; N>1 shards seed-energy \
               batches across N cores, merging coverage at batch \
               boundaries.")

(* [--round-batch] takes a positive integer; 0, negatives and garbage
   are structured parse errors (exit 124) rather than a silent clamp
   deep in the campaign *)
let round_batch_conv =
  let parse s =
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Ok n
    | _ ->
      Error
        (`Msg (Printf.sprintf "round-batch must be a positive integer, got %S" s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let round_batch_arg =
  Arg.(value & opt round_batch_conv Mufuzz.Config.default.round_batch
       & info [ "round-batch" ] ~docv:"N"
           ~doc:"Seeds each worker domain fuzzes per parallel round. Larger \
                 values amortise coordination (fewer merge barriers) at the \
                 cost of staler worker coverage snapshots. Ignored at \
                 --jobs 1.")

let predict_arg =
  Arg.(value & flag & info [ "predict" ]
         ~doc:"Enable input prediction for hard branches: when a frontier \
               branch keeps being reached without flipping, solve candidate \
               values from the comparison operands recorded in its trace \
               (exact value for EQ, boundaries for orderings) and write them \
               into the seed through the mutation mask. Off by default, \
               keeping campaigns bit-for-bit identical to earlier builds.")

let predict_attempts_arg =
  Arg.(value & opt int Mufuzz.Config.default.predict_attempts
       & info [ "predict-attempts" ] ~docv:"N"
           ~doc:"Failed flips of a frontier branch before the prediction \
                 phase fires for it (with $(b,--predict)).")

let predict_candidates_arg =
  Arg.(value & opt int Mufuzz.Config.default.predict_max_candidates
       & info [ "predict-candidates" ] ~docv:"N"
           ~doc:"Proposal executions one prediction firing may spend (with \
                 $(b,--predict)).")

let tool_arg =
  Arg.(value & opt string "MuFuzz" & info [ "tool" ] ~docv:"TOOL"
         ~doc:"Fuzzer profile: MuFuzz, sFuzz, ConFuzzius, Smartian, IR-Fuzz.")

let out_arg =
  Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE"
         ~doc:"Write the full report to a file.")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log campaign events (new findings, coverage growth).")

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let corpus_in_arg =
  Arg.(value & opt (some file) None & info [ "corpus" ] ~docv:"FILE"
         ~doc:"Bootstrap the campaign from a saved seed corpus.")

let corpus_out_arg =
  Arg.(value & opt (some string) None & info [ "save-corpus" ] ~docv:"FILE"
         ~doc:"Save the final seed queue for a later run.")

let minimize_arg =
  Arg.(value & flag & info [ "minimize" ] ~doc:"Shrink each witness sequence to a minimal proof-of-concept (delta debugging).")

let ablation_arg =
  Arg.(value & opt_all string [] & info [ "disable" ] ~docv:"COMPONENT"
         ~doc:"Disable a MuFuzz component: sequence, mask, energy. Repeatable.")

let json_arg =
  Arg.(value & flag & info [ "json" ]
         ~doc:"Emit the campaign report as a JSON object on stdout and \
               suppress the human-readable output. With $(b,--out), the \
               file also receives JSON instead of text.")

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Stream campaign events to FILE as JSON Lines (one event \
               object per line, tagged by its \"event\" field).")

let status_interval_arg =
  Arg.(value & opt float 0.0 & info [ "status-interval" ] ~docv:"SECS"
         ~doc:"Print a live status line (execs, coverage, findings, \
               execs/sec) to stderr every SECS seconds. 0 disables.")

let metrics_arg =
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
         ~doc:"Write the final metrics registry to FILE in Prometheus \
               text exposition format.")

let strict_corpus_arg =
  Arg.(value & flag & info [ "strict-corpus" ]
         ~doc:"Treat corrupt seed blocks in $(b,--corpus) as fatal: report \
               each skipped block and exit nonzero instead of fuzzing a \
               silently smaller corpus.")

let artifacts_arg =
  Arg.(value & opt (some string) None & info [ "artifacts" ] ~docv:"DIR"
         ~doc:"After the campaign, shrink each unique finding's witness \
               and write one deterministic repro artifact (JSON) per \
               finding into DIR (created if missing). Replay them later \
               with $(b,mufuzz repro).")

let max_seconds_arg =
  Arg.(value & opt float 0.0 & info [ "max-seconds" ] ~docv:"SECS"
         ~doc:"Wall-clock budget: stop the campaign after SECS seconds even \
               if executions remain. 0 (the default) disables the time \
               budget, keeping campaigns deterministic per seed.")

let checkpoint_arg =
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"DIR"
         ~doc:"Persist crash-safe campaign checkpoints into DIR (created if \
               missing). Each write is atomic (temp file + rename) and the \
               directory keeps the newest $(b,--checkpoint-keep) files. \
               Resume later with $(b,mufuzz resume) DIR.")

let checkpoint_every_arg =
  Arg.(value & opt int 500 & info [ "checkpoint-every" ] ~docv:"N"
         ~doc:"Write a checkpoint every N executions (at the next safe \
               point). 0 disables the execution cadence.")

let checkpoint_seconds_arg =
  Arg.(value & opt float 0.0 & info [ "checkpoint-seconds" ] ~docv:"SECS"
         ~doc:"Also write a checkpoint when SECS seconds have passed since \
               the last one. 0 (the default) disables the time cadence.")

let checkpoint_keep_arg =
  Arg.(value & opt int 3 & info [ "checkpoint-keep" ] ~docv:"K"
         ~doc:"How many rotated checkpoint files to keep (oldest pruned).")

let write_report_file ~json path report =
  let content =
    if json then Mufuzz.Report.to_json_string report ^ "\n"
    else Mufuzz.Report.to_text report
  in
  Util.Fileio.write_atomic path content

let write_metrics_file metrics = function
  | Some path -> Util.Fileio.write_atomic path (Telemetry.Metrics.dump metrics)
  | None -> ()

(* ---------------- fuzz ---------------- *)

let fuzz_cmd =
  let run file budget seed jobs round_batch predict predict_attempts
      predict_candidates tool disabled out do_minimize
      corpus_in corpus_out json trace status_interval metrics_out
      strict_corpus artifacts_dir max_seconds checkpoint_dir checkpoint_every
      checkpoint_seconds checkpoint_keep verbose =
    setup_logs verbose;
    let contract = load file in
    let profile =
      match Baselines.Fuzzers.find tool with
      | Some p -> p
      | None ->
        Printf.eprintf "unknown tool %s\n" tool;
        exit 1
    in
    let config =
      { Mufuzz.Config.default with max_executions = budget; rng_seed = seed;
        jobs = Stdlib.max 1 jobs;
        round_batch;
        trace_path = trace;
        predict;
        predict_attempts = Stdlib.max 1 predict_attempts;
        predict_max_candidates = Stdlib.max 1 predict_candidates;
        strict_corpus;
        status_interval = Stdlib.max 0.0 status_interval;
        max_seconds = Stdlib.max 0.0 max_seconds;
        checkpoint_dir;
        checkpoint_every_execs = Stdlib.max 0 checkpoint_every;
        checkpoint_every_seconds = Stdlib.max 0.0 checkpoint_seconds;
        checkpoint_keep = Stdlib.max 1 checkpoint_keep }
    in
    let config =
      List.fold_left
        (fun config component ->
          match component with
          | "sequence" -> Mufuzz.Config.ablation_no_sequence config
          | "mask" -> Mufuzz.Config.ablation_no_mask config
          | "energy" -> Mufuzz.Config.ablation_no_energy config
          | other ->
            Printf.eprintf "unknown component %s\n" other;
            exit 1)
        config disabled
    in
    let config, corpus_skipped =
      match corpus_in with
      | Some path ->
        let seeds, skipped =
          Mufuzz.Replay.load_corpus ~abi:contract.Minisol.Contract.abi path
        in
        List.iter
          (fun (i, reason) ->
            Printf.eprintf "%s: %s: skipped corrupt seed block %d: %s\n"
              (if config.strict_corpus then "error" else "warning")
              path i reason)
          skipped;
        if config.strict_corpus && skipped <> [] then begin
          Printf.eprintf
            "%s: %d corrupt seed block(s) with --strict-corpus; aborting\n"
            path (List.length skipped);
          exit 2
        end;
        if not json then
          Printf.printf "loaded %d corpus seeds from %s\n" (List.length seeds)
            path;
        ({ config with initial_corpus = seeds }, skipped)
      | None -> (config, [])
    in
    if not json then begin
      Printf.printf "fuzzing %s with %s (budget %d, seed %Ld, jobs %d)\n"
        contract.Minisol.Contract.name profile.name budget seed config.jobs;
      Printf.printf "sequence: [%s]\n\n"
        (String.concat " -> " (Mufuzz.Campaign.derive_sequence contract))
    end;
    (* apply the profile up front (configure is idempotent) so the
       checkpoint driver persists the effective config, not the raw
       CLI one — a resumed baseline campaign must re-run under the
       same policy *)
    let config = profile.configure config in
    let metrics = Telemetry.Metrics.create () in
    let driver =
      Persist.Driver.of_config ~metrics ~tool:profile.name ~contract config
    in
    let report =
      Baselines.Fuzzers.run profile ~config ~metrics
        ?on_safe_point:(Option.map Persist.Driver.hook driver)
        contract
    in
    (* shrinking and minimising below are single-domain work *)
    Mufuzz.Pool.retire_idle ();
    let report = { report with Mufuzz.Report.corpus_skipped } in
    Option.iter
      (fun dir ->
        List.iter
          (fun ((f : Oracles.Oracle.finding), outcome) ->
            match outcome with
            | Ok (w : Triage.Repro.written) ->
              if not json then
                Printf.printf "artifact: %s (%d txs, %d shrink execs)\n" w.path
                  w.txs w.execs
            | Error e ->
              Printf.eprintf "warning: finding [%s] pc=%d %s; no artifact written\n"
                (Oracles.Oracle.class_to_string f.cls) f.pc e)
          (Triage.Repro.save_witnesses ~dir ~config ~contract
             report.witness_seeds))
      artifacts_dir;
    write_metrics_file metrics metrics_out;
    if json then begin
      print_endline (Mufuzz.Report.to_json_string report);
      Option.iter (fun path -> write_report_file ~json:true path report) out
    end
    else begin
      Format.printf "%a@." Mufuzz.Report.pp_summary report;
      (match report.parallel with
      | Some p ->
        Printf.printf
          "parallel: %d domains, %d rounds, %.2fs merging, %.2fs merge-wait, \
           %d steals\n"
          p.jobs p.rounds p.merge_seconds p.merge_wait_seconds p.steals;
        List.iter
          (fun (d : Mufuzz.Report.domain_stat) ->
            Printf.printf "  domain %d: %d execs, %.1f execs/sec, %.2fs stall\n"
              d.domain d.d_execs (Mufuzz.Report.execs_per_sec d) d.stall_seconds)
          p.domains
      | None -> ());
      List.iter
        (fun ((f : Oracles.Oracle.finding), witness) ->
          Format.printf "@.%a@.  %s@.  witness: %s@." Oracles.Oracle.pp_finding f
            (Oracles.Oracle.class_description f.cls)
            witness)
        report.witnesses;
      if do_minimize && report.witness_seeds <> [] then begin
        print_endline "\nminimized witnesses:";
        let target = Triage.Shrink.target_of_config config contract in
        List.iter
          (fun ((f : Oracles.Oracle.finding), seed) ->
            let r = Triage.Shrink.shrink ~target f seed in
            Format.printf "  [%s] (%d extra execs) %s@."
              (Oracles.Oracle.class_to_string f.cls)
              r.execs (Mufuzz.Seed.show r.seed))
          report.witness_seeds
      end;
      (match corpus_out with
      | Some path ->
        Mufuzz.Replay.save_corpus path report.corpus;
        Printf.printf "\nsaved %d corpus seeds to %s\n" (List.length report.corpus)
          path
      | None -> ());
      match out with
      | Some path ->
        write_report_file ~json:false path report;
        Printf.printf "\nfull report written to %s\n" path
      | None -> ()
    end;
    (* --save-corpus still works in JSON mode, silently *)
    if json then
      match corpus_out with
      | Some path -> Mufuzz.Replay.save_corpus path report.corpus
      | None -> ()
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc:"Fuzz a contract and report coverage and findings.")
    Term.(const run $ file_arg $ budget_arg $ seed_arg $ jobs_arg
          $ round_batch_arg $ predict_arg $ predict_attempts_arg
          $ predict_candidates_arg $ tool_arg
          $ ablation_arg $ out_arg $ minimize_arg $ corpus_in_arg $ corpus_out_arg
          $ json_arg $ trace_arg $ status_interval_arg $ metrics_arg
          $ strict_corpus_arg $ artifacts_arg $ max_seconds_arg
          $ checkpoint_arg $ checkpoint_every_arg $ checkpoint_seconds_arg
          $ checkpoint_keep_arg $ verbose_arg)

(* ---------------- resume ---------------- *)

let resume_cmd =
  let dir_arg =
    Arg.(required & pos 0 (some dir) None & info [] ~docv:"DIR"
           ~doc:"Checkpoint directory written by $(b,mufuzz fuzz --checkpoint).")
  in
  let budget_override_arg =
    Arg.(value & opt (some int) None & info [ "budget"; "n" ] ~docv:"N"
           ~doc:"Override the execution budget (e.g. to extend a finished \
                 campaign). Default: the budget recorded in the checkpoint.")
  in
  let max_seconds_override_arg =
    Arg.(value & opt (some float) None & info [ "max-seconds" ] ~docv:"SECS"
           ~doc:"Override the wall-clock budget recorded in the checkpoint.")
  in
  let run dir budget_override max_seconds_override out json trace
      status_interval metrics_out verbose =
    setup_logs verbose;
    match Persist.Store.load_latest dir with
    | Error msg ->
      Printf.eprintf "%s: %s\n" dir msg;
      exit 1
    | Ok (path, ckpt) ->
      let contract = ckpt.Persist.Checkpoint.contract in
      let profile =
        match Baselines.Fuzzers.find ckpt.tool with
        | Some p -> p
        | None ->
          Printf.eprintf "%s: unknown tool %S in checkpoint\n" path ckpt.tool;
          exit 1
      in
      let config =
        { ckpt.config with
          (* keep writing into the directory we resumed from, wherever
             the original campaign's --checkpoint pointed *)
          Mufuzz.Config.checkpoint_dir = Some dir;
          max_executions =
            Option.value budget_override ~default:ckpt.config.max_executions;
          max_seconds =
            Option.value max_seconds_override ~default:ckpt.config.max_seconds;
          trace_path = (match trace with Some _ -> trace | None -> ckpt.config.trace_path);
          status_interval =
            (if status_interval > 0.0 then status_interval
             else ckpt.config.status_interval) }
      in
      if not json then
        Printf.printf
          "resuming %s with %s from %s (%d/%d executions done, %d queue seeds)\n"
          contract.Minisol.Contract.name profile.name path
          ckpt.snapshot.Mufuzz.Campaign.sn_execs config.max_executions
          (List.length ckpt.snapshot.sn_queue);
      let metrics = Telemetry.Metrics.create () in
      let driver =
        Persist.Driver.of_config ~metrics ~start_execs:ckpt.snapshot.sn_execs
          ~tool:profile.name ~contract config
      in
      let report =
        Baselines.Fuzzers.run profile ~config ~metrics
          ~resume:(path, ckpt.snapshot)
          ?on_safe_point:(Option.map Persist.Driver.hook driver)
          contract
      in
      write_metrics_file metrics metrics_out;
      if json then begin
        print_endline (Mufuzz.Report.to_json_string report);
        Option.iter (fun p -> write_report_file ~json:true p report) out
      end
      else begin
        Format.printf "%a@." Mufuzz.Report.pp_summary report;
        List.iter
          (fun ((f : Oracles.Oracle.finding), witness) ->
            Format.printf "@.%a@.  %s@.  witness: %s@."
              Oracles.Oracle.pp_finding f
              (Oracles.Oracle.class_description f.cls)
              witness)
          report.witnesses;
        match out with
        | Some p ->
          write_report_file ~json:false p report;
          Printf.printf "\nfull report written to %s\n" p
        | None -> ()
      end
  in
  Cmd.v
    (Cmd.info "resume"
       ~doc:"Resume a fuzzing campaign from its checkpoint directory. At \
             jobs 1 the resumed campaign replays the exact run the \
             uninterrupted campaign would have produced (same RNG stream, \
             same coverage, same findings); at jobs N the resumed report \
             equals the uninterrupted one too, apart from wall-clock \
             timings and the per-domain parallel statistics.")
    Term.(const run $ dir_arg $ budget_override_arg $ max_seconds_override_arg
          $ out_arg $ json_arg $ trace_arg $ status_interval_arg $ metrics_arg
          $ verbose_arg)

(* ---------------- analyze ---------------- *)

let analyze_cmd =
  let run file =
    let contract = load file in
    let info = Analysis.Statevars.analyze contract.ast in
    Format.printf "%a@." Analysis.Statevars.pp info;
    Printf.printf "dependency edges:\n";
    List.iter
      (fun (w, r, v) -> Printf.printf "  %s -[%s]-> %s\n" w v r)
      (Analysis.Sequence.dependency_edges info);
    Printf.printf "base sequence   : [%s]\n"
      (String.concat " -> " (Analysis.Sequence.derive_base info));
    Printf.printf "mutated sequence: [%s]\n"
      (String.concat " -> " (Analysis.Sequence.derive info));
    let cfg = Analysis.Cfg.build contract.bytecode in
    Printf.printf "branches: %d JUMPIs; vulnerable instructions: %d\n"
      (List.length (Analysis.Cfg.branch_points cfg))
      (List.length (Analysis.Cfg.vulnerable_pcs cfg))
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Run the static front end on a contract.")
    Term.(const run $ file_arg)

(* ---------------- disasm ---------------- *)

let disasm_cmd =
  let run file =
    let contract = load file in
    print_string (Evm.Bytecode.to_listing contract.bytecode)
  in
  Cmd.v
    (Cmd.info "disasm" ~doc:"Compile and print the bytecode listing.")
    Term.(const run $ file_arg)

(* ---------------- exec ---------------- *)

let exec_cmd =
  let fn_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"FUNCTION"
           ~doc:"Function name to call (constructor runs first).")
  in
  let args_arg =
    Arg.(value & opt_all string [] & info [ "arg" ] ~docv:"VALUE"
           ~doc:"Decimal argument value. Repeatable, in order.")
  in
  let value_arg =
    Arg.(value & opt string "0" & info [ "value" ] ~docv:"WEI"
           ~doc:"msg.value in wei.")
  in
  let run file fn_name args value =
    let contract = load file in
    let addr = Mufuzz.Accounts.contract_address in
    let caller = Mufuzz.Accounts.deployer in
    let st = Minisol.Contract.deploy Evm.State.empty addr contract in
    let st = Evm.State.credit st caller (Word.U256.shift_left Word.U256.one 200) in
    let call st name vals value =
      let f =
        match List.find_opt (fun (f : Abi.func) -> f.Abi.name = name) contract.abi with
        | Some f -> f
        | None ->
          Printf.eprintf "no function %s\n" name;
          exit 1
      in
      Evm.Interp.execute ~block:Evm.Interp.default_block ~state:st
        { caller; origin = caller; callee = addr; value;
          data = Abi.encode_call f vals; gas = 5_000_000 }
    in
    let st, _ = call st "constructor" [] Word.U256.zero in
    let vals = List.map (fun s -> Abi.VUint (Word.U256.of_decimal_string s)) args in
    let st, trace = call st fn_name vals (Word.U256.of_decimal_string value) in
    Printf.printf "status: %s, gas used: %d\n" (Evm.Trace.status_to_string trace.status)
      trace.gas_used;
    List.iter (fun e -> Format.printf "  %a@." Evm.Trace.pp_event e)
      (Evm.Trace.expand trace.events);
    Printf.printf "storage after:\n";
    List.iter
      (fun (k, v) ->
        Printf.printf "  %s = %s\n" (Word.U256.to_hex_string k)
          (Word.U256.to_decimal_string v))
      (Evm.State.storage_dump st addr)
  in
  Cmd.v
    (Cmd.info "exec" ~doc:"Execute one transaction and dump the trace.")
    Term.(const run $ file_arg $ fn_arg $ args_arg $ value_arg)

(* ---------------- corpus ---------------- *)

let corpus_cmd =
  let dir_arg =
    Arg.(value & opt string "d2_suite" & info [ "dir" ] ~docv:"DIR"
           ~doc:"Output directory for the labelled suite.")
  in
  let run dir =
    Corpus.Vuln.write_to_dir dir;
    Printf.printf "wrote %d contracts (+LABELS.txt) to %s/\n"
      (List.length Corpus.Vuln.suite) dir
  in
  Cmd.v
    (Cmd.info "corpus"
       ~doc:"Export the labelled D2 vulnerability suite as .sol files.")
    Term.(const run $ dir_arg)

(* ---------------- shrink ---------------- *)

let load_artifact path =
  match Triage.Artifact.load path with
  | Ok a -> a
  | Error msg ->
    Printf.eprintf "%s: %s\n" path msg;
    exit 1

let shrink_cmd =
  let artifact_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"REPRO"
           ~doc:"Repro artifact (JSON) to minimise.")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE"
           ~doc:"Write the shrunk artifact to FILE (default: overwrite the \
                 input in place).")
  in
  let max_execs_arg =
    Arg.(value & opt int 4000 & info [ "max-execs" ] ~docv:"N"
           ~doc:"Execution budget for the shrink.")
  in
  let run path out max_execs =
    let a = load_artifact path in
    match Triage.Repro.shrink ~max_execs a with
    | Error msg ->
      Printf.eprintf "%s: %s\n" path msg;
      exit 1
    | Ok (shrunk, execs) ->
      let dest = Option.value out ~default:path in
      Triage.Artifact.save dest shrunk;
      Printf.printf "%s: %d -> %d txs (%d execs), wrote %s\n" path
        (List.length a.seed.txs)
        (List.length shrunk.seed.txs)
        execs dest
  in
  Cmd.v
    (Cmd.info "shrink"
       ~doc:"Delta-debug a repro artifact to a minimal, still-failing one.")
    Term.(const run $ artifact_arg $ out_arg $ max_execs_arg)

(* ---------------- repro ---------------- *)

let repro_cmd =
  let files_arg =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"REPRO"
           ~doc:"Repro artifacts (JSON) to replay.")
  in
  let run files =
    let failures =
      List.fold_left
        (fun failures path ->
          let a = load_artifact path in
          let o = Triage.Repro.replay a in
          Printf.printf "%s %s: %s\n"
            (if o.ok then "ok  " else "FAIL")
            path (Triage.Repro.describe a o);
          if o.ok then failures else failures + 1)
        0 files
    in
    if failures > 0 then begin
      Printf.eprintf "%d of %d artifact(s) failed to reproduce\n" failures
        (List.length files);
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "repro"
       ~doc:"Replay repro artifacts; exit 0 iff every recorded oracle fires.")
    Term.(const run $ files_arg)

(* ---------------- static ---------------- *)

let static_cmd =
  let run file =
    let contract = load file in
    List.iter
      (fun (p : Baselines.Staticdet.profile) ->
        match Baselines.Staticdet.analyze p contract with
        | Baselines.Staticdet.Findings fs ->
          Printf.printf "%-10s:" p.name;
          if fs = [] then print_endline " clean"
          else begin
            print_newline ();
            List.iter
              (fun (f : Oracles.Oracle.finding) ->
                Printf.printf "  [%s] %s\n"
                  (Oracles.Oracle.class_to_string f.cls)
                  f.detail)
              fs
          end
        | Baselines.Staticdet.Timeout -> Printf.printf "%-10s: timeout\n" p.name
        | Baselines.Staticdet.Error e -> Printf.printf "%-10s: error (%s)\n" p.name e)
      Baselines.Staticdet.all
  in
  Cmd.v
    (Cmd.info "static" ~doc:"Run the reimplemented static analyzers.")
    Term.(const run $ file_arg)

(* ---------------- serve ---------------- *)

let serve_cmd =
  let state_arg =
    Arg.(value & opt string "mufuzz-state" & info [ "state" ] ~docv:"DIR"
           ~doc:"Service state directory (created if missing). Each campaign \
                 owns DIR/<id>/ with its source, metadata, event trace, \
                 checkpoints, final report and repro artifacts; a restarted \
                 daemon rescans DIR and resumes unfinished campaigns.")
  in
  let socket_arg =
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix socket to listen on. Default: DIR/serve.sock.")
  in
  let port_arg =
    Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT"
           ~doc:"Also listen on 127.0.0.1:PORT (TCP).")
  in
  let slice_arg =
    Arg.(value & opt int 500 & info [ "slice-execs" ] ~docv:"N"
           ~doc:"Scheduler time slice in executions. A running campaign is \
                 preempted at its next safe point once the slice is spent \
                 (its snapshot checkpointed, the next campaign scheduled); \
                 smaller slices interleave campaigns more finely at the \
                 cost of more checkpoint writes.")
  in
  let pool_jobs_arg =
    Arg.(value & opt jobs_conv 1 & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Worker domains in the shared pool, at most 64. Campaigns \
                 submitted with \"jobs\" > 1 shard across it; the default 1 \
                 runs every campaign sequentially (and deterministically).")
  in
  let run state socket port slice_execs jobs checkpoint_keep verbose =
    setup_logs verbose;
    if not verbose then Logs.set_level (Some Logs.Info);
    let metrics = Telemetry.Metrics.create () in
    let engine =
      Serve.Engine.create ~slice_execs ~checkpoint_keep ~jobs ~state_dir:state
        ~metrics ()
    in
    let socket =
      Some (Option.value socket ~default:(Filename.concat state "serve.sock"))
    in
    Serve.Server.run ?socket ?port engine
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the multi-campaign fuzzing service daemon. Clients submit \
             contracts over a line-delimited JSON protocol (see \
             PROTOCOL.md); campaigns run concurrently via safe-point \
             preemption, each preserving the exact report an uninterrupted \
             $(b,mufuzz fuzz) would produce.")
    Term.(const run $ state_arg $ socket_arg $ port_arg $ slice_arg
          $ pool_jobs_arg $ checkpoint_keep_arg $ verbose_arg)

(* ---------------- client ---------------- *)

let client_cmd =
  let socket_arg =
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"Daemon Unix socket to connect to.")
  in
  let port_arg =
    Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT"
           ~doc:"Connect to 127.0.0.1:PORT instead of a Unix socket.")
  in
  let requests_arg =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"REQUEST"
           ~doc:"Raw JSON request lines, sent in order (see PROTOCOL.md), \
                 e.g. '{\"op\":\"status\",\"id\":\"c0001\"}'.")
  in
  let structured_error msg =
    print_endline
      (Serve.Protocol.error ~code:Serve.Protocol.Internal msg)
  in
  let run socket port requests =
    let addr =
      match (socket, port) with
      | Some p, None -> Ok (Serve.Client.Unix_socket p)
      | None, Some p -> Ok (Serve.Client.Tcp p)
      | None, None -> Error "one of --socket or --port is required"
      | Some _, Some _ -> Error "give --socket or --port, not both"
    in
    match Result.bind addr Serve.Client.connect with
    | Error msg ->
      structured_error msg;
      exit 2
    | Ok conn ->
      let all_ok =
        List.fold_left
          (fun all_ok request ->
            match Serve.Client.request_line conn request with
            | Error msg ->
              structured_error msg;
              exit 2
            | Ok response ->
              print_endline response;
              all_ok && Serve.Client.response_ok response)
          true requests
      in
      Serve.Client.close conn;
      if not all_ok then exit 1
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send raw protocol requests to a running $(b,mufuzz serve) \
             daemon, one response line per request on stdout. Exits 0 iff \
             every response has \"ok\": true, 1 on a protocol-level error \
             response, 2 when the daemon is unreachable.")
    Term.(const run $ socket_arg $ port_arg $ requests_arg)

(* ---------------- fleet ---------------- *)

let fleet_state_arg =
  Arg.(required & opt (some string) None & info [ "state" ] ~docv:"DIR"
         ~doc:"Fleet state directory: the ledger, the pinned fleet config, \
               per-shard progress and summaries. Re-running with the same \
               DIR resumes the fleet.")

let fleet_corpus_arg =
  Arg.(required & opt (some string) None & info [ "corpus" ] ~docv:"DIR"
         ~doc:"Sharded corpus directory (from $(b,mufuzz fleet shard)).")

let fleet_daemons_term ~doc =
  let daemon_arg =
    Arg.(value & opt_all string [] & info [ "daemon" ] ~docv:"SOCKET" ~doc)
  in
  let daemon_port_arg =
    Arg.(value & opt_all int [] & info [ "daemon-port" ] ~docv:"PORT"
           ~doc:"Like --daemon, for a TCP daemon on 127.0.0.1:PORT.")
  in
  Term.(const (fun sockets ports ->
            List.map (fun p -> Serve.Client.Unix_socket p) sockets
            @ List.map (fun p -> Serve.Client.Tcp p) ports)
        $ daemon_arg $ daemon_port_arg)

let fleet_config_term =
  let tools_arg =
    Arg.(value & opt (some string) None & info [ "tools" ] ~docv:"T1,T2"
           ~doc:"Comma-separated fuzzer profiles. Default: the paper's five \
                 baselines (sFuzz, ConFuzzius, Smartian, IR-Fuzz, MuFuzz).")
  in
  let budget_small_arg =
    Arg.(value & opt int 1200 & info [ "budget-small" ] ~docv:"N"
           ~doc:"Execution budget per campaign on small contracts.")
  in
  let budget_large_arg =
    Arg.(value & opt int 2000 & info [ "budget-large" ] ~docv:"N"
           ~doc:"Execution budget per campaign on large contracts.")
  in
  let fleet_seed_arg =
    Arg.(value & opt int64 0L & info [ "seed" ] ~docv:"SEED"
           ~doc:"Fleet base seed, xor-folded into each contract's \
                 deterministic campaign seed. 0 (the default) reproduces \
                 the bench harness's draws.")
  in
  let ckpt_every_arg =
    Arg.(value & opt int 500 & info [ "checkpoint-every" ] ~docv:"N"
           ~doc:"Campaign checkpoint cadence inside workers (executions) — \
                 the replay granularity after a kill.")
  in
  let buckets_arg =
    Arg.(value & opt int 10 & info [ "buckets" ] ~docv:"N"
           ~doc:"Coverage-over-time curve resolution (Fig. 5 grid points).")
  in
  let build tools budget_small budget_large seed checkpoint_every buckets =
    let config =
      {
        Fleet.Config.tools =
          (match tools with
          | None -> Fleet.Config.default.tools
          | Some s ->
            List.filter_map
              (fun t ->
                let t = String.trim t in
                if t = "" then None else Some t)
              (String.split_on_char ',' s));
        budget_small;
        budget_large;
        seed;
        checkpoint_every;
        buckets;
      }
    in
    match Fleet.Config.validate_tools config with
    | Ok () when config.buckets >= 1 -> `Ok config
    | Ok () -> `Error (false, "--buckets must be >= 1")
    | Error e -> `Error (false, e)
  in
  Term.(ret
          (const build $ tools_arg $ budget_small_arg $ budget_large_arg
           $ fleet_seed_arg $ ckpt_every_arg $ buckets_arg))

let fleet_shard_cmd =
  let out_arg =
    Arg.(required & opt (some string) None & info [ "out" ] ~docv:"DIR"
           ~doc:"Directory to write the shard files and manifest into.")
  in
  let shards_arg =
    Arg.(value & opt int 8 & info [ "shards" ] ~docv:"K"
           ~doc:"Number of shards to slice the corpus into.")
  in
  let d1_scale_arg =
    Arg.(value & opt (some int) None & info [ "d1-scale" ] ~docv:"S"
           ~doc:"Generate the bench harness's D1 populations at S times \
                 the base size (36 small + 14 large contracts per unit, \
                 seeds 101/202, filtered at the paper's 3632-instruction \
                 small/large threshold) instead of reading source files.")
  in
  let files_arg =
    Arg.(value & pos_all file [] & info [] ~docv:"FILE"
           ~doc:"Minisol contract source files to shard.")
  in
  let run out shards d1_scale files =
    let entries =
      match (d1_scale, files) with
      | Some s, [] ->
        if s < 1 then (Printf.eprintf "mufuzz: --d1-scale must be >= 1\n"; exit 124);
        let keep small (spec : Corpus.Generator.spec) =
          let c = Corpus.Generator.compile spec in
          let n = Minisol.Contract.instruction_count c in
          if small then n <= 3632 else n > 3632
        in
        let small =
          Corpus.Generator.population ~seed:101L ~n:(36 * s)
            Corpus.Generator.Small ~bug_rate:0.1
          |> List.filter (keep true)
        in
        let large =
          Corpus.Generator.population ~seed:202L ~n:(14 * s)
            Corpus.Generator.Large ~bug_rate:0.1
          |> List.filter (keep false)
        in
        List.map
          (fun (spec : Corpus.Generator.spec) ->
            { Fleet.Shard.name = spec.name; source = spec.source })
          (small @ large)
      | None, (_ :: _ as files) ->
        List.map
          (fun path ->
            { Fleet.Shard.name =
                Filename.remove_extension (Filename.basename path);
              source = read_source path })
          files
      | Some _, _ :: _ ->
        Printf.eprintf "mufuzz: give --d1-scale or source files, not both\n";
        exit 124
      | None, [] ->
        Printf.eprintf "mufuzz: nothing to shard (give --d1-scale or files)\n";
        exit 124
    in
    let manifest = Fleet.Shard.write_list ~dir:out ~shards entries in
    Printf.printf "wrote %d contracts into %d shards under %s\n"
      manifest.Fleet.Shard.m_total
      (Fleet.Shard.shards manifest)
      out;
    List.iteri
      (fun k (info : Fleet.Shard.shard_info) ->
        Printf.printf "  shard %d: %s (%d contracts)\n" k info.si_file
          info.si_count)
      manifest.Fleet.Shard.m_shards
  in
  Cmd.v
    (Cmd.info "shard"
       ~doc:"Slice a contract corpus into hash-verified fleet shards plus a \
             manifest. Workers later stream these files one contract at a \
             time.")
    Term.(const run $ out_arg $ shards_arg $ d1_scale_arg $ files_arg)

let fleet_run_cmd =
  let workers_arg =
    Arg.(value & opt int 2 & info [ "workers"; "j" ] ~docv:"N"
           ~doc:"Local worker processes to fork (ignored with --daemon).")
  in
  let heartbeat_arg =
    Arg.(value & opt float 60.0 & info [ "heartbeat-timeout" ] ~docv:"SECS"
           ~doc:"Declare a worker hung after this many seconds of heartbeat \
                 silence, kill it and reassign its shard lease. 0 disables.")
  in
  let status_arg =
    Arg.(value & opt float 0.0 & info [ "status" ] ~docv:"SECS"
           ~doc:"Print a fleet progress line to stderr every SECS seconds.")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"DIR"
           ~doc:"Also write fig5_small.csv, fig5_large.csv, fig6.csv and \
                 findings.csv (bench-harness formats) into DIR.")
  in
  let run state corpus config workers daemons heartbeat status out metrics_out
      verbose =
    setup_logs verbose;
    let dispatch =
      match daemons with
      | [] -> Fleet.Driver.Processes workers
      | addrs -> Fleet.Driver.Daemons addrs
    in
    let options =
      { (Fleet.Driver.default_options ~state ~corpus ~config ~dispatch) with
        heartbeat_timeout = heartbeat;
        status_interval = status }
    in
    let metrics = Telemetry.Metrics.create () in
    match Fleet.Driver.run ~metrics options with
    | Error e ->
      Printf.eprintf "mufuzz: fleet: %s\n" e;
      exit 1
    | Ok summary ->
      write_metrics_file metrics metrics_out;
      Option.iter (fun dir -> Fleet.Driver.write_csvs ~dir ~config summary) out;
      Printf.printf
        "fleet complete: %d contracts, %d campaigns failed, %d executions, \
         %d EVM steps\n"
        summary.Fleet.Summary.s_contracts
        (List.length summary.Fleet.Summary.s_failed)
        summary.Fleet.Summary.s_execs summary.Fleet.Summary.s_steps;
      List.iter
        (fun ((tool, size), (cell : Fleet.Summary.cell)) ->
          Printf.printf "  %-12s %-5s n=%-4d final coverage %.2f%%\n" tool size
            cell.c_n
            (if cell.c_n = 0 then 0.0
             else
               float_of_int cell.c_final_upct /. float_of_int cell.c_n /. 1e6))
        summary.Fleet.Summary.s_cells
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Drive a fleet over a sharded corpus: lease shards to worker \
             processes (or serve daemons), survive worker deaths by lease \
             reassignment, and merge per-shard summaries into the fleet \
             aggregate. SIGKILL the coordinator at any point and re-run \
             with the same arguments to resume; the final aggregate is \
             identical to an uninterrupted run's.")
    Term.(const run $ fleet_state_arg $ fleet_corpus_arg $ fleet_config_term
          $ workers_arg
          $ fleet_daemons_term
              ~doc:"Instead of running campaigns in the workers, give each \
                    $(b,mufuzz serve) daemon at this Unix socket one worker \
                    that submits its shard's campaigns there (repeatable; \
                    one worker per daemon)."
          $ heartbeat_arg
          $ status_arg $ out_arg $ metrics_arg $ verbose_arg)

let fleet_worker_cmd =
  let shard_arg =
    Arg.(required & opt (some int) None & info [ "shard" ] ~docv:"K"
           ~doc:"Shard index to process.")
  in
  let run state corpus shard daemons verbose =
    setup_logs verbose;
    let config_path = Filename.concat state Fleet.Driver.config_file in
    match
      Fleet.Config.of_string (String.trim (Util.Fileio.read_file config_path))
    with
    | exception Sys_error e ->
      Printf.eprintf "mufuzz: fleet worker: %s\n" e;
      exit 3
    | Error e ->
      Printf.eprintf "mufuzz: fleet worker: %s: %s\n" config_path e;
      exit 3
    | Ok _ when List.length daemons > 1 ->
      Printf.eprintf "mufuzz: fleet worker: give at most one daemon\n";
      exit 3
    | Ok config -> (
      let daemon = List.nth_opt daemons 0 in
      match Fleet.Worker.run_shard ?daemon ~state ~corpus ~shard ~config () with
      | Ok summary ->
        Printf.printf "shard %d done: %d contracts, %d campaign failures\n"
          shard summary.Fleet.Summary.s_contracts
          (List.length summary.Fleet.Summary.s_failed)
      | Error e ->
        Printf.eprintf "mufuzz: fleet worker: shard %d: %s\n" shard e;
        exit 3)
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:"Process one corpus shard (normally spawned by $(b,fleet run), \
             which passes --state/--corpus/--shard, and --daemon or \
             --daemon-port in daemon dispatch). Reads the fleet config \
             pinned in the state directory, streams the shard, and \
             publishes progress and the final shard summary.")
    Term.(const run $ fleet_state_arg $ fleet_corpus_arg $ shard_arg
          $ fleet_daemons_term
              ~doc:"Submit the shard's campaigns to the $(b,mufuzz serve) \
                    daemon at this Unix socket instead of running them \
                    in-process."
          $ verbose_arg)

let fleet_status_cmd =
  let run state =
    match Fleet.Ledger.load ~dir:state with
    | Error e ->
      Printf.eprintf "mufuzz: fleet status: %s\n" e;
      exit 1
    | Ok None ->
      Printf.printf "%s: no fleet ledger (nothing started yet)\n" state
    | Ok (Some ledger) ->
      Array.iteri
        (fun k st ->
          match (st : Fleet.Ledger.state) with
          | Fleet.Ledger.Pending -> Printf.printf "  shard %d: pending\n" k
          | Fleet.Ledger.Leased { l_worker } ->
            Printf.printf "  shard %d: leased to worker %d\n" k l_worker
          | Fleet.Ledger.Done { d_contracts; d_failed } ->
            Printf.printf "  shard %d: done (%d contracts, %d failures)\n" k
              d_contracts d_failed)
        ledger.Fleet.Ledger.lg_states;
      Printf.printf "%d/%d shards done, %d lease reassignments\n"
        (Fleet.Ledger.done_count ledger)
        (Fleet.Ledger.shards ledger)
        ledger.Fleet.Ledger.lg_reassignments
  in
  Cmd.v
    (Cmd.info "status" ~doc:"Print the fleet ledger's per-shard state.")
    Term.(const run $ fleet_state_arg)

let fleet_cmd =
  Cmd.group
    (Cmd.info "fleet"
       ~doc:"D1-scale fleet orchestration: shard a corpus, drive it across \
             worker processes or serve daemons with crash-safe lease \
             accounting, aggregate results in bounded memory.")
    [ fleet_shard_cmd; fleet_run_cmd; fleet_worker_cmd; fleet_status_cmd ]

let () =
  let info =
    Cmd.info "mufuzz" ~version:"1.0.0"
      ~doc:"Sequence-aware smart contract fuzzing (MuFuzz, ICDE 2024 reproduction)."
  in
  let group =
    Cmd.group info
      [ fuzz_cmd; resume_cmd; analyze_cmd; disasm_cmd; exec_cmd; static_cmd;
        corpus_cmd; shrink_cmd; repro_cmd; serve_cmd; client_cmd; fleet_cmd ]
  in
  (* [~catch:false] so a stray exception becomes one structured error
     line and a distinct exit code, not a backtrace dump *)
  let code =
    try Cmd.eval ~catch:false group with
    | Failure msg | Sys_error msg ->
      Printf.eprintf "mufuzz: error: %s\n" msg;
      125
    | Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "mufuzz: error: %s: %s%s\n" fn (Unix.error_message e)
        (if arg = "" then "" else " (" ^ arg ^ ")");
      125
    | e ->
      Printf.eprintf "mufuzz: internal error: %s\n" (Printexc.to_string e);
      125
  in
  exit code
