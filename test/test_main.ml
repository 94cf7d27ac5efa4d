let () =
  Alcotest.run "mufuzz"
    (Test_util.suite @ Test_u256.suite @ Test_crypto.suite @ Test_evm.suite
    @ Test_abi.suite @ Test_minisol.suite @ Test_analysis.suite
    @ Test_oracles.suite @ Test_mufuzz.suite @ Test_coverage_model.suite
    @ Test_baselines.suite
    @ Test_corpus.suite @ Test_parallel.suite @ Test_telemetry.suite
    @ Test_differential.suite @ Test_triage.suite @ Test_hotloop.suite
    @ Test_golden.suite @ Test_persist.suite @ Test_batch.suite @ Test_serve.suite
    @ Test_predict.suite @ Test_maskplan.suite @ Test_fleet.suite
    @ Test_decode.suite @ Test_dispatch.suite)
