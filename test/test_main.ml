(* Test runner: one alcotest binary aggregating every module's suite. *)

let () =
  Alcotest.run "dfm_resynthesis"
    [
      ("util", Test_util.suite);
      ("failpoint", Test_failpoint.suite);
      ("journal", Test_journal.suite);
      ("parallel", Test_parallel.suite);
      ("properties", Test_properties.suite);
      ("logic", Test_logic.suite);
      ("sat", Test_sat.suite);
      ("sat-incr", Test_sat_incr.suite);
      ("cert", Test_cert.suite);
      ("netlist", Test_netlist.suite);
      ("cellmodel", Test_cellmodel.suite);
      ("lint", Test_lint.suite);
      ("sim", Test_sim.suite);
      ("atpg", Test_atpg.suite);
      ("incr", Test_incr.suite);
      ("synth", Test_synth.suite);
      ("layout", Test_layout.suite);
      ("timing", Test_timing.suite);
      ("guidelines", Test_guidelines.suite);
      ("cluster", Test_cluster.suite);
      ("diagnose", Test_diagnose.suite);
      ("circuits", Test_circuits.suite);
      ("resynth", Test_resynth.suite);
      ("checkpoint", Test_checkpoint.suite);
      ("obs", Test_obs.suite);
      ("serve", Test_serve.suite);
    ]
