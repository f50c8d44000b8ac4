(* The full test suite: one alcotest section per module family. *)

let () =
  Alcotest.run "coop"
    [
      ("util.rng", Test_rng.suite);
      ("util.pool", Test_pool.suite);
      ("util.stats", Test_stats.suite);
      ("util.table", Test_table.suite);
      ("util.id_table", Test_id_table.suite);
      ("util.json", Test_json.suite);
      ("obs", Test_obs.suite);
      ("trace", Test_trace.suite);
      ("trace.serialize", Test_serialize.suite);
      ("trace.codec", Test_codec.suite);
      ("trace.interner", Test_interner.suite);
      ("race.vclock", Test_vclock.suite);
      ("race.detectors", Test_race.suite);
      ("race.lockset", Test_lockset.suite);
      ("lang.lexer", Test_lexer.suite);
      ("lang.parser", Test_parser.suite);
      ("lang.resolve", Test_resolve.suite);
      ("lang.compile", Test_compile.suite);
      ("lang.eval", Test_eval.suite);
      ("runtime.vm", Test_vm.suite);
      ("runtime.sched", Test_sched.suite);
      ("runtime.runner", Test_runner.suite);
      ("runtime.runahead", Test_runahead.suite);
      ("runtime.skip", Test_skip.suite);
      ("runtime.golden", Test_golden.suite);
      ("runtime.explore", Test_explore.suite);
      ("runtime.monitor", Test_monitor.suite);
      ("core.mover", Test_mover.suite);
      ("core.automaton", Test_automaton.suite);
      ("core.cooperability", Test_cooperability.suite);
      ("core.infer", Test_infer.suite);
      ("core.metrics", Test_metrics.suite);
      ("core.equivalence", Test_equivalence.suite);
      ("core.deadlock", Test_deadlock.suite);
      ("atomicity", Test_atomicity.suite);
      ("pipeline", Test_pipeline.suite);
      ("differential", Test_differential.suite);
      ("witness", Test_witness.suite);
      ("static", Test_static.suite);
      ("workloads", Test_workloads.suite);
      ("fuzz", Test_fuzz.suite);
      ("parallel", Test_parallel.suite);
      ("replay", Test_replay.suite);
      ("sample-programs", Test_programs.suite);
      ("bench.gates", Test_gates.suite);
    ]
