(* Whole-stack fuzzing: random well-formed concurrent programs are run
   through the complete pipeline (compile -> schedulers -> race detectors ->
   cooperability -> inference). All loops are bounded and all array indices
   are masked, so every generated program terminates fault-free under every
   scheduler — which the properties then verify, along with the analysis
   invariants. *)

(* The program generator lives in the shared harness (Gen); bind it before
   [open QCheck2] shadows the module name. *)
let gen_program = Gen.gen_concurrent_program

let to_alcotest = Gen.to_alcotest
open QCheck2
open Coop_lang
open Coop_runtime
open Coop_core

let compile p = Compile.program p

let prop name count f =
  to_alcotest (Test.make ~name ~count ~print:Pretty.program gen_program f)

let terminates =
  prop "generated programs terminate fault-free under every scheduler" 60
    (fun p ->
      let prog = compile p in
      List.for_all
        (fun sched ->
          let o =
            Runner.run ~max_steps:300_000 ~sched
              ~sink:Coop_trace.Trace.Sink.ignore prog
          in
          o.Runner.termination = Runner.Completed
          && Vm.failures o.Runner.final = [])
        [ Sched.random ~seed:3 (); Sched.round_robin ~quantum:2 ();
          Sched.cooperative (); Sched.pct ~seed:5 ~depth:3 ~change_span:1000 () ])

let detectors_agree =
  prop "fasttrack = naive HB on real program traces" 60 (fun p ->
      let prog = compile p in
      let _, trace =
        Runner.record ~max_steps:300_000 ~sched:(Sched.random ~seed:11 ()) prog
      in
      Coop_trace.Event.Var_set.equal
        (Coop_race.Fasttrack.racy_vars_of_trace trace)
        (Coop_race.Naive_hb.racy_vars trace))

let lockset_superset =
  prop "lockset racy contains fasttrack racy on real traces" 60 (fun p ->
      let prog = compile p in
      let _, trace =
        Runner.record ~max_steps:300_000 ~sched:(Sched.random ~seed:17 ()) prog
      in
      Coop_trace.Event.Var_set.subset
        (Coop_race.Fasttrack.racy_vars_of_trace trace)
        (Coop_race.Lockset.racy_vars_of_trace trace))

let inference_fixpoint =
  prop "yield inference reaches a clean fixpoint" 25 (fun p ->
      let prog = compile p in
      let portfolio =
        [ (fun () -> Sched.random ~seed:3 ());
          (fun () -> Sched.round_robin ~quantum:1 ());
          (fun () -> Sched.random ~seed:91 ()) ]
      in
      let inf = Infer.infer ~portfolio ~max_steps:300_000 prog in
      inf.Infer.final_check_violations = 0)

let serialization_roundtrip =
  prop "recorded traces serialize round trip" 40 (fun p ->
      let prog = compile p in
      let _, trace =
        Runner.record ~max_steps:300_000 ~sched:(Sched.random ~seed:29 ()) prog
      in
      let trace' =
        Coop_trace.Serialize.of_string (Coop_trace.Serialize.to_string trace)
      in
      Coop_trace.Trace.length trace = Coop_trace.Trace.length trace')

let static_sound =
  (* The sound implication: a statically clean program has no dynamic
     violations under any schedule. (Yield LOCATION sets can legitimately
     differ — e.g. the dynamic analysis proves a lock-array element
     thread-local per handle where the static one shares the whole group,
     shifting the repair point by an instruction — so location containment
     is not the right property.) *)
  prop "statically clean implies dynamically clean" 25 (fun p ->
      let prog = compile p in
      if Coop_static.Check.check prog <> [] then true
      else begin
        List.for_all
          (fun sched ->
            let _, trace = Runner.record ~max_steps:300_000 ~sched prog in
            (Cooperability.check trace).Cooperability.violations = [])
          [ Sched.random ~seed:3 (); Sched.round_robin ~quantum:1 ();
            Sched.random ~seed:77 () ]
      end)

let suite =
  [
    terminates;
    detectors_agree;
    lockset_superset;
    inference_fixpoint;
    serialization_roundtrip;
    static_sound;
  ]
