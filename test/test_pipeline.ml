(* Equivalence of the fused streaming pipeline with the offline checkers.

   The acceptance property of the online-analysis refactor: one two-phase
   pass over a replayable event source — never materializing a trace —
   reports exactly what every offline [check : Trace.t -> result] entry
   point reports. Exercised on random feasible traces, random well-formed
   concurrent programs (re-executed deterministically as the source), all
   fourteen evaluation workloads, and traces streamed back off disk. *)

(* Bind the shared harness before [open QCheck2] shadows the module name. *)
let gen_trace = Gen.gen_trace
let print_trace = Gen.print_trace
let gen_program = Gen.gen_concurrent_program
let atomize_offline = Gen.atomize_offline

let to_alcotest = Gen.to_alcotest
open QCheck2
open Coop_trace
open Coop_runtime
open Coop_core
open Coop_workloads

(* The full pipeline (every optional baseline on) against the per-checker
   offline entry points on the recorded equivalent of the same stream. *)
let agrees_with_offline trace (p : Coop_pipeline.result) =
  let coop = Cooperability.check trace in
  p.Coop_pipeline.races = Coop_race.Fasttrack.run trace
  && Event.Var_set.equal p.Coop_pipeline.racy coop.Cooperability.racy
  && p.Coop_pipeline.violations = coop.Cooperability.violations
  && p.Coop_pipeline.deadlock = Deadlock.analyze trace
  && p.Coop_pipeline.atomizer = Some (atomize_offline trace)
  && p.Coop_pipeline.conflict = Some (Coop_atomicity.Conflict.check trace)
  && p.Coop_pipeline.events = Trace.length trace

let full_run source =
  Coop_pipeline.run ~atomize:true ~conflict:true source

let prop_trace name count f =
  to_alcotest (Test.make ~name ~count ~print:print_trace gen_trace f)

let prop_program name count f =
  to_alcotest
    (Test.make ~name ~count ~print:Coop_lang.Pretty.program gen_program f)

let pipeline_matches_offline_on_traces =
  prop_trace "fused pipeline = offline checkers on random feasible traces" 60
    (fun trace -> agrees_with_offline trace (full_run (Source.of_trace trace)))

(* The decoder hands each event in one reused scratch record, so a
   checker that kept a reference to an event would see it overwritten. *)
let online_over_binary_stream =
  prop_trace "Cooperability.online_analysis over a binary stream = check" 60
    (fun trace ->
      let bytes = Codec.to_string trace in
      Source.run (Codec.iter_string bytes) (Cooperability.online_analysis ())
      = Cooperability.check trace)

(* The source is a deterministic re-execution of the program — the pipeline
   never sees a [Trace.t]; the offline side records the identical run. *)
let pipeline_matches_offline_on_programs =
  prop_program "fused pipeline over re-execution = offline on recorded run" 30
    (fun p ->
      let prog = Coop_lang.Compile.program p in
      let sched () = Sched.random ~seed:13 () in
      let _, trace =
        Runner.record ~max_steps:300_000 ~sched:(sched ()) prog
      in
      let source = Runner.source ~max_steps:300_000 ~sched prog in
      agrees_with_offline trace (full_run source))

(* The acceptance criterion: all fourteen evaluation workloads, streamed
   straight from the VM, match the offline checkers field by field. *)
let test_workloads_match () =
  List.iter
    (fun (e : Registry.entry) ->
      let threads = min 3 e.Registry.default_threads in
      let size = max 1 (e.Registry.default_size / 2) in
      let prog = Registry.program_of ~threads ~size e in
      let sched () = Sched.random ~seed:7 () in
      let _, trace =
        Runner.record ~max_steps:3_000_000 ~sched:(sched ()) prog
      in
      let p = full_run (Runner.source ~max_steps:3_000_000 ~sched prog) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: pipeline = offline" e.Registry.name)
        true
        (agrees_with_offline trace p))
    Registry.all

(* Streaming a serialized trace back off disk is just another source. *)
let test_file_source_matches () =
  let e = Option.get (Registry.find "philo") in
  let prog = Registry.program_of ~threads:3 ~size:2 e in
  let _, trace =
    Runner.record ~max_steps:3_000_000 ~sched:(Sched.random ~seed:3 ()) prog
  in
  let path = Filename.temp_file "coop_pipeline" ".tr" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Serialize.with_file_sink path (fun sink -> Trace.iter sink trace);
      let p = full_run (Source.of_file path) in
      Alcotest.(check bool) "file-streamed pipeline = offline" true
        (agrees_with_offline trace p);
      Alcotest.(check int) "stream length survives the round trip"
        (Trace.length trace)
        (Source.count (Source.of_file path)))

let suite =
  [
    pipeline_matches_offline_on_traces;
    online_over_binary_stream;
    pipeline_matches_offline_on_programs;
    Alcotest.test_case "all workloads: pipeline = offline" `Slow
      test_workloads_match;
    Alcotest.test_case "file source matches" `Quick test_file_source_matches;
  ]
