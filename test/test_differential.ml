(* Differential suite: the single-pass online engine against the two-pass
   reference oracle.

   The single-pass refactor classifies movers optimistically and repairs
   transactions when racy-variable / shared-lock facts arrive late; the
   two-pass mode learns the final fact set first and classifies with full
   knowledge. The two must be extensionally identical — same violations,
   warnings, races and racy sets, in the same order — on every input. This
   suite pins that equivalence on random feasible traces, on traces built
   to deliver facts late (single-threaded prefix, racing epilogue), on
   lock-heavy traces where every lock is shared by every thread, on
   fork/join-heavy and call-heavy generated programs re-executed as
   streams, on a recorded trace with unmatched boundaries, and through
   the inference fixpoint (its first round against the two-pass oracle
   run over the same portfolio). It also pins the operational payoffs:
   one VM execution per portfolio schedule, and the ability to consume a
   non-replayable pipe. The oracle is the pipeline's two-pass mode,
   [Coop_pipeline.run ~two_pass:true]. *)

(* Bind the shared harness before [open QCheck2] shadows the module name. *)
let gen_trace = Gen.gen_trace
let gen_late_trace = Gen.gen_late_trace
let print_trace = Gen.print_trace
let gen_late_program = Gen.gen_late_program
let gen_lock_heavy_trace = Gen.gen_lock_heavy_trace
let gen_call_program = Gen.gen_call_program
let atomize = Gen.atomize
let atomize_offline = Gen.atomize_offline

let to_alcotest = Gen.to_alcotest
open QCheck2
open Coop_util
open Coop_trace
open Coop_runtime
open Coop_core
open Coop_workloads

(* Structural equality is right for every field except the variable set,
   whose balanced-tree layout depends on insertion order. *)
let coop_result_equal (a : Cooperability.result) (b : Cooperability.result) =
  a.Cooperability.violations = b.Cooperability.violations
  && a.Cooperability.races = b.Cooperability.races
  && Event.Var_set.equal a.Cooperability.racy b.Cooperability.racy
  && a.Cooperability.events = b.Cooperability.events

let pipeline_result_equal (a : Coop_pipeline.result) (b : Coop_pipeline.result)
    =
  a.Coop_pipeline.races = b.Coop_pipeline.races
  && Event.Var_set.equal a.Coop_pipeline.racy b.Coop_pipeline.racy
  && a.Coop_pipeline.violations = b.Coop_pipeline.violations
  && a.Coop_pipeline.deadlock = b.Coop_pipeline.deadlock
  && a.Coop_pipeline.atomizer = b.Coop_pipeline.atomizer
  && a.Coop_pipeline.conflict = b.Coop_pipeline.conflict
  && a.Coop_pipeline.events = b.Coop_pipeline.events

(* The single-pass checker against the two-pass oracle, on the fields
   they share. *)
let two_pass trace = Coop_pipeline.run ~two_pass:true (Source.of_trace trace)

let agrees_with_oracle (c : Cooperability.result) (o : Coop_pipeline.result) =
  c.Cooperability.violations = o.Coop_pipeline.violations
  && c.Cooperability.races = o.Coop_pipeline.races
  && Event.Var_set.equal c.Cooperability.racy o.Coop_pipeline.racy
  && c.Cooperability.events = o.Coop_pipeline.events

let coop_agrees trace =
  agrees_with_oracle (Cooperability.check trace) (two_pass trace)

let atomizer_agrees trace = atomize trace = atomize_offline trace

let pipeline_agrees mk_source =
  pipeline_result_equal
    (Coop_pipeline.run ~atomize:true ~conflict:true (mk_source ()))
    (Coop_pipeline.run ~atomize:true ~conflict:true ~two_pass:true
       (mk_source ()))

let prop gen name count f =
  to_alcotest (Test.make ~name ~count ~print:print_trace gen f)

(* --- Checker-level equivalence on random traces --------------------- *)

let coop_on_traces =
  prop gen_trace "cooperability: single-pass = two-pass on feasible traces" 80
    coop_agrees

let coop_on_late_traces =
  prop gen_late_trace
    "cooperability: single-pass = two-pass on late-knowledge traces" 80
    coop_agrees

let atomizer_on_traces =
  prop gen_trace "atomizer: fused = three-stream on feasible traces" 80
    atomizer_agrees

let atomizer_on_late_traces =
  prop gen_late_trace "atomizer: fused = three-stream on late-knowledge traces"
    80 atomizer_agrees

let pipeline_on_traces =
  prop gen_trace "full pipeline: single-pass = two-pass on feasible traces" 50
    (fun trace -> pipeline_agrees (fun () -> Source.of_trace trace))

let pipeline_on_late_traces =
  prop gen_late_trace
    "full pipeline: single-pass = two-pass on late-knowledge traces" 50
    (fun trace -> pipeline_agrees (fun () -> Source.of_trace trace))

(* Every lock shared by every thread: shared-lock facts arrive on nearly
   every event, and each may reclassify an open transaction. *)
let coop_on_lock_heavy_traces =
  prop gen_lock_heavy_trace
    "cooperability: single-pass = two-pass on lock-heavy traces" 40
    coop_agrees

let atomizer_on_lock_heavy_traces =
  prop gen_lock_heavy_trace
    "atomizer: fused = three-stream on lock-heavy traces" 30 atomizer_agrees

let pipeline_on_lock_heavy_traces =
  prop gen_lock_heavy_trace
    "full pipeline: single-pass = two-pass on lock-heavy traces" 20
    (fun trace -> pipeline_agrees (fun () -> Source.of_trace trace))

(* The same chain as an analysis, attached to a live stream as a sink. *)
let online_sink_agrees =
  prop gen_late_trace "Cooperability.online_analysis sink = check" 50
    (fun trace ->
      let a = Cooperability.online_analysis () in
      Trace.iter (Analysis.sink a) trace;
      coop_result_equal (Analysis.finalize a) (Cooperability.check trace))

(* --- Program-level equivalence: re-executed streams ----------------- *)

(* Generated programs, re-executed deterministically in both modes via
   the scheduler factory. *)
let pipeline_on_programs name gen =
  to_alcotest
    (Test.make ~name ~count:25 ~print:Coop_lang.Pretty.program gen (fun p ->
         let prog = Coop_lang.Compile.program p in
         let sched () = Sched.random ~seed:31 () in
         pipeline_agrees (fun () ->
             Runner.source ~max_steps:300_000 ~sched prog)))

(* Fork/join-heavy programs with an unsynchronized main prelude: the
   facts about the prelude's variables (and the atomic blocks' implicit
   assumptions) only arrive once the workers run. *)
let pipeline_on_late_programs =
  pipeline_on_programs "full pipeline: single-pass = two-pass on late programs"
    gen_late_program

(* Workers that call helpers, recursive ones included. A yield inside a
   callee closes the automaton's segment while the Atomizer's
   activations of the same thread, the caller's among them, stay open. *)
let pipeline_on_call_programs =
  pipeline_on_programs "full pipeline: single-pass = two-pass on call programs"
    gen_call_program

(* --- Inference: identical fixpoints, one execution per schedule ------ *)

let pools = [ (1, Pool.create ~jobs:1 ()); (2, Pool.create ~jobs:2 ());
              (4, Pool.create ~jobs:4 ()) ]

let loc_set =
  Alcotest.testable
    (Fmt.of_to_string (fun s ->
         String.concat ","
           (List.map (Format.asprintf "%a" Loc.pp) (Loc.Set.elements s))))
    Loc.Set.equal

let infer_prog () =
  let e = Option.get (Registry.find "philo") in
  Registry.program_of ~threads:2 ~size:2 e

let test_infer_jobs_agree () =
  let prog = infer_prog () in
  let reference =
    Infer.infer ~pool:(List.assoc 1 pools) ~max_steps:300_000 prog
  in
  List.iter
    (fun (jobs, pool) ->
      let r = Infer.infer ~pool ~max_steps:300_000 prog in
      let tag = Printf.sprintf "jobs=%d" jobs in
      Alcotest.check loc_set (tag ^ ": yields") reference.Infer.yields
        r.Infer.yields;
      Alcotest.(check int) (tag ^ ": rounds") reference.Infer.rounds
        r.Infer.rounds;
      Alcotest.(check int)
        (tag ^ ": initial violations")
        reference.Infer.initial_violations r.Infer.initial_violations;
      Alcotest.(check int)
        (tag ^ ": final check")
        reference.Infer.final_check_violations
        r.Infer.final_check_violations;
      Alcotest.(check int)
        (tag ^ ": events analyzed")
        reference.Infer.events_analyzed r.Infer.events_analyzed)
    pools

(* The inference path against the two-pass oracle: round one runs every
   portfolio schedule with no inferred yields, so its violation count is
   the oracle's summed over the same schedules at the same step
   budget. *)
let test_infer_matches_two_pass () =
  let prog = infer_prog () in
  let max_steps = 300_000 in
  let r = Infer.infer ~pool:(List.assoc 1 pools) ~max_steps prog in
  let oracle =
    List.fold_left
      (fun acc sched ->
        let o =
          Coop_pipeline.run ~two_pass:true
            (Runner.source ~max_steps ~sched prog)
        in
        acc + List.length o.Coop_pipeline.violations)
      0 Infer.default_portfolio
  in
  Alcotest.(check bool) "the portfolio violates" true (oracle > 0);
  Alcotest.(check int) "initial violations = two-pass oracle over the portfolio"
    oracle r.Infer.initial_violations

(* Span-count accounting: every [infer/schedule:*] span contains exactly
   one [vm/run:*] span — the program executed once per schedule. *)
let count_spans snap prefix =
  List.length
    (List.filter
       (fun s -> String.starts_with ~prefix s.Coop_obs.span_name)
       snap.Coop_obs.spans)

let test_single_pass_executes_once () =
  Coop_obs.reset ();
  Coop_obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Coop_obs.disable ();
      Coop_obs.reset ())
    (fun () ->
      let prog = infer_prog () in
      ignore (Infer.infer ~pool:(List.assoc 1 pools) ~max_steps:300_000 prog);
      let snap = Coop_obs.snapshot () in
      let schedules = count_spans snap "infer/schedule:" in
      let runs = count_spans snap "vm/run:" in
      Alcotest.(check bool) "portfolio ran schedules" true (schedules > 0);
      Alcotest.(check int) "one VM execution per schedule" schedules runs)

(* --- Pipes: single-pass consumes what two-pass cannot --------------- *)

let test_channel_source () =
  let e = Option.get (Registry.find "philo") in
  let prog = Registry.program_of ~threads:3 ~size:2 e in
  let _, trace =
    Runner.record ~max_steps:3_000_000 ~sched:(Sched.random ~seed:3 ()) prog
  in
  let path = Filename.temp_file "coop_differential" ".tr" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Serialize.with_file_sink path (fun sink -> Trace.iter sink trace);
      (* The single-pass checker consumes the channel in its one pass. *)
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          Alcotest.(check bool) "piped check = recorded check" true
            (coop_result_equal
               (Source.run (Source.of_channel ic)
                  (Cooperability.online_analysis ()))
               (Cooperability.check trace)));
      (* A channel source refuses to replay rather than stream garbage. *)
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let source = Source.of_channel ic in
          Alcotest.(check int) "first replay streams every event"
            (Trace.length trace) (Source.count source);
          let raised =
            try
              ignore (Source.count source);
              false
            with Invalid_argument _ -> true
          in
          Alcotest.(check bool) "second replay raises Invalid_argument" true
            raised))

(* --- Edge cases of the flat engine ----------------------------------- *)

let trace_of ?(loc = fun pc -> Loc.make ~func:0 ~pc ~line:1) events =
  let tr = Trace.create () in
  List.iteri (fun pc (tid, op) -> Trace.add tr (Event.make ~tid ~op ~loc:(loc pc))) events;
  tr

(* Two threads alternate over the same 1,000 variables inside one
   transaction each (no yields), so every access defeats the other
   thread's registration stamp and chains duplicate entries. A lock
   orders the accesses until both threads touch v7 unprotected: the late
   Racy(v7) fact walks a chain full of duplicates and must still repair
   both open transactions. *)
let test_stamp_defeating_duplicates () =
  let v i = Event.Global i in
  let crit tid op = [ (tid, Event.Acquire 0); (tid, op); (tid, Event.Release 0) ] in
  let rounds =
    List.concat_map
      (fun _ ->
        List.concat_map
          (fun i -> crit 1 (Event.Write (v i)) @ crit 2 (Event.Read (v i)))
          (List.init 1000 Fun.id))
      [ 1; 2 ]
  in
  let tr =
    trace_of
      ([ (0, Event.Fork 1); (0, Event.Fork 2) ] @ rounds
      @ [ (1, Event.Write (v 7)); (2, Event.Write (v 7)); (1, Event.Read (v 8)) ])
  in
  let oracle = two_pass tr in
  Alcotest.(check bool) "a late racy fact arrived" true
    (Event.Var_set.mem (v 7) oracle.Coop_pipeline.racy);
  Alcotest.(check bool) "single-pass = two-pass" true
    (agrees_with_oracle (Cooperability.check tr) oracle);
  Alcotest.(check bool) "full pipeline agrees" true
    (pipeline_agrees (fun () -> Source.of_trace tr))

(* A 3-deep nested Atomizer activation: the innermost closes with a
   pending assumption, then the fact arrives while the two outer ones
   are still open, and they go on stepping afterwards. Locations outside
   the VM's ranges (negative, or beyond 2^20 functions) take the log's
   escape path through the replay. *)
let test_nested_activation_late_fact () =
  let x = Event.Global 0 and y = Event.Global 1 in
  let tr =
    trace_of ~loc:(fun pc ->
        if pc mod 2 = 0 then Loc.make ~func:(1 lsl 40) ~pc:(-pc) ~line:pc
        else Loc.none)
      [ (0, Event.Fork 1); (0, Event.Fork 2);
        (1, Event.Enter 0); (1, Event.Read x); (1, Event.Enter 1);
        (1, Event.Write y); (1, Event.Enter 2); (1, Event.Read x);
        (1, Event.Write x); (1, Event.Exit 2);
        (2, Event.Write x);  (* races with t1: Racy(x) arrives here *)
        (1, Event.Read y); (1, Event.Write x); (1, Event.Exit 1);
        (1, Event.Read x); (1, Event.Exit 0) ]
  in
  let online = atomize tr in
  Alcotest.(check bool) "single-pass = two-pass" true
    (online = atomize_offline tr);
  Alcotest.(check bool) "the late fact flagged activations" true
    (online.Coop_atomicity.Atomizer.warnings <> []);
  Alcotest.(check bool) "full pipeline agrees" true
    (pipeline_agrees (fun () -> Source.of_trace tr))

(* Trace files come from outside the program, so boundaries need not
   match: an [Exit] and an [Atomic_end] with no opener, a [Yield] before
   a thread's first op, an [Exit] naming another function than the open
   [Enter] (it closes the innermost activation all the same). An
   unmatched boundary must leave other threads' activations open. Both
   modes must agree and raise nothing, from memory and from a saved
   file. *)
let test_unmatched_boundaries () =
  let x = Event.Global 0 and y = Event.Global 1 in
  let tr =
    trace_of
      [ (0, Event.Exit 3); (0, Event.Atomic_end); (0, Event.Fork 1);
        (0, Event.Fork 2); (1, Event.Yield); (1, Event.Enter 0);
        (1, Event.Write x); (1, Event.Atomic_begin); (1, Event.Acquire 0);
        (2, Event.Yield); (2, Event.Atomic_end); (2, Event.Enter 1);
        (2, Event.Write x);  (* races with t1: Racy(x) arrives here *)
        (1, Event.Write x); (1, Event.Write x); (1, Event.Write y);
        (1, Event.Release 0); (1, Event.Exit 5);
        (1, Event.Acquire 0); (1, Event.Release 0); (1, Event.Exit 0);
        (1, Event.Atomic_end); (2, Event.Exit 1); (2, Event.Exit 1);
        (2, Event.Read x); (2, Event.Atomic_end) ]
  in
  let single = atomize tr in
  Alcotest.(check bool) "single-pass = two-pass" true
    (single = atomize ~two_pass:true tr);
  Alcotest.(check bool) "single-pass = three-stream" true
    (single = atomize_offline tr);
  Alcotest.(check int) "activations" 3 single.Coop_atomicity.Atomizer.activations;
  Alcotest.(check int) "the late fact flagged both of t1's activations" 2
    (List.length single.Coop_atomicity.Atomizer.warnings);
  let path = Filename.temp_file "coop_unmatched" ".tr" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Serialize.save path tr;
      Alcotest.(check bool) "from a file: single-pass = two-pass" true
        (pipeline_agrees (fun () -> Source.of_file path)))

(* A long yield-disciplined, race-free stream — each transaction one
   critical section with one access, then a yield — must run in bounded
   memory: every transaction retires at its yield and each thread's log
   is cut back, though the race-free assumptions never resolve. *)
let test_engine_memory_bounded () =
  let a = Cooperability.online_analysis () in
  let e = Event.make ~tid:0 ~op:Event.Yield ~loc:(Loc.make ~func:0 ~pc:0 ~line:1) in
  let emit tid op =
    e.Event.tid <- tid;
    e.Event.op <- op;
    Analysis.step a e
  in
  emit 0 (Event.Fork 1);
  emit 0 (Event.Fork 2);
  let sent = ref 2 in
  let run_to n =
    while !sent < n do
      let tid = 1 + (!sent / 8 mod 2) in
      let access = if !sent mod 16 < 8 then Event.Read (Event.Global 0) else Event.Write (Event.Global 0) in
      emit tid (Event.Acquire 0);
      emit tid access;
      emit tid (Event.Release 0);
      emit tid Event.Yield;
      sent := !sent + 4
    done
  in
  run_to 10_000;
  let early = Obj.reachable_words (Obj.repr a) in
  run_to 1_000_000;
  let late = Obj.reachable_words (Obj.repr a) in
  Alcotest.(check bool)
    (Printf.sprintf "words at 1e6 events (%d) within 1.5x of 1e4 (%d)" late early)
    true
    (float_of_int late <= 1.5 *. float_of_int early);
  let r = Analysis.finalize a in
  Alcotest.(check int) "race-free" 0 (List.length r.Cooperability.races);
  Alcotest.(check int) "cooperable" 0 (List.length r.Cooperability.violations)

let suite =
  [
    coop_on_traces;
    coop_on_late_traces;
    atomizer_on_traces;
    atomizer_on_late_traces;
    pipeline_on_traces;
    pipeline_on_late_traces;
    coop_on_lock_heavy_traces;
    atomizer_on_lock_heavy_traces;
    pipeline_on_lock_heavy_traces;
    online_sink_agrees;
    pipeline_on_late_programs;
    pipeline_on_call_programs;
    Alcotest.test_case "infer: identical across jobs" `Slow
      test_infer_jobs_agree;
    Alcotest.test_case "infer: initial violations = two-pass over the portfolio"
      `Quick test_infer_matches_two_pass;
    Alcotest.test_case "infer single-pass: 1 execution per schedule" `Quick
      test_single_pass_executes_once;
    Alcotest.test_case "channel source: consumable once, by one pass" `Quick
      test_channel_source;
    Alcotest.test_case "engine: stamp-defeating duplicates, late fact" `Quick
      test_stamp_defeating_duplicates;
    Alcotest.test_case "engine: late fact into nested open activations" `Quick
      test_nested_activation_late_fact;
    Alcotest.test_case "engine: unmatched boundaries in a recorded trace"
      `Quick test_unmatched_boundaries;
    Alcotest.test_case "engine: bounded memory on a long disciplined stream"
      `Quick test_engine_memory_bounded;
  ]
