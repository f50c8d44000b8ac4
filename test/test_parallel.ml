(* Determinism of the domain-parallel analyses: for every pool size the
   parallel paths must produce the same answers as the sequential ones —
   identical inferred yield sets for Infer, and an identical verdict,
   down to the state counts, for Equivalence (which runs its two
   explorations as two pool tasks). The explorers themselves are
   sequential, but they run as pool tasks, several at once: a run on a
   worker domain, next to other runs, must give the main domain's result
   in every field. Checked on hand-written micro programs and on
   qcheck-generated concurrent programs. *)

(* Bind before [open QCheck2] shadows the module name (same dance as
   test_fuzz.ml). *)
let gen_program = Gen.gen_concurrent_program

let to_alcotest = Gen.to_alcotest
open QCheck2
open Coop_util
open Coop_trace
open Coop_lang
open Coop_runtime
open Coop_core
open Coop_workloads

(* Module-level pools, shared across test cases; alcotest runs cases
   sequentially so there is no cross-test interference. Size 4 appears
   twice so every determinism check also compares two runs at the same
   size — which domain takes which task differs every run, and the
   answers must not be. *)
let pool2 = Pool.create ~jobs:2 ()
let pool4 = Pool.create ~jobs:4 ()
let pools =
  [ (1, Pool.create ~jobs:1 ()); (2, pool2); (4, pool4); (4, pool4) ]

let micro_programs =
  [ ("racy_counter 2x2", Micro.racy_counter ~threads:2 ~incs:2);
    ("check_then_act 2", Micro.check_then_act ~threads:2);
    ("check_then_act 3", Micro.check_then_act ~threads:3);
    ("single_transaction 3", Micro.single_transaction ~threads:3);
    ("producer_consumer 2", Micro.producer_consumer ~items:2) ]
  |> List.map (fun (name, src) -> (name, Compile.source src))

let loc_set = Alcotest.testable (Fmt.of_to_string (fun s ->
    String.concat ","
      (List.map (Format.asprintf "%a" Loc.pp) (Loc.Set.elements s))))
    Loc.Set.equal

(* --- Infer: bit-identical across pool sizes ------------------------- *)

let test_infer_deterministic () =
  List.iter
    (fun (name, prog) ->
      (* Spin-wait micros produce very long runs under unfair random
         schedules; the step cap keeps the portfolio cheap and determinism
         holds regardless (truncation is itself deterministic). *)
      let reference =
        Infer.infer ~pool:(List.assoc 1 pools) ~max_steps:300_000 prog
      in
      List.iter
        (fun (jobs, pool) ->
          let r = Infer.infer ~pool ~max_steps:300_000 prog in
          Alcotest.check loc_set
            (Printf.sprintf "%s: yields identical at jobs=%d" name jobs)
            reference.Infer.yields r.Infer.yields;
          Alcotest.(check int)
            (Printf.sprintf "%s: rounds identical at jobs=%d" name jobs)
            reference.Infer.rounds r.Infer.rounds;
          Alcotest.(check int)
            (Printf.sprintf "%s: initial violations identical at jobs=%d" name
               jobs)
            reference.Infer.initial_violations r.Infer.initial_violations;
          Alcotest.(check int)
            (Printf.sprintf "%s: clean final check at jobs=%d" name jobs)
            0 r.Infer.final_check_violations)
        pools)
    micro_programs

(* [max 2 jobs] copies of [f ()], run at once as tasks of [pool], so
   the workers hold several runs of the same search side by side. *)
let concurrently jobs pool f =
  Pool.parallel_map pool f (List.init (max 2 jobs) (fun _ -> ()))

let explore_same (a : Explore.result) (b : Explore.result) =
  a.Explore.complete = b.Explore.complete
  && a.Explore.states = b.Explore.states
  && a.Explore.novel_steps = b.Explore.novel_steps
  && a.Explore.deadlocks = b.Explore.deadlocks
  && Behavior.Set.equal a.Explore.behaviors b.Explore.behaviors

let dpor_same (a : Dpor.result) (b : Dpor.result) =
  a.Dpor.complete = b.Dpor.complete
  && a.Dpor.executions = b.Dpor.executions
  && a.Dpor.novel_steps = b.Dpor.novel_steps
  && Behavior.Set.equal a.Dpor.behaviors b.Dpor.behaviors

(* --- Explore: the same result on any domain -------------------------- *)

let explore_agrees name prog =
  List.iter
    (fun mode ->
      let seq = Explore.run mode prog in
      Alcotest.(check bool)
        (Printf.sprintf "%s: main-domain exploration complete" name)
        true seq.Explore.complete;
      List.iter
        (fun (jobs, pool) ->
          List.iteri
            (fun i r ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: task %d at jobs=%d = main domain" name i
                   jobs)
                true (explore_same seq r))
            (concurrently jobs pool (fun () -> Explore.run mode prog)))
        pools)
    [ Explore.Preemptive; Explore.Cooperative ]

let test_explore_in_tasks () =
  List.iter (fun (name, prog) -> explore_agrees name prog) micro_programs

(* One memoized search meets each deadlocked terminal state once, on
   whichever domain it runs. *)
let test_explore_deadlock_in_tasks () =
  let prog = Compile.source (Micro.deadlock_prone ()) in
  List.iter
    (fun (jobs, pool) ->
      List.iter
        (fun (r : Explore.result) ->
          Alcotest.(check int)
            (Printf.sprintf "one deadlocked state at jobs=%d" jobs)
            1 r.Explore.deadlocks)
        (concurrently jobs pool (fun () ->
             Explore.run Explore.Preemptive prog)))
    pools;
  explore_agrees "deadlock_prone" prog

(* --- DPOR: the same result on any domain ----------------------------- *)

(* DPOR is stateless: it only terminates on programs all of whose
   executions terminate, so spin-wait micros (producer_consumer) are out,
   and check_then_act stays at 2 threads to keep the execution count
   small. *)
let dpor_programs =
  [ ("racy_counter 2x2", Micro.racy_counter ~threads:2 ~incs:2);
    ("check_then_act 2", Micro.check_then_act ~threads:2);
    ("single_transaction 2", Micro.single_transaction ~threads:2);
    ("single_transaction 3", Micro.single_transaction ~threads:3) ]
  |> List.map (fun (name, src) -> (name, Compile.source src))

let test_dpor_in_tasks () =
  List.iter
    (fun (name, prog) ->
      let seq = Dpor.run prog in
      Alcotest.(check bool)
        (Printf.sprintf "%s: main-domain dpor complete" name)
        true seq.Dpor.complete;
      List.iter
        (fun (jobs, pool) ->
          List.iteri
            (fun i r ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: dpor task %d at jobs=%d = main domain"
                   name i jobs)
                true (dpor_same seq r))
            (concurrently jobs pool (fun () -> Dpor.run prog)))
        pools)
    dpor_programs

(* --- Equivalence: the verdict is pool-independent -------------------- *)

let test_equivalence_deterministic () =
  List.iter
    (fun (name, prog) ->
      let inf =
        Infer.infer ~pool:(List.assoc 1 pools) ~max_steps:300_000 prog
      in
      let seq = Equivalence.compare ~yields:inf.Infer.yields prog in
      List.iter
        (fun (jobs, pool) ->
          let par = Equivalence.compare ~pool ~yields:inf.Infer.yields prog in
          let ctx what = Printf.sprintf "%s: %s at jobs=%d" name what jobs in
          Alcotest.(check bool) (ctx "equal verdict")
            seq.Equivalence.equal par.Equivalence.equal;
          Alcotest.(check bool) (ctx "subset verdict")
            seq.Equivalence.preemptive_subset par.Equivalence.preemptive_subset;
          List.iter
            (fun (mode, (s : Explore.result), (r : Explore.result)) ->
              let ctx what = ctx (mode ^ " " ^ what) in
              Alcotest.(check bool) (ctx "complete") s.Explore.complete
                r.Explore.complete;
              Alcotest.(check int) (ctx "states") s.Explore.states
                r.Explore.states;
              Alcotest.(check int) (ctx "novel steps") s.Explore.novel_steps
                r.Explore.novel_steps;
              Alcotest.(check int) (ctx "deadlocks") s.Explore.deadlocks
                r.Explore.deadlocks;
              Alcotest.(check bool) (ctx "behaviours") true
                (Behavior.Set.equal s.Explore.behaviors r.Explore.behaviors))
            [ ("preemptive", seq.Equivalence.preemptive,
               par.Equivalence.preemptive);
              ("cooperative", seq.Equivalence.cooperative,
               par.Equivalence.cooperative) ])
        pools)
    micro_programs

(* --- The same properties on random programs -------------------------- *)

let prop name count f =
  to_alcotest (Test.make ~name ~count ~print:Pretty.program gen_program f)

let infer_parallel_matches =
  prop "qcheck: parallel inference = sequential inference" 20 (fun p ->
      let prog = Compile.program p in
      let reference =
        Infer.infer ~pool:(List.assoc 1 pools) ~max_steps:300_000 prog
      in
      List.for_all
        (fun (_, pool) ->
          let r = Infer.infer ~pool ~max_steps:300_000 prog in
          Loc.Set.equal reference.Infer.yields r.Infer.yields
          && reference.Infer.rounds = r.Infer.rounds)
        pools)

let explore_tasks_match =
  prop "qcheck: exploration in pool tasks = exploration on the main domain" 8
    (fun p ->
      let prog = Compile.program p in
      (* Generated programs always terminate, but cap the space anyway. *)
      let run () = Explore.run ~max_states:40_000 Explore.Preemptive prog in
      List.for_all (explore_same (run ())) (concurrently 4 pool4 run))

let dpor_tasks_match =
  prop "qcheck: dpor in pool tasks = dpor on the main domain" 8 (fun p ->
      let prog = Compile.program p in
      let run () = Dpor.run ~max_executions:40_000 prog in
      List.for_all (dpor_same (run ())) (concurrently 4 pool4 run))

let suite =
  [
    Alcotest.test_case "infer deterministic across pool sizes" `Quick
      test_infer_deterministic;
    Alcotest.test_case "explore identical in concurrent pool tasks" `Quick
      test_explore_in_tasks;
    Alcotest.test_case "explore counts a deadlock once in every task" `Quick
      test_explore_deadlock_in_tasks;
    Alcotest.test_case "dpor identical in concurrent pool tasks" `Quick
      test_dpor_in_tasks;
    Alcotest.test_case "equivalence verdict pool-independent" `Quick
      test_equivalence_deterministic;
    infer_parallel_matches;
    explore_tasks_match;
    dpor_tasks_match;
  ]
