open Coop_runtime
open Coop_lang
open Coop_workloads

let behaviors mode src =
  let prog = Compile.source src in
  Explore.run ~max_states:100_000 mode prog

let test_racy_counter_preemptive () =
  (* 2 threads x 2 unsynchronized increments: final x in {2, 3, 4}. *)
  let r = behaviors Explore.Preemptive (Micro.racy_counter ~threads:2 ~incs:2) in
  Alcotest.(check bool) "complete" true r.Explore.complete;
  Alcotest.(check int) "three behaviours" 3 (Behavior.Set.cardinal r.Explore.behaviors)

let test_racy_counter_cooperative () =
  (* Cooperatively (no yields), each worker runs to completion: x = 4. *)
  let r = behaviors Explore.Cooperative (Micro.racy_counter ~threads:2 ~incs:2) in
  Alcotest.(check bool) "complete" true r.Explore.complete;
  Alcotest.(check int) "single behaviour" 1 (Behavior.Set.cardinal r.Explore.behaviors)

let test_locked_counter_deterministic () =
  let r = behaviors Explore.Preemptive (Micro.locked_counter ~threads:2 ~incs:2 ~yield_at_loop:false) in
  Alcotest.(check int) "locks make it deterministic" 1
    (Behavior.Set.cardinal r.Explore.behaviors)

let test_deadlock_found () =
  let r = behaviors Explore.Preemptive (Micro.deadlock_prone ()) in
  (* One memoized search meets each deadlocked terminal state once. *)
  Alcotest.(check int) "one deadlocked state" 1 r.Explore.deadlocks;
  Alcotest.(check int) "both behaviours" 2 (Behavior.Set.cardinal r.Explore.behaviors)

let test_deadlock_invisible_cooperatively () =
  let r = behaviors Explore.Cooperative (Micro.deadlock_prone ()) in
  Alcotest.(check int) "no deadlock without preemption" 0 r.Explore.deadlocks

let test_single_thread_one_behavior () =
  let r = behaviors Explore.Preemptive "fn main() { var i = 0; while (i < 10) { i = i + 1; } print(i); }" in
  Alcotest.(check int) "one behaviour" 1 (Behavior.Set.cardinal r.Explore.behaviors);
  Alcotest.(check bool) "tiny state space" true (r.Explore.states < 50)

let test_budget_marks_incomplete () =
  let r =
    Explore.run ~max_states:5 Explore.Preemptive
      (Compile.source (Micro.racy_counter ~threads:2 ~incs:2))
  in
  Alcotest.(check bool) "incomplete under tiny budget" false r.Explore.complete

let test_infinite_local_loop_incomplete () =
  let r =
    Explore.run ~max_states:100 ~max_segment:500 Explore.Preemptive
      (Compile.source "var x = 0; fn main() { while (1) { x = 0 * x; } }")
  in
  (* The loop body touches a global, so it is visible and the state space is
     finite (x stays 0); but a purely local loop must hit the segment cap. *)
  ignore r;
  let r2 =
    Explore.run ~max_states:100 ~max_segment:500 Explore.Preemptive
      (Compile.source "fn main() { var i = 0; while (1) { i = 1 - i; } }")
  in
  Alcotest.(check bool) "local infinite loop times out" false r2.Explore.complete

let test_yields_restore_equivalence () =
  (* The locked counter without yields: cooperative exploration must still
     find the same single behaviour as preemptive (it is deterministic). *)
  let src = Micro.locked_counter ~threads:2 ~incs:2 ~yield_at_loop:true in
  let pre = behaviors Explore.Preemptive src in
  let coop = behaviors Explore.Cooperative src in
  Alcotest.(check bool) "equal sets" true (Explore.behaviors_equal pre coop)

let test_cooperative_cheaper () =
  let src = Micro.racy_counter ~threads:2 ~incs:2 in
  let pre = behaviors Explore.Preemptive src in
  let coop = behaviors Explore.Cooperative src in
  Alcotest.(check bool) "cooperative explores far fewer states" true
    (coop.Explore.states * 4 < pre.Explore.states)

let test_granularity_equivalence () =
  (* The visible-only reduction must preserve behaviour sets exactly. *)
  List.iter
    (fun src ->
      let prog = Compile.source src in
      let fine =
        Explore.run ~max_states:400_000 ~granularity:Explore.Every_instruction
          Explore.Preemptive prog
      in
      let coarse =
        Explore.run ~max_states:400_000 ~granularity:Explore.Visible_only
          Explore.Preemptive prog
      in
      Alcotest.(check bool) "both complete" true
        (fine.Explore.complete && coarse.Explore.complete);
      Alcotest.(check bool) "same behaviours" true
        (Behavior.Set.equal fine.Explore.behaviors coarse.Explore.behaviors);
      Alcotest.(check bool) "reduction saves states" true
        (coarse.Explore.states <= fine.Explore.states))
    [ Micro.racy_counter ~threads:2 ~incs:1;
      Micro.check_then_act ~threads:2;
      Micro.single_transaction ~threads:2 ]

let test_dpor_matches_dfs () =
  (* DPOR and the stateful DFS must produce identical behaviour sets on
     programs whose executions all terminate. *)
  List.iter
    (fun (name, src) ->
      let prog = Compile.source src in
      let dfs = Explore.run ~max_states:400_000 Explore.Preemptive prog in
      let dpor = Dpor.run ~max_executions:200_000 prog in
      Alcotest.(check bool) (name ^ ": both complete") true
        (dfs.Explore.complete && dpor.Dpor.complete);
      Alcotest.(check bool) (name ^ ": same behaviours") true
        (Behavior.Set.equal dfs.Explore.behaviors dpor.Dpor.behaviors))
    [ ("racy_counter", Micro.racy_counter ~threads:2 ~incs:2);
      ("racy_counter3", Micro.racy_counter ~threads:3 ~incs:1);
      ("locked_counter", Micro.locked_counter ~threads:2 ~incs:2 ~yield_at_loop:false);
      ("check_then_act", Micro.check_then_act ~threads:2);
      ("single_transaction", Micro.single_transaction ~threads:2);
      ("deadlock_prone", Micro.deadlock_prone ()) ]

let test_dpor_finds_deadlock () =
  let r = Dpor.run (Compile.source (Micro.deadlock_prone ())) in
  Alcotest.(check bool) "deadlock behaviour found" true
    (Behavior.Set.exists (fun b -> b.Behavior.deadlocked) r.Dpor.behaviors)

let test_dpor_reduces_executions () =
  (* Independent-heavy program: far fewer executions than per-instruction
     interleavings. single_transaction's workers only conflict at the one
     lock region: 3 threads finish in a few thousand executions where the
     naive per-instruction DFS visits >100k states. *)
  let prog = Compile.source (Micro.single_transaction ~threads:3) in
  let r = Dpor.run prog in
  Alcotest.(check bool) "complete" true r.Dpor.complete;
  Alcotest.(check bool) "few executions" true (r.Dpor.executions < 10_000);
  let fine =
    Explore.run ~max_states:500_000 ~granularity:Explore.Every_instruction
      Explore.Preemptive prog
  in
  Alcotest.(check bool) "beats naive state count" true
    (r.Dpor.executions * 10 < fine.Explore.states)

let test_dpor_budget () =
  let r = Dpor.run ~max_executions:2 (Compile.source (Micro.racy_counter ~threads:2 ~incs:2)) in
  Alcotest.(check bool) "budget marks incomplete" false r.Dpor.complete

let test_dpor_spin_loops_incomplete () =
  (* Spin loops have unfair infinite executions: DPOR reports incomplete
     rather than diverging. *)
  let r =
    Dpor.run ~max_executions:50 ~max_depth:200
      (Compile.source (Micro.producer_consumer ~items:1))
  in
  Alcotest.(check bool) "incomplete" false r.Dpor.complete

let suite =
  [
    Alcotest.test_case "granularity equivalence" `Slow test_granularity_equivalence;
    Alcotest.test_case "dpor matches dfs" `Slow test_dpor_matches_dfs;
    Alcotest.test_case "dpor finds deadlock" `Quick test_dpor_finds_deadlock;
    Alcotest.test_case "dpor reduces executions" `Quick test_dpor_reduces_executions;
    Alcotest.test_case "dpor budget" `Quick test_dpor_budget;
    Alcotest.test_case "dpor spin loops incomplete" `Quick test_dpor_spin_loops_incomplete;
    Alcotest.test_case "racy counter preemptive" `Quick test_racy_counter_preemptive;
    Alcotest.test_case "racy counter cooperative" `Quick test_racy_counter_cooperative;
    Alcotest.test_case "locked counter deterministic" `Quick test_locked_counter_deterministic;
    Alcotest.test_case "deadlock found preemptively" `Quick test_deadlock_found;
    Alcotest.test_case "deadlock invisible cooperatively" `Quick test_deadlock_invisible_cooperatively;
    Alcotest.test_case "single thread" `Quick test_single_thread_one_behavior;
    Alcotest.test_case "budget marks incomplete" `Quick test_budget_marks_incomplete;
    Alcotest.test_case "segment cap" `Quick test_infinite_local_loop_incomplete;
    Alcotest.test_case "yields restore equivalence" `Quick test_yields_restore_equivalence;
    Alcotest.test_case "cooperative exploration is cheaper" `Quick test_cooperative_cheaper;
  ]
