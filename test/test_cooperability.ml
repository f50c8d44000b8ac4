open Coop_lang
open Coop_runtime
open Coop_core
open Coop_workloads

let trace_of ?(seed = 7) ?(yields = Coop_trace.Loc.Set.empty) src =
  let prog = Compile.source src in
  let _, trace =
    Runner.record ~yields ~max_steps:500_000 ~sched:(Sched.random ~seed ()) prog
  in
  trace

let check_src ?seed ?yields src = Cooperability.check (trace_of ?seed ?yields src)

let test_single_transaction_clean () =
  let r = check_src (Micro.single_transaction ~threads:3) in
  Alcotest.(check bool) "cooperable" true (Cooperability.cooperable r);
  Alcotest.(check int) "no races" 0 (List.length r.Cooperability.races)

let test_locked_counter_needs_yield () =
  let r = check_src (Micro.locked_counter ~threads:2 ~incs:3 ~yield_at_loop:false) in
  Alcotest.(check bool) "violations found" true (r.Cooperability.violations <> []);
  Alcotest.(check int) "race-free" 0 (List.length r.Cooperability.races);
  (* All violations blame the same program location: the loop-head acquire. *)
  Alcotest.(check int) "one location" 1
    (Coop_trace.Loc.Set.cardinal
       (Cooperability.violation_locs r.Cooperability.violations))

let test_locked_counter_with_yield_clean () =
  let r = check_src (Micro.locked_counter ~threads:2 ~incs:3 ~yield_at_loop:true) in
  Alcotest.(check bool) "cooperable with yields" true (Cooperability.cooperable r)

let test_check_then_act_flagged () =
  let r = check_src (Micro.check_then_act ~threads:2) in
  Alcotest.(check bool) "violations found" true (r.Cooperability.violations <> [])

let test_racy_counter_races () =
  let r = check_src (Micro.racy_counter ~threads:2 ~incs:3) in
  Alcotest.(check bool) "races reported" true (r.Cooperability.races <> []);
  Alcotest.(check int) "one racy var" 1
    (Coop_trace.Event.Var_set.cardinal r.Cooperability.racy)

let test_online_matches_offline () =
  let src = Micro.locked_counter ~threads:2 ~incs:3 ~yield_at_loop:false in
  let prog = Compile.source src in
  let a = Cooperability.online_analysis () in
  let _ =
    Runner.run ~max_steps:500_000 ~sched:(Sched.random ~seed:7 ())
      ~sink:(Coop_trace.Analysis.sink a) prog
  in
  let online = Coop_trace.Analysis.finalize a in
  let offline = check_src ~seed:7 src in
  Alcotest.(check int) "same violation count"
    (List.length offline.Cooperability.violations)
    (List.length online.Cooperability.violations);
  Alcotest.(check int) "same race count"
    (List.length offline.Cooperability.races)
    (List.length online.Cooperability.races)

let test_injected_yields_silence_violations () =
  let src = Micro.locked_counter ~threads:2 ~incs:3 ~yield_at_loop:false in
  let r0 = check_src ~seed:3 src in
  let yields = Cooperability.violation_locs r0.Cooperability.violations in
  let r1 = check_src ~seed:3 ~yields src in
  Alcotest.(check bool) "clean after injection" true (Cooperability.cooperable r1)

let test_sequential_always_cooperable_race_free () =
  (* A single-threaded program can never violate cooperability. *)
  let r = check_src "var x = 0; lock m; fn main() { sync (m) { x = 1; } sync (m) { x = 2; } print(x); }" in
  Alcotest.(check bool) "single thread cooperable" true (Cooperability.cooperable r)

let test_thread_local_locks_are_both_movers () =
  (* A lock only one thread ever touches imposes no transaction structure:
     repeated sync regions in a single thread are cooperable. *)
  let r =
    check_src
      "var x = 0; lock m; fn main() { sync (m) { x = 1; } sync (m) { x = 2; } print(x); }"
  in
  Alcotest.(check bool) "single-threaded locking cooperable" true
    (Cooperability.cooperable r)

let test_local_locks_predicate () =
  let trace =
    trace_of
      "var x = 0; lock a; lock b; fn w() { sync (b) { x = x + 1; } } fn main() { sync (a) { x = 1; } var t = spawn w(); sync (b) { x = x + 1; } join t; }"
  in
  let local = Cooperability.local_locks_of trace in
  Alcotest.(check bool) "a is local" true (local 0);
  Alcotest.(check bool) "b is shared" false (local 1);
  Alcotest.(check bool) "unknown lock is not local" false (local 99)

let test_empty_trace () =
  let r = Cooperability.check (Coop_trace.Trace.create ()) in
  Alcotest.(check bool) "empty trace cooperable" true (Cooperability.cooperable r);
  Alcotest.(check int) "no events" 0 r.Cooperability.events

let test_faulting_program_checked () =
  (* A worker that faults mid-transaction: the checker and inference must
     handle the truncated thread gracefully. *)
  let src =
    "var x = 0; lock m; fn bad() { sync (m) { x = 1; } assert(0); sync (m) { x = 2; } }\n\
     fn main() { var t1 = spawn bad(); var t2 = spawn bad(); join t1; join t2; print(x); }"
  in
  let r = check_src src in
  Alcotest.(check int) "race-free despite faults" 0 (List.length r.Cooperability.races);
  let inf = Coop_core.Infer.infer (Compile.source src) in
  Alcotest.(check int) "inference converges" 0 inf.Coop_core.Infer.final_check_violations

let test_violation_pp () =
  let r = check_src (Micro.locked_counter ~threads:2 ~incs:2 ~yield_at_loop:false) in
  match r.Cooperability.violations with
  | v :: _ ->
      let s = Format.asprintf "%a" Automaton.pp_violation v in
      Alcotest.(check bool) "mentions yield" true (String.length s > 20)
  | [] -> Alcotest.fail "expected a violation"

let suite =
  [
    Alcotest.test_case "empty trace" `Quick test_empty_trace;
    Alcotest.test_case "faulting programs" `Quick test_faulting_program_checked;
    Alcotest.test_case "violation rendering" `Quick test_violation_pp;
    Alcotest.test_case "thread-local locks are both-movers" `Quick
      test_thread_local_locks_are_both_movers;
    Alcotest.test_case "local-lock predicate" `Quick test_local_locks_predicate;
    Alcotest.test_case "single transaction clean" `Quick test_single_transaction_clean;
    Alcotest.test_case "locked counter needs yield" `Quick test_locked_counter_needs_yield;
    Alcotest.test_case "locked counter with yield clean" `Quick test_locked_counter_with_yield_clean;
    Alcotest.test_case "check-then-act flagged" `Quick test_check_then_act_flagged;
    Alcotest.test_case "racy counter races" `Quick test_racy_counter_races;
    Alcotest.test_case "online matches offline" `Quick test_online_matches_offline;
    Alcotest.test_case "injected yields silence violations" `Quick test_injected_yields_silence_violations;
    Alcotest.test_case "single thread cooperable" `Quick test_sequential_always_cooperable_race_free;
  ]
