open Coop_lang
open Coop_runtime

(* Run a deterministic (single- or multi-threaded) program under the
   sequential scheduler and return its final state. *)
let run src =
  let prog = Compile.source src in
  let o =
    Runner.run ~max_steps:500_000 ~sched:Sched.sequential
      ~sink:Coop_trace.Trace.Sink.ignore prog
  in
  o.Runner.final

let output src = Vm.output (run src)

let check_out msg src expected = Alcotest.(check (list int)) msg expected (output src)

let test_arithmetic () =
  check_out "arith" "fn main() { print(2 + 3 * 4); print(10 / 3); print(10 % 3); }"
    [ 14; 3; 1 ];
  check_out "unary" "fn main() { print(-5); print(!0); print(!7); }" [ -5; 1; 0 ];
  check_out "comparisons"
    "fn main() { print(1 < 2); print(2 <= 1); print(3 == 3); print(3 != 3); }"
    [ 1; 0; 1; 0 ];
  check_out "logical" "fn main() { print(1 && 0); print(1 && 2); print(0 || 0); print(0 || 5); }"
    [ 0; 1; 0; 1 ]

let test_control_flow () =
  check_out "if else" "fn main() { if (1 < 2) { print(1); } else { print(2); } }" [ 1 ];
  check_out "while"
    "fn main() { var i = 0; var s = 0; while (i < 5) { s = s + i; i = i + 1; } print(s); }"
    [ 10 ]

let test_functions () =
  check_out "call with return" "fn sq(x) { return x * x; } fn main() { print(sq(7)); }" [ 49 ];
  check_out "implicit return zero" "fn f() { } fn main() { print(f()); }" [ 0 ];
  check_out "recursion"
    "fn fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); } fn main() { print(fib(10)); }"
    [ 55 ]

let test_globals_arrays () =
  check_out "global init" "var g = 42; fn main() { print(g); }" [ 42 ];
  check_out "array zero init" "array a[3]; fn main() { print(a[2]); }" [ 0 ];
  check_out "array store/load"
    "array a[4]; fn main() { a[1] = 9; a[2] = a[1] * 2; print(a[2]); }" [ 18 ]

let test_locals_shadow_globals () =
  check_out "shadowing" "var x = 1; fn main() { var x = 5; print(x); }" [ 5 ]

let test_faults () =
  let faults src = List.length (Vm.failures (run src)) in
  Alcotest.(check int) "div by zero" 1 (faults "fn main() { print(1 / 0); }");
  Alcotest.(check int) "mod by zero" 1 (faults "fn main() { print(1 % 0); }");
  Alcotest.(check int) "index oob" 1 (faults "array a[2]; fn main() { a[5] = 1; }");
  Alcotest.(check int) "negative index" 1 (faults "array a[2]; fn main() { a[0 - 1] = 1; }");
  Alcotest.(check int) "assert failure" 1 (faults "fn main() { assert(0); }");
  Alcotest.(check int) "release unheld" 1 (faults "lock m; fn main() { release(m); }");
  Alcotest.(check int) "assert pass" 0 (faults "fn main() { assert(1); }")

let test_fault_isolated () =
  (* A fault kills only the faulting thread. *)
  let st = run "fn bad() { assert(0); } fn main() { var t = spawn bad(); join t; print(7); }" in
  Alcotest.(check (list int)) "main continues" [ 7 ] (Vm.output st);
  Alcotest.(check int) "one fault" 1 (List.length (Vm.failures st))

let test_reentrant_locks () =
  check_out "reentrant sync"
    "var x = 0; lock m; fn main() { sync (m) { sync (m) { x = 1; } } print(x); }"
    [ 1 ]

let test_spawn_join_value () =
  check_out "spawn returns tid, join works"
    "var x = 0; fn w() { x = 5; } fn main() { var t = spawn w(); join t; print(x); }"
    [ 5 ]

let test_spawn_args () =
  check_out "spawn passes arguments"
    "var x = 0; fn w(a, b) { x = a * 10 + b; } fn main() { var t = spawn w(3, 4); join t; print(x); }"
    [ 34 ]

let test_yield_instr_noop_semantics () =
  check_out "yield does not change values"
    "fn main() { var i = 0; while (i < 3) { yield; i = i + 1; } print(i); }" [ 3 ]

let test_step_determinism () =
  (* Same scheduler, same program: identical behaviour and step counts. *)
  let prog = Compile.source (Coop_workloads.Micro.racy_counter ~threads:2 ~incs:3) in
  let o1 = Runner.run ~sched:(Sched.random ~seed:9 ()) ~sink:Coop_trace.Trace.Sink.ignore prog in
  let o2 = Runner.run ~sched:(Sched.random ~seed:9 ()) ~sink:Coop_trace.Trace.Sink.ignore prog in
  Alcotest.(check int) "same steps" o1.Runner.steps o2.Runner.steps;
  Alcotest.(check bool) "same behaviour" true
    (Behavior.equal (Runner.behavior_of o1) (Runner.behavior_of o2))

let test_key_distinguishes () =
  let prog = Compile.source "var x = 0; fn main() { x = 1; }" in
  let st = Vm.init prog in
  let k0 = Vm.key st in
  ignore (Vm.step ~yields:Coop_trace.Loc.Set.empty st 0 ~sink:Coop_trace.Trace.Sink.ignore);
  Alcotest.(check bool) "keys differ across steps" false (k0 = Vm.key st);
  Alcotest.(check string) "key deterministic" (Vm.key st) (Vm.key st)

let test_blocking_join_and_lock () =
  let prog =
    Compile.source
      "var x = 0; lock m; fn w() { sync (m) { x = x + 1; } } fn main() { var t = spawn w(); join t; print(x); }"
  in
  let o = Runner.run ~sched:(Sched.round_robin ~quantum:1 ()) ~sink:Coop_trace.Trace.Sink.ignore prog in
  Alcotest.(check bool) "completed" true (o.Runner.termination = Runner.Completed);
  Alcotest.(check (list int)) "output" [ 1 ] (Vm.output o.Runner.final)

let test_join_faulted_target () =
  (* Joining a faulted thread proceeds rather than deadlocking. *)
  let st = run "fn bad() { assert(0); } fn main() { var t = spawn bad(); join t; print(1); }" in
  Alcotest.(check (list int)) "join proceeds" [ 1 ] (Vm.output st)

let test_deep_recursion () =
  check_out "deep recursion"
    "fn down(n) { if (n == 0) { return 0; } return down(n - 1); } fn main() { print(down(2000)); }"
    [ 0 ]

let test_negative_values () =
  check_out "negative arithmetic and output"
    "fn main() { var x = 0 - 7; print(x); print(x / 2); print(x % 3); }"
    [ -7; -3; -1 ]

let test_many_threads () =
  let st =
    run
      "var x = 0; lock m; array t[20]; fn w() { sync (m) { x = x + 1; } }\n\
       fn main() { var i = 0; while (i < 20) { t[i] = spawn w(); i = i + 1; }\n\
       i = 0; while (i < 20) { join t[i]; i = i + 1; } print(x); }"
  in
  Alcotest.(check (list int)) "twenty threads" [ 20 ] (Vm.output st)

let test_spawn_tids_monotone () =
  let st = run "fn w() { } fn main() { var a = spawn w(); var b = spawn w(); join a; join b; print(b - a); }" in
  Alcotest.(check (list int)) "tids increase by one" [ 1 ] (Vm.output st)

let suite =
  [
    Alcotest.test_case "join faulted target" `Quick test_join_faulted_target;
    Alcotest.test_case "deep recursion" `Quick test_deep_recursion;
    Alcotest.test_case "negative values" `Quick test_negative_values;
    Alcotest.test_case "many threads" `Quick test_many_threads;
    Alcotest.test_case "spawn tids monotone" `Quick test_spawn_tids_monotone;
    Alcotest.test_case "arithmetic" `Quick test_arithmetic;
    Alcotest.test_case "control flow" `Quick test_control_flow;
    Alcotest.test_case "functions" `Quick test_functions;
    Alcotest.test_case "globals and arrays" `Quick test_globals_arrays;
    Alcotest.test_case "locals shadow globals" `Quick test_locals_shadow_globals;
    Alcotest.test_case "runtime faults" `Quick test_faults;
    Alcotest.test_case "faults are isolated" `Quick test_fault_isolated;
    Alcotest.test_case "reentrant locks" `Quick test_reentrant_locks;
    Alcotest.test_case "spawn/join" `Quick test_spawn_join_value;
    Alcotest.test_case "spawn arguments" `Quick test_spawn_args;
    Alcotest.test_case "yield semantics" `Quick test_yield_instr_noop_semantics;
    Alcotest.test_case "scheduler determinism" `Quick test_step_determinism;
    Alcotest.test_case "state keys" `Quick test_key_distinguishes;
    Alcotest.test_case "blocking join and lock" `Quick test_blocking_join_and_lock;
  ]
