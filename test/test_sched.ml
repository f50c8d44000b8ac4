open Coop_runtime
open Coop_lang

(* The buffer carries garbage past the runnable tids, as a run loop's
   reused buffer does: a scheduler must never read it. *)
let ctx ?(last = None) ?(last_yielded = false) runnable =
  { Sched.runnable = Array.of_list (runnable @ [ 1000; 1001 ]);
    n_runnable = List.length runnable;
    last = Option.value last ~default:(-1); last_yielded }

let test_sequential () =
  Alcotest.(check int) "lowest" 1 (Sched.sequential.Sched.pick (ctx [ 1; 2; 3 ]));
  Alcotest.(check int) "single" 7 (Sched.sequential.Sched.pick (ctx [ 7 ]))

let test_round_robin_quantum () =
  let s = Sched.round_robin ~quantum:2 () in
  let pick last runnable = s.Sched.pick (ctx ~last runnable) in
  Alcotest.(check int) "starts lowest" 0 (pick None [ 0; 1 ]);
  Alcotest.(check int) "stays within quantum" 0 (pick (Some 0) [ 0; 1 ]);
  Alcotest.(check int) "rotates after quantum" 1 (pick (Some 0) [ 0; 1 ]);
  Alcotest.(check int) "fresh quantum" 1 (pick (Some 1) [ 0; 1 ])

let test_round_robin_skips_blocked () =
  let s = Sched.round_robin ~quantum:10 () in
  let pick last runnable = s.Sched.pick (ctx ~last runnable) in
  ignore (pick None [ 0; 1; 2 ]);
  Alcotest.(check int) "skips to next when last not runnable" 2 (pick (Some 1) [ 0; 2 ]);
  Alcotest.(check int) "wraps" 0 (pick (Some 2) [ 0 ])

let test_round_robin_invalid () =
  Alcotest.check_raises "bad quantum"
    (Invalid_argument "Sched.round_robin: quantum must be positive") (fun () ->
      ignore (Sched.round_robin ~quantum:0 ()))

let test_random_deterministic () =
  let picks seed =
    let s = Sched.random ~seed () in
    List.init 50 (fun _ -> s.Sched.pick (ctx [ 0; 1; 2; 3 ]))
  in
  Alcotest.(check (list int)) "same seed same picks" (picks 5) (picks 5);
  Alcotest.(check bool) "different seeds differ" true (picks 5 <> picks 6)

let test_random_in_runnable () =
  let s = Sched.random ~seed:3 () in
  for _ = 1 to 100 do
    let t = s.Sched.pick (ctx [ 2; 5; 9 ]) in
    Alcotest.(check bool) "picked runnable" true (List.mem t [ 2; 5; 9 ])
  done

let test_cooperative_sticky () =
  let s = Sched.cooperative () in
  let pick ?(last_yielded = false) last runnable =
    s.Sched.pick (ctx ~last ~last_yielded runnable)
  in
  Alcotest.(check int) "starts lowest" 0 (pick None [ 0; 1 ]);
  Alcotest.(check int) "sticks to current" 0 (pick (Some 0) [ 0; 1 ]);
  Alcotest.(check int) "switches on yield" 1 (pick ~last_yielded:true (Some 0) [ 0; 1 ]);
  Alcotest.(check int) "switches when blocked" 1 (pick (Some 0) [ 1 ]);
  Alcotest.(check int) "wraps around" 0 (pick ~last_yielded:true (Some 1) [ 0; 1 ])

let test_pinned () =
  let s = Sched.pinned [ 2; 1; 1 ] in
  let pick runnable = s.Sched.pick (ctx runnable) in
  Alcotest.(check int) "first" 2 (pick [ 0; 1; 2 ]);
  Alcotest.(check int) "second" 1 (pick [ 0; 1; 2 ]);
  Alcotest.(check int) "third" 1 (pick [ 0; 1; 2 ]);
  Alcotest.(check int) "exhausted falls back" 0 (pick [ 0; 1; 2 ])

let test_record_replay () =
  (* Record a random schedule of a racy program, replay it with pinned, and
     check the behaviours coincide exactly. *)
  let prog =
    Compile.source (Coop_workloads.Micro.racy_counter ~threads:3 ~incs:2)
  in
  let decisions, sched = Sched.recorded (Sched.random ~seed:99 ()) in
  let o1 =
    Runner.run ~sched ~sink:Coop_trace.Trace.Sink.ignore prog
  in
  let o2 =
    Runner.run ~sched:(Sched.pinned (decisions ()))
      ~sink:Coop_trace.Trace.Sink.ignore prog
  in
  Alcotest.(check bool) "identical behaviour" true
    (Behavior.equal (Runner.behavior_of o1) (Runner.behavior_of o2));
  Alcotest.(check int) "identical step count" o1.Runner.steps o2.Runner.steps

let test_pinned_invalid_choice () =
  let s = Sched.pinned [ 9 ] in
  Alcotest.(check int) "invalid choice falls back" 0
    (s.Sched.pick (ctx [ 0; 1 ]))

let test_pct_deterministic () =
  let picks seed =
    let s = Sched.pct ~seed ~depth:3 ~change_span:100 () in
    List.init 80 (fun i -> s.Sched.pick (ctx ~last:(Some (i mod 3)) [ 0; 1; 2 ]))
  in
  Alcotest.(check (list int)) "same seed same schedule" (picks 4) (picks 4)

let test_pct_priority_based () =
  (* With no change points (depth 1), the same thread keeps running while
     runnable: strict priority scheduling. *)
  let s = Sched.pct ~seed:9 ~depth:1 ~change_span:100 () in
  let first = s.Sched.pick (ctx [ 0; 1; 2 ]) in
  for _ = 1 to 20 do
    Alcotest.(check int) "sticks to highest priority" first
      (s.Sched.pick (ctx ~last:(Some first) [ 0; 1; 2 ]))
  done

let test_pct_in_runnable () =
  let s = Sched.pct ~seed:5 ~depth:4 ~change_span:50 () in
  for i = 0 to 200 do
    let runnable = if i mod 2 = 0 then [ 0; 2 ] else [ 1; 2; 3 ] in
    let t = s.Sched.pick (ctx ~last:(Some (i mod 4)) runnable) in
    Alcotest.(check bool) "picked runnable" true (List.mem t runnable)
  done

let test_pct_demotes () =
  (* Across a long run with change points, the running thread must change at
     least once even though all threads stay runnable. *)
  let s = Sched.pct ~seed:3 ~depth:4 ~change_span:60 () in
  let seen = Hashtbl.create 4 in
  let last = ref None in
  for _ = 1 to 120 do
    let t = s.Sched.pick (ctx ~last:!last [ 0; 1; 2 ]) in
    Hashtbl.replace seen t ();
    last := Some t
  done;
  Alcotest.(check bool) "more than one thread ran" true (Hashtbl.length seen > 1)

let test_pct_invalid_depth () =
  Alcotest.check_raises "depth 0" (Invalid_argument "Sched.pct: depth must be >= 1")
    (fun () -> ignore (Sched.pct ~seed:1 ~depth:0 ~change_span:10 ()))

let suite =
  [
    Alcotest.test_case "pct determinism" `Quick test_pct_deterministic;
    Alcotest.test_case "pct strict priorities" `Quick test_pct_priority_based;
    Alcotest.test_case "pct stays in runnable" `Quick test_pct_in_runnable;
    Alcotest.test_case "pct demotes at change points" `Quick test_pct_demotes;
    Alcotest.test_case "pct invalid depth" `Quick test_pct_invalid_depth;
    Alcotest.test_case "sequential" `Quick test_sequential;
    Alcotest.test_case "round-robin quantum" `Quick test_round_robin_quantum;
    Alcotest.test_case "round-robin skips blocked" `Quick test_round_robin_skips_blocked;
    Alcotest.test_case "round-robin invalid quantum" `Quick test_round_robin_invalid;
    Alcotest.test_case "random determinism" `Quick test_random_deterministic;
    Alcotest.test_case "random stays in runnable" `Quick test_random_in_runnable;
    Alcotest.test_case "cooperative stickiness" `Quick test_cooperative_sticky;
    Alcotest.test_case "pinned replay" `Quick test_pinned;
    Alcotest.test_case "record and replay" `Quick test_record_replay;
    Alcotest.test_case "pinned invalid choice" `Quick test_pinned_invalid_choice;
  ]
