open Coop_lang
open Coop_runtime
open Coop_core
open Coop_workloads
open Coop_atomicity

let trace_of ?(seed = 7) src =
  let prog = Compile.source src in
  let _, trace = Runner.record ~max_steps:500_000 ~sched:(Sched.random ~seed ()) prog in
  trace

let test_single_transaction_atomic () =
  let r = Gen.atomize (trace_of (Micro.single_transaction ~threads:3)) in
  Alcotest.(check int) "no warnings" 0 (List.length r.Atomizer.warnings)

let test_check_then_act_not_atomic () =
  let r = Gen.atomize (trace_of (Micro.check_then_act ~threads:2)) in
  Alcotest.(check bool) "warned" true (r.Atomizer.warnings <> []);
  Alcotest.(check bool) "grab flagged" true (r.Atomizer.flagged_functions <> [])

let test_atomicity_stricter_than_cooperability () =
  (* A loop of sync blocks with yields: cooperable, but the function is not
     atomic. This is the key asymmetry the paper measures. *)
  let trace = trace_of (Micro.locked_counter ~threads:2 ~incs:3 ~yield_at_loop:true) in
  let coop = Cooperability.check trace in
  let atom = Gen.atomize trace in
  Alcotest.(check bool) "cooperable" true (Cooperability.cooperable coop);
  Alcotest.(check bool) "not atomic" true (atom.Atomizer.warnings <> [])

let test_yield_not_a_boundary_for_atomicity () =
  (* The same program with and without yields gets the same atomicity
     verdict. *)
  let w1 = Gen.atomize (trace_of (Micro.locked_counter ~threads:2 ~incs:3 ~yield_at_loop:true)) in
  let w2 = Gen.atomize (trace_of (Micro.locked_counter ~threads:2 ~incs:3 ~yield_at_loop:false)) in
  Alcotest.(check bool) "both flagged" true
    (w1.Atomizer.warnings <> [] && w2.Atomizer.warnings <> [])

let test_activations_counted () =
  let r = Gen.atomize (trace_of (Micro.single_transaction ~threads:2)) in
  (* main + 2 workers = 3 function activations at least. *)
  Alcotest.(check bool) "at least three" true (r.Atomizer.activations >= 3)

let test_one_warning_per_activation () =
  let r = Gen.atomize (trace_of (Micro.locked_counter ~threads:2 ~incs:5 ~yield_at_loop:false)) in
  (* Each worker activation is flagged once, not once per iteration. *)
  Alcotest.(check bool) "warnings bounded by activations" true
    (List.length r.Atomizer.warnings <= r.Atomizer.activations)

let test_atomic_block_checked () =
  let src =
    "var x = 0; var y = 0; lock m; lock k;\n\
     fn worker() { atomic { sync (m) { x = x + 1; } sync (k) { y = y + 1; } } }\n\
     fn main() { var t1 = spawn worker(); var t2 = spawn worker(); join t1; join t2; }"
  in
  let r = Gen.atomize (trace_of src) in
  let block_warnings =
    List.filter
      (fun w -> match w.Atomizer.txn with Atomizer.Block _ -> true | _ -> false)
      r.Atomizer.warnings
  in
  Alcotest.(check bool) "atomic block flagged" true (block_warnings <> [])

(* --- Conflict-graph serializability ------------------------------------ *)

let test_serializable_trace () =
  let r = Conflict.check (trace_of (Micro.single_transaction ~threads:3)) in
  Alcotest.(check bool) "acyclic" false r.Conflict.cyclic;
  Alcotest.(check bool) "has transactions" true (r.Conflict.transactions > 0)

(* Hand-built classic non-serializable history: r1 r2 w1 w2 inside two
   concurrent activations of the same function. *)
let rw_cycle_trace () =
  let loc = Coop_trace.Loc.make ~func:0 ~pc:0 ~line:1 in
  let ev tid op = Coop_trace.Event.make ~tid ~op ~loc in
  let g0 = Coop_trace.Event.Global 0 in
  Coop_trace.Trace.of_list
    [ ev 1 (Coop_trace.Event.Enter 0); ev 2 (Coop_trace.Event.Enter 0);
      ev 1 (Coop_trace.Event.Read g0); ev 2 (Coop_trace.Event.Read g0);
      ev 1 (Coop_trace.Event.Write g0); ev 2 (Coop_trace.Event.Write g0);
      ev 1 (Coop_trace.Event.Exit 0); ev 2 (Coop_trace.Event.Exit 0) ]

let test_nonserializable_cycle () =
  let r = Conflict.check (rw_cycle_trace ()) in
  Alcotest.(check bool) "crafted cycle detected" true r.Conflict.cyclic;
  (* And the same shape arises from a real execution when the scheduler
     alternates threads instruction by instruction. *)
  let prog = Compile.source (Micro.racy_counter ~threads:2 ~incs:2) in
  let found = ref false in
  for seed = 0 to 60 do
    let _, trace =
      Runner.record ~max_steps:100_000 ~sched:(Sched.random ~seed ()) prog
    in
    if (Conflict.check trace).Conflict.cyclic then found := true
  done;
  Alcotest.(check bool) "cycle found under some schedule" true !found

let test_cycle_witness_nonempty () =
  let r = Conflict.check (rw_cycle_trace ()) in
  let w = r.Conflict.cycle_witness in
  Alcotest.(check bool) "witness nodes" true (List.length w >= 2);
  Alcotest.(check int) "witness has no duplicates"
    (List.length w)
    (List.length (List.sort_uniq Int.compare w))

let suite =
  [
    Alcotest.test_case "single transaction atomic" `Quick test_single_transaction_atomic;
    Alcotest.test_case "check-then-act not atomic" `Quick test_check_then_act_not_atomic;
    Alcotest.test_case "atomicity stricter than cooperability" `Quick
      test_atomicity_stricter_than_cooperability;
    Alcotest.test_case "yields ignored by atomicity" `Quick test_yield_not_a_boundary_for_atomicity;
    Alcotest.test_case "activations counted" `Quick test_activations_counted;
    Alcotest.test_case "one warning per activation" `Quick test_one_warning_per_activation;
    Alcotest.test_case "atomic blocks checked" `Quick test_atomic_block_checked;
    Alcotest.test_case "serializable trace" `Quick test_serializable_trace;
    Alcotest.test_case "non-serializable cycle" `Quick test_nonserializable_cycle;
    Alcotest.test_case "cycle witness" `Quick test_cycle_witness_nonempty;
  ]
