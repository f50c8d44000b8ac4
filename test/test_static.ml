open Coop_lang
open Coop_static
open Coop_workloads

let compile = Compile.source

(* --- Absval ------------------------------------------------------------- *)

let test_absval_join () =
  Alcotest.(check bool) "const join same" true
    (Absval.equal (Absval.join (Absval.Const 3) (Absval.Const 3)) (Absval.Const 3));
  Alcotest.(check bool) "const join diff" true
    (Absval.equal (Absval.join (Absval.Const 3) (Absval.Const 4)) Absval.Top);
  Alcotest.(check bool) "top absorbs" true
    (Absval.equal (Absval.join Absval.Top (Absval.Const 1)) Absval.Top)

let test_absval_binop () =
  Alcotest.(check bool) "const folding" true
    (Absval.equal (Absval.binop Ast.Add (Absval.Const 2) (Absval.Const 3)) (Absval.Const 5));
  Alcotest.(check bool) "base plus unknown" true
    (Absval.equal (Absval.binop Ast.Add (Absval.Const 7) Absval.Top) (Absval.Base_plus 7));
  Alcotest.(check bool) "division by zero is top" true
    (Absval.equal (Absval.binop Ast.Div (Absval.Const 1) (Absval.Const 0)) Absval.Top);
  Alcotest.(check bool) "mul tops out" true
    (Absval.equal (Absval.binop Ast.Mul Absval.Top (Absval.Const 2)) Absval.Top)

let test_lock_groups () =
  let prog = compile "lock a; lock bs[3]; lock c; fn main() { sync (a) { } sync (bs[1]) { } sync (c) { } }" in
  (* handles: a=0, bs=1..3, c=4; groups by first handle of same prefix *)
  Alcotest.(check bool) "scalar group" true
    (Absval.lock_of_handle prog (Absval.Const 0) = Absval.Group 0);
  Alcotest.(check bool) "array member group" true
    (Absval.lock_of_handle prog (Absval.Const 2) = Absval.Group 1);
  Alcotest.(check bool) "array base group" true
    (Absval.lock_of_handle prog (Absval.Base_plus 1) = Absval.Group 1);
  Alcotest.(check bool) "last scalar" true
    (Absval.lock_of_handle prog (Absval.Const 4) = Absval.Group 4);
  Alcotest.(check bool) "top" true
    (Absval.lock_of_handle prog Absval.Top = Absval.Any_lock)

(* --- Flow ---------------------------------------------------------------- *)

let flow_facts src fname =
  let prog = compile src in
  let rec fidx i =
    if prog.Bytecode.funcs.(i).Bytecode.name = fname then i else fidx (i + 1)
  in
  let f = fidx 0 in
  (prog, f, Flow.analyze prog f)

let test_flow_held_in_sync () =
  let prog, f, infos =
    flow_facts "var x = 0; lock m; fn main() { sync (m) { x = 1; } x = 2; }" "main"
  in
  (* Find the two Store_global pcs; the first must be under the lock. *)
  let stores = ref [] in
  Array.iteri
    (fun pc i -> if i = Bytecode.Store_global 0 then stores := pc :: !stores)
    prog.Bytecode.funcs.(f).Bytecode.code;
  match List.rev !stores with
  | [ inside; outside ] ->
      Alcotest.(check bool) "held inside" false
        (Flow.Iset.is_empty infos.(inside).Flow.held);
      Alcotest.(check bool) "free outside" true
        (Flow.Iset.is_empty infos.(outside).Flow.held)
  | _ -> Alcotest.fail "expected two stores"

let test_flow_lock_through_temp () =
  (* The sync temp-local pattern must not lose the handle. *)
  let prog, f, infos =
    flow_facts "var x = 0; lock ms[4]; fn main() { var i = 2; sync (ms[i]) { x = 1; } }" "main"
  in
  let acq = ref (-1) in
  Array.iteri
    (fun pc i -> if i = Bytecode.Acquire then acq := pc)
    prog.Bytecode.funcs.(f).Bytecode.code;
  match Flow.lock_at prog infos !acq with
  | Some (Absval.Group _) -> ()
  | other ->
      Alcotest.fail
        (Format.asprintf "expected a lock group, got %s"
           (match other with
           | Some Absval.Any_lock -> "Any_lock"
           | None -> "None"
           | _ -> "?"))

let test_flow_spawned_before () =
  let prog, f, infos =
    flow_facts "var x = 0; fn w() { } fn main() { x = 1; spawn w(); x = 2; }" "main"
  in
  let stores = ref [] in
  Array.iteri
    (fun pc i -> if i = Bytecode.Store_global 0 then stores := pc :: !stores)
    prog.Bytecode.funcs.(f).Bytecode.code;
  match List.rev !stores with
  | [ before; after ] ->
      Alcotest.(check bool) "pre-fork" false infos.(before).Flow.spawned_before;
      Alcotest.(check bool) "post-fork" true infos.(after).Flow.spawned_before
  | _ -> Alcotest.fail "expected two stores"

let test_flow_unreachable () =
  let prog, f, infos =
    flow_facts "fn main() { return; print(1); }" "main"
  in
  (* The print after return is dead. *)
  let print_pc = ref (-1) in
  Array.iteri
    (fun pc i -> if i = Bytecode.Print then print_pc := pc)
    prog.Bytecode.funcs.(f).Bytecode.code;
  Alcotest.(check bool) "dead code" false infos.(!print_pc).Flow.reachable

(* --- Races --------------------------------------------------------------- *)

let races_of_prog prog =
  let cache = Hashtbl.create 8 in
  let flow_of f =
    match Hashtbl.find_opt cache f with
    | Some i -> i
    | None ->
        let i = Flow.analyze prog f in
        Hashtbl.add cache f i;
        i
  in
  Races.analyze prog flow_of

let races_of src =
  let prog = compile src in
  (prog, races_of_prog prog)

let test_sequential_program_race_free () =
  let _, r = races_of "var x = 0; fn main() { x = 1; print(x); }" in
  Alcotest.(check int) "no races" 0 (List.length r.Races.racy)

let test_unprotected_counter_racy () =
  let _, r = races_of (Micro.racy_counter ~threads:2 ~incs:2) in
  Alcotest.(check bool) "x is racy" true
    (Races.is_racy_region r (Coop_trace.Event.Global 0))

let test_locked_counter_counter_protected () =
  let _, r = races_of (Micro.locked_counter ~threads:2 ~incs:2 ~yield_at_loop:false) in
  (* x is guarded everywhere except main's post-join print, which the
     while-loop join structure hides from the quiescence heuristic — so x
     stays statically racy. This imprecision is exactly why the paper uses
     a dynamic analysis; the ablation quantifies it. But a straight-line
     spawn/join main is recognized: *)
  ignore r;
  let _, r2 =
    races_of
      "var x = 0; lock m; fn w() { sync (m) { x = x + 1; } } fn main() { var t = spawn w(); join t; print(x); }"
  in
  Alcotest.(check int) "straight-line join quiescence" 0
    (List.length r2.Races.racy)

let test_pre_fork_init_not_racy () =
  let _, r =
    races_of
      "array a[4]; fn w(n) { print(a[n]); } fn main() { var i = 0; while (i < 4) { a[i] = i; i = i + 1; } spawn w(0); spawn w(1); }"
  in
  (* Writes are pre-fork, reads are read-only among workers. *)
  Alcotest.(check int) "init then read-only" 0 (List.length r.Races.racy)

let test_shared_lock_groups () =
  let _, r = races_of (Micro.locked_counter ~threads:2 ~incs:2 ~yield_at_loop:false) in
  Alcotest.(check bool) "m is shared" true (r.Races.shared_groups <> [])

let test_thread_local_lock_group () =
  let _, r =
    races_of
      "var x = 0; lock m; fn w() { x = 0 + 0; } fn main() { sync (m) { x = 1; } spawn w(); }"
  in
  (* Only main acquires m. *)
  Alcotest.(check int) "m not shared" 0 (List.length r.Races.shared_groups)

(* Two workers lock different elements of one lock array: [ls[id % 2]]
   is known only up to its group, so neither element is must-held and the
   accesses to g2 stay unprotected — the race every schedule shows. *)
let lock_array_src =
  "var g2 = 0; array tids[4]; lock ls[2]; fn worker(id) { sync (ls[id % 2]) { \
   g2 = g2; } } fn main() { var i = 0; while (i < 2) { tids[i] = spawn \
   worker(i); i = i + 1; } i = 0; while (i < 2) { join tids[i]; i = i + 1; } }"

let test_lock_array_elements_unprotected () =
  let prog, r = races_of lock_array_src in
  let g2 = Coop_trace.Event.Global 0 in
  let _, trace =
    Coop_runtime.Runner.record ~sched:(Coop_runtime.Sched.random ~seed:1 ())
      prog
  in
  Alcotest.(check bool) "dynamically racy" true
    (Coop_trace.Event.Var_set.mem g2
       (Coop_race.Fasttrack.racy_vars_of_trace trace));
  Alcotest.(check bool) "g2 may-racy" true (Races.is_racy_region r g2);
  Alcotest.(check bool) "static violation" true (Check.check prog <> []);
  (* A constant element is an exact handle and still protects. *)
  let _, r =
    races_of
      "var g2 = 0; lock ls[2]; fn worker() { sync (ls[1]) { g2 = g2 + 1; } } \
       fn main() { var t = spawn worker(); var u = spawn worker(); join t; \
       join u; }"
  in
  Alcotest.(check int) "constant element protects" 0
    (List.length r.Races.racy)

(* The region-level soundness law: whatever a schedule shows, the static
   approximations contain. Every variable FastTrack reports racy lies in a
   may-racy region, and every lock handle two threads acquire lies in a
   shared group. *)
let region_sound p =
  let prog = Compile.program p in
  let r = races_of_prog prog in
  List.for_all
    (fun sched ->
      let _, trace = Coop_runtime.Runner.record ~max_steps:300_000 ~sched prog in
      let first_tid = Hashtbl.create 4 and shared = Hashtbl.create 4 in
      Coop_trace.Trace.iter
        (fun (e : Coop_trace.Event.t) ->
          match e.op with
          | Coop_trace.Event.Acquire h -> (
              match Hashtbl.find_opt first_tid h with
              | None -> Hashtbl.replace first_tid h e.tid
              | Some t -> if t <> e.tid then Hashtbl.replace shared h ())
          | _ -> ())
        trace;
      Coop_trace.Event.Var_set.for_all (Races.is_racy_region r)
        (Coop_race.Fasttrack.racy_vars_of_trace trace)
      && Hashtbl.fold
           (fun h () ok ->
             ok
             &&
             match Absval.lock_of_handle prog (Absval.Const h) with
             | Absval.Group g -> List.mem g r.Races.shared_groups
             | Absval.Any_lock -> false)
           shared true)
    Coop_runtime.Sched.
      [ random ~seed:3 (); round_robin ~quantum:1 (); random ~seed:77 () ]

let region_law speed count =
  Gen.to_alcotest ~speed_level:speed
    (QCheck2.Test.make
       ~name:(Printf.sprintf "region-level soundness (%d programs)" count)
       ~count ~print:Pretty.program Gen.gen_concurrent_program region_sound)

(* --- Check --------------------------------------------------------------- *)

let test_static_matches_dynamic_on_simple () =
  (* deadlock_prone: straight-line, both analyses agree: zero yields. *)
  let prog = compile (Micro.deadlock_prone ()) in
  let s = Check.infer prog in
  Alcotest.(check int) "no static yields" 0
    (Coop_trace.Loc.Set.cardinal s.Check.yields)

let test_static_over_approximates () =
  (* On every workload the static yield count is at least the dynamic
     one: static racy regions and path joins only add violations. *)
  List.iter
    (fun (e : Registry.entry) ->
      let prog = Registry.program_of e in
      let s = Check.infer prog in
      let d = Coop_core.Infer.infer prog in
      Alcotest.(check bool)
        (Printf.sprintf "%s: static >= dynamic" e.Registry.name)
        true
        (Coop_trace.Loc.Set.cardinal s.Check.yields
        >= Coop_trace.Loc.Set.cardinal d.Coop_core.Infer.yields))
    [ Option.get (Registry.find "montecarlo"); Option.get (Registry.find "philo");
      Option.get (Registry.find "bank") ]

let test_static_fixpoint_clean () =
  List.iter
    (fun (_, src) ->
      let prog = compile src in
      let s = Check.infer prog in
      let residual = Check.check ~yields:s.Check.yields prog in
      Alcotest.(check int) "clean at fixpoint" 0 (List.length residual))
    Micro.all

let test_static_flags_locked_counter_loop () =
  let prog = compile (Micro.locked_counter ~threads:2 ~incs:2 ~yield_at_loop:false) in
  let vs = Check.check prog in
  Alcotest.(check bool) "violations found" true (vs <> [])

let test_static_yield_annotation_respected () =
  let with_ = compile (Micro.locked_counter ~threads:2 ~incs:2 ~yield_at_loop:true) in
  let without = compile (Micro.locked_counter ~threads:2 ~incs:2 ~yield_at_loop:false) in
  Alcotest.(check bool) "yield reduces violations" true
    (List.length (Check.check with_) < List.length (Check.check without))

let suite =
  [
    Alcotest.test_case "absval join" `Quick test_absval_join;
    Alcotest.test_case "absval binop" `Quick test_absval_binop;
    Alcotest.test_case "lock group resolution" `Quick test_lock_groups;
    Alcotest.test_case "flow: held in sync" `Quick test_flow_held_in_sync;
    Alcotest.test_case "flow: lock through temp" `Quick test_flow_lock_through_temp;
    Alcotest.test_case "flow: spawned_before" `Quick test_flow_spawned_before;
    Alcotest.test_case "flow: unreachable code" `Quick test_flow_unreachable;
    Alcotest.test_case "races: sequential clean" `Quick test_sequential_program_race_free;
    Alcotest.test_case "races: unprotected counter" `Quick test_unprotected_counter_racy;
    Alcotest.test_case "races: join quiescence" `Quick test_locked_counter_counter_protected;
    Alcotest.test_case "races: pre-fork init" `Quick test_pre_fork_init_not_racy;
    Alcotest.test_case "races: shared lock groups" `Quick test_shared_lock_groups;
    Alcotest.test_case "races: thread-local lock group" `Quick test_thread_local_lock_group;
    Alcotest.test_case "races: lock-array elements unprotected" `Quick
      test_lock_array_elements_unprotected;
    region_law `Quick 40;
    region_law `Slow 200;
    Alcotest.test_case "check: agrees on simple program" `Quick test_static_matches_dynamic_on_simple;
    Alcotest.test_case "check: over-approximates dynamic" `Slow test_static_over_approximates;
    Alcotest.test_case "check: fixpoint clean" `Quick test_static_fixpoint_clean;
    Alcotest.test_case "check: flags locked counter" `Quick test_static_flags_locked_counter_loop;
    Alcotest.test_case "check: yields respected" `Quick test_static_yield_annotation_respected;
  ]
