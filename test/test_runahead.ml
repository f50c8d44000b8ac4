(* The run loop executes a thread's invisible instructions ahead of the
   scheduler draws that account for them (Vm.run_ahead), and keeps the
   runnable set cached between the steps that may change it
   (Vm.runnable_changed). It must be observationally the
   one-instruction-per-draw loop below: the same draws, the same context
   at every draw, events, step count, termination and final Vm.key, also
   when a step budget runs out in the middle of a run-ahead. *)

(* Bind before [open QCheck2] shadows the module name. *)
let gen_program = Gen.gen_concurrent_program

let to_alcotest = Gen.to_alcotest
open QCheck2
open Coop_trace
open Coop_lang
open Coop_runtime
open Coop_core

(* The reference: one [Vm.step] per scheduler draw, the runnable set
   recomputed before every draw. *)
let via_reference ~yields ~max_steps ~sched prog sink =
  let st = Vm.init prog in
  let rec go steps last last_yielded =
    if steps >= max_steps then (Runner.Step_limit, steps, st)
    else
      match Vm.runnable st with
      | [] ->
          let t = if Vm.all_quiescent st then Runner.Completed else Runner.Deadlock in
          (t, steps, st)
      | rs ->
          let tid =
            sched.Sched.pick
              { Sched.runnable = Array.of_list rs; n_runnable = List.length rs;
                last; last_yielded }
          in
          go (steps + 1) tid (Vm.step ~yields st tid ~sink)
  in
  go 0 (-1) false

(* [s], recording every context it is shown: the runnable prefix,
   [n_runnable], [last] and [last_yielded]. *)
let recording (s : Sched.t) =
  let seen = Buffer.create 4096 in
  let pick (c : Sched.context) =
    for i = 0 to c.n_runnable - 1 do
      Buffer.add_string seen (string_of_int c.runnable.(i));
      Buffer.add_char seen ','
    done;
    Buffer.add_string seen
      (Printf.sprintf "n%d l%d y%b;" c.n_runnable c.last c.last_yielded);
    s.pick c
  in
  ({ s with pick }, seen)

(* Everything a run shows: its events, steps, termination, final key
   and failures, and the contexts its scheduler saw. *)
let observe run sched =
  let sched, contexts = recording sched in
  let buf = Buffer.create 4096 in
  let sink e = Buffer.add_string buf (Format.asprintf "%a;" Event.pp e) in
  let termination, steps, final = run ~sched sink in
  ( (Buffer.contents buf,
     steps,
     Format.asprintf "%a" Runner.pp_termination termination,
     Vm.key final,
     Vm.failures final),
    Buffer.contents contexts )

let via_runner ~yields ~max_steps ~sched prog sink =
  let o = Runner.run ~yields ~max_steps ~sched ~sink prog in
  (o.Runner.termination, o.Runner.steps, o.Runner.final)

let scheds =
  [| (fun seed -> Sched.random ~seed ());
     (fun seed -> Sched.round_robin ~quantum:(1 + (seed mod 5)) ());
     (fun seed -> Sched.pct ~seed ~depth:3 ~change_span:500 ());
     (fun _ -> Sched.cooperative ()) |]

(* Every location of the program, for drawing yield sets. *)
let all_locs prog =
  Array.to_list prog.Bytecode.funcs
  |> List.mapi (fun func f ->
         List.init (Array.length f.Bytecode.code) (fun pc -> Bytecode.loc prog ~func ~pc))
  |> List.concat

let random_yields prog seed =
  let rng = Random.State.make [| seed |] in
  List.fold_left
    (fun acc l -> if Random.State.int rng 8 = 0 then Loc.Set.add l acc else acc)
    Loc.Set.empty (all_locs prog)

let same_run ~yields ~max_steps ~sched_of prog =
  let a, ca = observe (via_reference ~yields ~max_steps prog) (sched_of ()) in
  let b, cb = observe (via_runner ~yields ~max_steps prog) (sched_of ()) in
  let _, sa, ta, ka, _ = a and _, sb, tb, kb, _ = b in
  if a <> b || ca <> cb then
    Test.fail_reportf
      "reference %d steps %s key %s@.runner    %d steps %s key %s@.same contexts: %b"
      sa ta ka sb tb kb (ca = cb);
  true

let differential =
  to_alcotest
    (Test.make ~name:"qcheck: run-ahead loop = one instruction per draw" ~count:150
       ~print:(fun (p, (k, seed, ys, budget)) ->
         Printf.sprintf "sched=%d seed=%d yields=%b budget=%d\n%s" k seed ys budget
           (Pretty.program p))
       Gen.(
         pair gen_program
           (quad (int_range 0 3) (int_range 0 1000) bool
              (oneof [ int_range 1 400; int_range 400 3000; return 1_000_000 ])))
       (fun (p, (k, seed, ys, budget)) ->
         let prog = Compile.program p in
         let yields = if ys then random_yields prog seed else Loc.Set.empty in
         same_run ~yields ~max_steps:budget ~sched_of:(fun () -> scheds.(k) seed) prog))

(* Every budget from 1 to past the end: each one cuts the run at a
   different draw, inside run-aheads and between them. *)
let every_budget ?(yields = Loc.Set.empty) ~sched_of prog =
  let (_, total, _, _, _), _ =
    observe (via_reference ~yields ~max_steps:1_000_000 prog) (sched_of ())
  in
  for max_steps = 1 to total + 1 do
    ignore (same_run ~yields ~max_steps ~sched_of prog)
  done;
  total

(* A fault inside a thread's invisible code — a division by zero, a
   failing assert — happens at the same draw as in the reference: the
   run-ahead stops before the faulting instruction and the real step
   faults. *)
let test_fault_in_prefix () =
  List.iter
    (fun (name, src) ->
      List.iter
        (fun seed ->
          let total =
            every_budget ~sched_of:(fun () -> Sched.random ~seed ()) (Compile.source src)
          in
          let o =
            Runner.run ~sched:(Sched.random ~seed ()) ~sink:Trace.Sink.ignore
              (Compile.source src)
          in
          Alcotest.(check int) (name ^ ": same length") total o.Runner.steps;
          Alcotest.(check bool) (name ^ ": faulted") true (Vm.failures o.Runner.final <> []))
        [ 1; 2; 3 ])
    [ ( "division",
        "var g = 0; fn w(x) { var a = x * 3; var b = a - a; g = 1; var c = a / b; \
         g = c; } fn main() { var t = spawn w(2); var i = 0; while (i < 5) { g = i; \
         i = i + 1; } join t; }" );
      ( "assert",
        "var g = 0; fn w(x) { var a = x + 1; var i = 0; while (i < 4) { a = a - 1; \
         i = i + 1; } assert(a == 7); g = a; } fn main() { var t = spawn w(3); g = 2; \
         join t; }" ) ]

(* A purely local infinite loop never leaves its run-ahead: the run
   stops at the step limit in exactly the reference's state, at every
   budget, whichever thread the limit catches ahead. *)
let test_local_infinite_loop () =
  let src =
    "var g = 0; fn spin(x) { var i = x; while (1) { i = i + 1; var j = i * 2; } } \
     fn main() { var t = spawn spin(1); var u = spawn spin(5); while (1) { g = g + 1; } }"
  in
  List.iter
    (fun sched_of ->
      let prog = Compile.source src in
      List.iter
        (fun max_steps -> ignore (same_run ~yields:Loc.Set.empty ~max_steps ~sched_of prog))
        (List.init 300 (fun i -> i + 1) @ [ 1023; 1024; 1025; 2049; 5000; 20_000 ]))
    [ (fun () -> Sched.random ~seed:7 ());
      (fun () -> Sched.round_robin ~quantum:3 ());
      (fun () -> Sched.pct ~seed:2 ~depth:3 ~change_span:100 ());
      (fun () -> Sched.cooperative ()) ]

(* [src] with the [Ret] that ends function [name] replaced by [Halt],
   which the compiler never emits. *)
let halting name src =
  let prog = Compile.source src in
  Array.iter
    (fun (f : Bytecode.func) ->
      if f.name = name then begin
        let last = Array.length f.code - 1 in
        assert (f.code.(last) = Bytecode.Ret);
        f.code.(last) <- Bytecode.Halt
      end)
    prog.Bytecode.funcs;
  prog

(* Paths the generated programs never take, each of which changes the
   runnable set: wait, notifyall and the monitor reacquire; a lock-order
   deadlock; an acquire that leaves contenders parked; a join of a thread
   that already finished; a halt; faults on visible instructions, which
   finish their thread and free its joiner. *)
let test_runnable_changes () =
  List.iter
    (fun (name, prog) ->
      List.iter
        (fun (sched_name, sched_of) ->
          let total = every_budget ~sched_of prog in
          if total = 0 then Alcotest.failf "%s under %s: no steps" name sched_name)
        [ ("random 1", fun () -> Sched.random ~seed:1 ());
          ("random 2", fun () -> Sched.random ~seed:2 ());
          ("random 3", fun () -> Sched.random ~seed:3 ());
          ("round-robin 1", fun () -> Sched.round_robin ~quantum:1 ());
          ("round-robin 3", fun () -> Sched.round_robin ~quantum:3 ()) ])
    (List.map (fun (name, src) -> (name, Compile.source src))
    [ ("monitor_cell", Coop_workloads.Micro.monitor_cell ~items:3);
      ("deadlock_prone", Coop_workloads.Micro.deadlock_prone ());
      ( "notifyall to three waiters",
        "var ready = 0; var g = 0; lock m; fn w() { sync (m) { while (ready == 0) \
         { wait(m); } g = g + 1; } } fn main() { var a = spawn w(); var b = spawn w(); \
         var c = spawn w(); var i = 0; while (i < 30) { i = i + 1; } sync (m) { \
         ready = 1; notifyall(m); } join a; join b; join c; print(g); }" );
      ( "lock contention",
        "var g = 0; lock m; fn w(n) { var i = 0; while (i < n) { sync (m) { \
         g = g + 1; } i = i + 1; } } fn main() { var a = spawn w(3); \
         var b = spawn w(3); var c = spawn w(3); join a; join b; join c; print(g); }" );
      ( "join of a finished thread",
        "var g = 0; fn w() { g = 1; } fn main() { var t = spawn w(); var i = 0; \
         while (i < 40) { i = i + 1; } g = 2; join t; print(g); }" );
      ( "index out of bounds",
        "array a[3]; var g = 0; fn w(x) { var i = x + 2; a[i] = 1; g = 1; } \
         fn main() { var t = spawn w(1); var u = spawn w(0); g = 2; join t; \
         join u; print(a[2]); }" );
      ( "release of an unheld lock",
        "lock m; var g = 0; fn w() { g = 1; release(m); g = 2; } fn main() { \
         var t = spawn w(); acquire(m); g = 3; release(m); join t; print(g); }" ) ]
    @ [ ( "halt",
          halting "w"
            "var g = 0; fn w() { g = 1; } fn main() { var t = spawn w(); \
             join t; print(g); }" ) ])

(* Injected yields stop a run-ahead, pending or not. *)
let test_yields_stop_runahead () =
  let src =
    "var g = 0; fn w(x) { var a = x; var i = 0; while (i < 6) { a = a + i; \
     i = i + 1; } g = a; } fn main() { var t = spawn w(1); var u = spawn w(2); \
     join t; join u; print(g); }"
  in
  let prog = Compile.source src in
  let locs = all_locs prog in
  List.iteri
    (fun i l ->
      if i mod 3 = 0 then
        ignore
          (every_budget ~yields:(Loc.Set.singleton l)
             ~sched_of:(fun () -> Sched.cooperative ())
             prog))
    locs

(* Inference resumes each schedule's tail through the same run loop
   ([Runner.resume]); its results are the same at every pool size and
   equal to the stateless oracle's, events analyzed included. *)
let test_infer_pools () =
  List.iter
    (fun (name, src) ->
      let prog = Compile.source src in
      let show r =
        Printf.sprintf "%s | rounds=%d events=%d witnesses=%s"
          (String.concat ","
             (List.map (Format.asprintf "%a" Loc.pp) (Loc.Set.elements r.Infer.yields)))
          r.Infer.rounds r.Infer.events_analyzed
          (String.concat ";"
             (List.map
                (fun w -> Printf.sprintf "%s@%d" w.Infer.yw_sched w.Infer.yw_round)
                r.Infer.witnesses))
      in
      let oracle =
        show
          (Infer.infer ~pool:(List.assoc 1 Test_parallel.pools) ~no_cache:true
             ~max_steps:200_000 prog)
      in
      List.iter
        (fun (jobs, pool) ->
          Alcotest.(check string)
            (Printf.sprintf "%s: jobs=%d" name jobs)
            oracle
            (show (Infer.infer ~pool ~max_steps:200_000 prog)))
        Test_parallel.pools)
    [ ("philo", Coop_workloads.Philo.source ~threads:2 ~size:2);
      ("crypt", Coop_workloads.Crypt.source ~threads:2 ~size:2);
      ("sor", Coop_workloads.Sor.source ~threads:2 ~size:2);
      ("elevator", Coop_workloads.Elevator.source ~threads:2 ~size:2);
      (* The shared prefix ends at the spawn: the local code after it is
         not a forced pick, and how long main spins depends on the
         picks. *)
      ( "spawn then local",
        "var flag = 0; fn w() { flag = 1; } fn main() { var t = spawn w(); \
         var a = 1; var b = a + 2; while (flag == 0) { b = b + 1; } join t; }" ) ]

let suite =
  [
    differential;
    Alcotest.test_case "fault inside an invisible prefix" `Quick test_fault_in_prefix;
    Alcotest.test_case "local infinite loop at the step limit" `Quick
      test_local_infinite_loop;
    Alcotest.test_case "injected yields stop a run-ahead" `Quick test_yields_stop_runahead;
    Alcotest.test_case "runnable-set changes at every budget" `Quick
      test_runnable_changes;
    Alcotest.test_case "infer identical at pools 1/2/4" `Quick test_infer_pools;
  ]
