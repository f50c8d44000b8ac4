(* Replay-elision equivalence suites. Three families of laws:

   - cached DPOR (checkpoint store, with and without sleep sets) is
     observationally identical to the stateless oracle —
     same behaviour sets, executions and novel steps; only the prefix
     re-derivation work ([replayed_steps]) differs;
   - a VM state copied mid-run ([Vm.copy], [Vm.copy_into]) is an
     independent branch that continues exactly like its donor;
   - inference is cache-oblivious: yield sets, rounds, violation counts
     and witness chains are identical with replay elision on, refused by
     a full budget and off — including when race facts about the
     recorded prefix's events only arrive in the divergent tail, so each
     schedule's checker repairs transactions the replayed prefix
     opened;
   - a fresh online chain fed a recorded prefix and then the tail
     finalizes like one fed the whole stream, even when several chains
     are stepped in alternation (no state is shared between them). *)

(* Bind before [open QCheck2] shadows the module name (same dance as
   test_parallel.ml). *)
let gen_program = Gen.gen_concurrent_program
let gen_call_program = Gen.gen_call_program
let gen_late_trace = Gen.gen_late_trace
let gen_lock_heavy_trace = Gen.gen_lock_heavy_trace
let print_trace = Gen.print_trace

let to_alcotest = Gen.to_alcotest
open QCheck2
open Coop_util
open Coop_trace
open Coop_lang
open Coop_runtime
open Coop_core
open Coop_workloads

let pool2 = Pool.create ~jobs:2 ()
let pool4 = Pool.create ~jobs:4 ()
let pools = [ (1, Pool.create ~jobs:1 ()); (2, pool2); (4, pool4) ]

(* Terminating micro programs only: DPOR diverges on spin loops. *)
let micro_programs =
  [ ("racy_counter 2x2", Micro.racy_counter ~threads:2 ~incs:2);
    ("racy_counter 3x1", Micro.racy_counter ~threads:3 ~incs:1);
    ("check_then_act 2", Micro.check_then_act ~threads:2);
    ("single_transaction 3", Micro.single_transaction ~threads:3) ]
  |> List.map (fun (name, src) -> (name, Compile.source src))

(* --- the bugfix satellite: steps = novel + replayed ------------------ *)

let test_dpor_counter_split () =
  List.iter
    (fun (name, prog) ->
      let c = Dpor.run prog in
      let s = Dpor.run ~no_cache:true prog in
      Alcotest.(check int)
        (name ^ ": cached steps = novel + replayed")
        (c.Dpor.novel_steps + c.Dpor.replayed_steps)
        c.Dpor.steps;
      Alcotest.(check int)
        (name ^ ": stateless steps = novel + replayed")
        (s.Dpor.novel_steps + s.Dpor.replayed_steps)
        s.Dpor.steps;
      Alcotest.(check int)
        (name ^ ": novel steps cache-independent")
        s.Dpor.novel_steps c.Dpor.novel_steps;
      Alcotest.(check int)
        (name ^ ": executions cache-independent")
        s.Dpor.executions c.Dpor.executions;
      (* The point of the store: strictly less re-derivation work on any
         program with more than one execution. *)
      Alcotest.(check bool)
        (name ^ ": elision reduces replayed steps")
        true
        (c.Dpor.replayed_steps < s.Dpor.replayed_steps);
      Alcotest.(check bool)
        (name ^ ": checkpoints actually hit")
        true (c.Dpor.cache_hits > 0);
      Alcotest.(check int)
        (name ^ ": stateless path never hits")
        0 s.Dpor.cache_hits)
    micro_programs

(* --- VM copy law --------------------------------------------------------- *)

(* Steps [st] in place under [sched] for at most [max] steps, recording
   each emitted event. *)
let drive st sched ~max =
  let events = ref [] in
  let sink e = events := Format.asprintf "%a" Event.pp e :: !events in
  let rec go n last last_yielded =
    if n < max then
      match Vm.runnable st with
      | [] -> ()
      | rs ->
          let tid =
            sched.Sched.pick
              { Sched.runnable = Array.of_list rs; n_runnable = List.length rs;
                last; last_yielded }
          in
          go (n + 1) tid (Vm.step ~yields:Loc.Set.empty st tid ~sink)
  in
  go 0 (-1) false;
  List.rev !events

(* Heap words reachable from [st] but not from the program (and its
   tables) it shares with its copies — the first field of the state
   record. *)
let own_words st =
  let r = Obj.repr st in
  Obj.reachable_words r - Obj.reachable_words (Obj.field r 0)

let show_behavior st = Format.asprintf "%a" Behavior.pp (Behavior.of_state st)

(* A copy taken mid-run is an independent machine: continued under one
   pinned schedule, donor and copy emit the same events and end in the
   same configuration; stepping the copy never disturbs the donor; and
   [approx_words] bounds what the copy really occupies. *)
let vm_copy_law ~name gen =
  to_alcotest
    (Test.make ~name ~count:60
       ~print:(fun (p, k, seed) ->
         Printf.sprintf "prefix=%d seed=%d\n%s" k seed (Pretty.program p))
       Gen.(triple gen (int_range 0 400) (int_range 0 1000))
       (fun (p, k, seed) ->
         let prog = Compile.program p in
         let donor = Vm.init prog in
         ignore (drive donor (Sched.random ~seed ()) ~max:k);
         let copy = Vm.copy donor in
         let donor_key = Vm.key donor in
         if Vm.key copy <> donor_key then Test.fail_report "copy key differs";
         let words = own_words copy in
         if Vm.approx_words copy < words then
           Test.fail_reportf "approx_words %d < %d reachable words"
             (Vm.approx_words copy) words;
         let picks, sched = Sched.recorded (Sched.random ~seed:(seed + 1) ()) in
         let copy_events = drive copy sched ~max:3_000 in
         if Vm.key donor <> donor_key then
           Test.fail_report "stepping the copy changed the donor";
         let donor_events = drive donor (Sched.pinned (picks ())) ~max:3_000 in
         donor_events = copy_events
         && Vm.key donor = Vm.key copy
         && show_behavior donor = show_behavior copy))

(* [Vm.copy_into] is [Vm.copy] in recycled memory: written over a state
   from another point of the same run — stepped in place, so its spare
   thread slots alias a live thread, or a copy of one — the destination
   gets the donor's key, continues exactly like the donor, and shares
   nothing mutable with it. Its approx_words is a copy's plus the frames
   it keeps for reuse, and still bounds what it occupies. *)
let vm_copy_into_law ~name gen =
  to_alcotest
    (Test.make ~name ~count:60
       ~print:(fun (p, (k, j, seed, fresh)) ->
         Printf.sprintf "prefix=%d dst_prefix=%d seed=%d copied_dst=%b\n%s" k j seed
           fresh (Pretty.program p))
       Gen.(pair gen (quad (int_range 0 400) (int_range 0 400) (int_range 0 1000) bool))
       (fun (p, (k, j, seed, copied_dst)) ->
         let prog = Compile.program p in
         let donor = Vm.init prog in
         ignore (drive donor (Sched.random ~seed ()) ~max:k);
         let dst = Vm.init prog in
         ignore (drive dst (Sched.random ~seed:(seed + 7) ()) ~max:j);
         let dst = if copied_dst then Vm.copy dst else dst in
         Vm.copy_into ~dst donor;
         let donor_key = Vm.key donor in
         if Vm.key dst <> donor_key then Test.fail_report "copy_into key differs";
         if Vm.approx_words dst < Vm.approx_words (Vm.copy donor) then
           Test.fail_reportf "approx_words %d, a copy has %d" (Vm.approx_words dst)
             (Vm.approx_words (Vm.copy donor));
         if Vm.approx_words dst < own_words dst then
           Test.fail_reportf "approx_words %d < %d reachable words"
             (Vm.approx_words dst) (own_words dst);
         let picks, sched = Sched.recorded (Sched.random ~seed:(seed + 1) ()) in
         let dst_events = drive dst sched ~max:3_000 in
         if Vm.key donor <> donor_key then
           Test.fail_report "stepping the destination changed the donor";
         let donor_events = drive donor (Sched.pinned (picks ())) ~max:3_000 in
         donor_events = dst_events
         && Vm.key donor = Vm.key dst
         && show_behavior donor = show_behavior dst))

(* A state stepped in place keeps the frames its returns left and
   reuses them for later calls at the same depth; its copy has none and
   allocates fresh ones. Stepped in lockstep under one schedule, the two
   have equal keys after every step and emit the same events, and the
   stepped state's approx_words, spare frames included, bounds what it
   occupies. *)
let vm_reused_frames_law =
  to_alcotest
    (Test.make ~name:"qcheck: reused frames step like a fresh copy" ~count:60
       ~print:(fun (p, k, seed) ->
         Printf.sprintf "prefix=%d seed=%d\n%s" k seed (Pretty.program p))
       Gen.(triple gen_call_program (int_range 0 400) (int_range 0 1000))
       (fun (p, k, seed) ->
         let prog = Compile.program p in
         let st = Vm.init prog in
         ignore (drive st (Sched.random ~seed ()) ~max:k);
         let copy = Vm.copy st in
         let events = ref [] in
         let sink e = events := Format.asprintf "%a" Event.pp e :: !events in
         let rng = Coop_util.Rng.create (seed + 1) in
         let rec go n =
           if Vm.key st <> Vm.key copy then
             Test.fail_reportf "keys differ after %d steps" n;
           if Vm.approx_words st < own_words st then
             Test.fail_reportf "approx_words %d < %d reachable words after %d steps"
               (Vm.approx_words st) (own_words st) n;
           match Vm.runnable st with
           | [] -> Vm.runnable copy = []
           | rs when n < 3_000 ->
               let tid = List.nth rs (Coop_util.Rng.int rng (List.length rs)) in
               events := [];
               ignore (Vm.step ~yields:Loc.Set.empty st tid ~sink);
               let mine = !events in
               events := [];
               ignore (Vm.step ~yields:Loc.Set.empty copy tid ~sink);
               mine = !events && go (n + 1)
           | _ -> true
         in
         go 0 && show_behavior st = show_behavior copy))

(* A stepped state's thread table grows by doubling, and its spare slots
   alias the last spawned thread: main plus three spawned workers leave a
   4-slot table whose last slot is worker 2. [copy_into] must not reuse
   that slot as worker 3's record. *)
let test_copy_into_aliased_slot () =
  let prog =
    Compile.source
      "var g = 0; fn w(x) { g = g + x; } fn main() { var a = spawn w(1); \
       var b = spawn w(2); var c = spawn w(3); join a; join b; join c; }"
  in
  let spawned st tid =
    match Vm.thread_status st tid with _ -> true | exception Not_found -> false
  in
  let step_main_until st tid =
    while not (spawned st tid) do
      ignore (Vm.step ~yields:Loc.Set.empty st 0 ~sink:Trace.Sink.ignore)
    done
  in
  let dst = Vm.init prog in
  step_main_until dst 2;
  let src = Vm.copy dst in
  step_main_until src 3;
  Vm.copy_into ~dst src;
  Alcotest.(check string) "key" (Vm.key src) (Vm.key dst);
  let events st = drive st (Sched.round_robin ~quantum:2 ()) ~max:1_000 in
  Alcotest.(check (list string)) "continuation" (events (Vm.copy src)) (events dst)

(* The frames part of thread [tid]'s segment of [Vm.key]: everything
   after its status, flags and wait depth. *)
let frames_in_key key tid =
  let t = String.index key 'T' and o = String.index key 'O' in
  let seg =
    List.nth (String.split_on_char '!' (String.sub key (t + 1) (o - t - 1))) tid
  in
  (* Status char (plus its handle), two flag chars, wait depth. *)
  let i =
    match seg.[0] with 'l' | 'j' | 'w' | 'q' -> String.index seg ',' + 1 | _ -> 1
  in
  let j = String.index_from seg (i + 2) ',' + 1 in
  String.sub seg j (String.length seg - j)

(* A faulting instruction leaves its frame exactly as it found it — pc,
   operand stack and locals — whatever it had popped before faulting. *)
let test_fault_preserves_frame () =
  List.iter
    (fun (name, src) ->
      let prog = Compile.source src in
      let st = Vm.init prog in
      let faulted = ref false in
      let rec go n =
        match Vm.runnable st with
        | tid :: _ when n < 10_000 ->
            let before = frames_in_key (Vm.key st) tid in
            ignore (Vm.step ~yields:Loc.Set.empty st tid ~sink:Trace.Sink.ignore);
            (match Vm.thread_status st tid with
            | Vm.Faulted _ ->
                faulted := true;
                Alcotest.(check string)
                  (name ^ ": faulted frame unchanged")
                  before
                  (frames_in_key (Vm.key st) tid)
            | _ -> ());
            go (n + 1)
        | _ -> ()
      in
      go 0;
      Alcotest.(check bool) (name ^ ": faulted") true !faulted)
    [ ("division", "var z = 0; fn main() { var a = 3; print(1 + a / z); }");
      ("modulo", "var z = 0; fn f(x) { return x; } fn main() { print(f(2) + 7 % z); }");
      ("array bounds", "array a[2]; fn main() { var i = 5; a[i] = 1 + i; }");
      ("assert", "fn main() { var x = 0; assert(x == 1); }");
      ("release", "lock m; fn main() { release(m); }");
      ("spawned worker", "var z = 0; fn w(x) { print(x / z); } fn main() { var t = spawn w(4); join t; }") ]

(* DPOR releases a frame's charge when the frame pops, so a finished run
   leaves its store empty and still matches the stateless oracle. *)
let test_dpor_drops_checkpoints () =
  List.iter
    (fun (name, prog) ->
      let s = Dpor.run ~no_cache:true prog in
      let ckpt = Dpor.default_cache () in
      let c = Dpor.run ~ckpt prog in
      Alcotest.(check int) (name ^ ": no bytes left") 0
        (Ckpt_cache.stats ckpt).Ckpt_cache.bytes;
      Alcotest.(check int) (name ^ ": executions") s.Dpor.executions
        c.Dpor.executions;
      Alcotest.(check int) (name ^ ": novel steps") s.Dpor.novel_steps
        c.Dpor.novel_steps;
      Alcotest.(check bool) (name ^ ": complete") s.Dpor.complete
        c.Dpor.complete;
      Alcotest.(check bool) (name ^ ": behaviours") true
        (Behavior.Set.equal s.Dpor.behaviors c.Dpor.behaviors))
    micro_programs

(* A frame's thread sets are bitsets of 63 threads a word: past the
   first word, thread 65 must not be confused with thread 2. The two
   workers with those tids write [x] — the only conflict — so both
   orders, and nothing else, are behaviours. *)
let test_dpor_many_threads () =
  let prog =
    Compile.source
      "var x = 0;\n\
       fn w(id) { if (id == 1) { x = id; } if (id == 64) { x = id; } }\n\
       fn main() { var i = 0; while (i < 70) { spawn w(i); i = i + 1; } }"
  in
  let finals (r : Dpor.result) =
    List.map
      (fun b -> b.Behavior.globals)
      (Behavior.Set.elements r.Dpor.behaviors)
  in
  List.iter
    (fun (what, no_cache) ->
      let r = Dpor.run ~no_cache prog in
      Alcotest.(check bool) (what ^ ": complete") true r.Dpor.complete;
      Alcotest.(check int) (what ^ ": executions") 2 r.Dpor.executions;
      Alcotest.(check (list (list int))) (what ^ ": final x") [ [ 1 ]; [ 64 ] ]
        (finals r))
    [ ("cached", false); ("stateless", true) ]

(* --- qcheck equivalence suites --------------------------------------- *)

let prop name count f =
  to_alcotest (Test.make ~name ~count ~print:Pretty.program gen_program f)

(* Cached and stateless DPOR explore the same tree in the same order, so
   even budget-truncated runs must agree on everything but
   [replayed_steps]/[cache_hits]; behaviour sets across the sleep-set
   toggle additionally agree when both runs are complete, and pruning
   never explores more. The budget is deliberately small: the stateless
   oracle replays every prefix from the root, so its cost grows
   quadratically with depth. *)
let dpor_budget = 4_000

let dpor_cached_matches_stateless =
  prop "qcheck: cached dpor = stateless dpor (+/- sleep sets)" 6 (fun p ->
      let prog = Compile.program p in
      let runs =
        List.map
          (fun sleep_sets ->
            ( Dpor.run ~sleep_sets ~max_executions:dpor_budget prog,
              Dpor.run ~sleep_sets ~no_cache:true ~max_executions:dpor_budget
                prog ))
          [ true; false ]
      in
      let pairwise_ok =
        List.for_all
          (fun ((c : Dpor.result), (s : Dpor.result)) ->
            c.Dpor.complete = s.Dpor.complete
            && c.Dpor.executions = s.Dpor.executions
            && c.Dpor.novel_steps = s.Dpor.novel_steps
            && c.Dpor.steps = c.Dpor.novel_steps + c.Dpor.replayed_steps
            && s.Dpor.steps = s.Dpor.novel_steps + s.Dpor.replayed_steps
            && Behavior.Set.equal c.Dpor.behaviors s.Dpor.behaviors)
          runs
      in
      match runs with
      | [ (sleep, _); (plain, _) ] ->
          pairwise_ok
          && (not (sleep.Dpor.complete && plain.Dpor.complete)
             || Behavior.Set.equal sleep.Dpor.behaviors plain.Dpor.behaviors
                && sleep.Dpor.executions <= plain.Dpor.executions)
      | _ -> false)

(* Checkpoint charges are lock-free, so concurrent DPOR runs may share
   one store. Runs side by side as pool tasks, all charged to one store,
   must each explore the stateless oracle's tree, and together release
   every charge by the time the last one returns. *)
let dpor_shared_store_law =
  prop "qcheck: concurrent cached dpor runs sharing one store = stateless" 4
    (fun p ->
      let prog = Compile.program p in
      let s = Dpor.run ~no_cache:true ~max_executions:dpor_budget prog in
      List.for_all
        (fun (jobs, pool) ->
          let ckpt = Dpor.default_cache () in
          let rs =
            Pool.parallel_map pool
              (fun () -> Dpor.run ~ckpt ~max_executions:dpor_budget prog)
              (List.init (max 2 jobs) (fun _ -> ()))
          in
          (Ckpt_cache.stats ckpt).Ckpt_cache.bytes = 0
          && List.for_all
               (fun (r : Dpor.result) ->
                 r.Dpor.complete = s.Dpor.complete
                 && r.Dpor.executions = s.Dpor.executions
                 && r.Dpor.novel_steps = s.Dpor.novel_steps
                 && r.Dpor.steps = r.Dpor.novel_steps + r.Dpor.replayed_steps
                 && Behavior.Set.equal s.Dpor.behaviors r.Dpor.behaviors)
               rs)
        pools)

(* DPOR parks a frame's state only when the store's budget has room for
   it, and a refused frame re-derives its state by replay. A store too
   small to park anything, the default store and the stateless run must
   explore the same tree, every charge must be released by the time the
   run returns, and the high-water mark must stay under the cap. *)
let dpor_budget_law =
  prop "qcheck: dpor identical with a roomy, a full and no store" 4 (fun p ->
      let prog = Compile.program p in
      let weight st = 8 * Vm.approx_words st in
      let roomy_cap = 64 * 1024 * 1024 and full_cap = 8 in
      let roomy = Ckpt_cache.create ~cap_bytes:roomy_cap ~weight () in
      let full = Ckpt_cache.create ~cap_bytes:full_cap ~weight () in
      let run ?ckpt no_cache =
        Dpor.run ?ckpt ~no_cache ~max_executions:dpor_budget prog
      in
      let a = run ~ckpt:roomy false in
      let b = run ~ckpt:full false in
      let c = run true in
      let same (r : Dpor.result) =
        Behavior.Set.equal a.Dpor.behaviors r.Dpor.behaviors
        && a.Dpor.executions = r.Dpor.executions
        && a.Dpor.novel_steps = r.Dpor.novel_steps
        && a.Dpor.complete = r.Dpor.complete
      in
      let settled c cap =
        let s = Ckpt_cache.stats c in
        s.Ckpt_cache.bytes = 0 && s.Ckpt_cache.peak_bytes <= cap
      in
      same b && same c && settled roomy roomy_cap && settled full full_cap
      (* the root always parks in a roomy store, never in a full one *)
      && (Ckpt_cache.stats roomy).Ckpt_cache.peak_bytes > 0
      && a.Dpor.cache_hits = (Ckpt_cache.stats roomy).Ckpt_cache.hits
      && b.Dpor.cache_hits = 0)

let witness_key (w : Infer.yield_witness) =
  ( Format.asprintf "%a" Loc.pp w.Infer.yw_loc,
    w.Infer.yw_round,
    w.Infer.yw_sched )

(* A roomy store, one that refuses every charge (each round then runs
   stateless) and no store at all infer the same yields, rounds,
   witnesses and analyzed events, and every charge is released by the
   time [infer] returns. *)
let infer_cache_oblivious =
  prop "qcheck: infer identical with cache on/off" 6 (fun p ->
      let prog = Compile.program p in
      List.for_all
        (fun (_, pool) ->
          let roomy = Infer.prefix_cache () in
          let full = Ckpt_cache.create ~cap_bytes:8 ~weight:Infer.prefix_weight () in
          let run ?ckpt no_cache =
            Infer.infer ~pool ?ckpt ~no_cache ~max_steps:300_000 prog
          in
          let c = run ~ckpt:roomy false in
          let f = run ~ckpt:full false in
          let s = run true in
          let same (r : Infer.result) =
            Loc.Set.equal r.Infer.yields s.Infer.yields
            && r.Infer.rounds = s.Infer.rounds
            && r.Infer.initial_violations = s.Infer.initial_violations
            && r.Infer.final_check_violations = s.Infer.final_check_violations
            && r.Infer.events_analyzed = s.Infer.events_analyzed
            && List.map witness_key r.Infer.witnesses
               = List.map witness_key s.Infer.witnesses
          in
          let settled c = (Ckpt_cache.stats c).Ckpt_cache.bytes = 0 in
          same c && same f
          && s.Infer.prefix_events = 0
          && s.Infer.cache_hits = 0
          && f.Infer.prefix_events = 0
          && f.Infer.cache_hits = 0
          && settled roomy && settled full)
        pools)

(* Main writes [x] and [y] in one yield-free segment before its first
   spawn, so those writes sit in the shared prefix, inside main's open
   transaction; the worker races on both only in the divergent tail.
   Each schedule's checker is fed the recorded prefix, then learns the
   races from tail events and must repair the transaction the prefix
   opened. *)
let late_fact_program =
  Compile.source
    "var x = 0; var y = 0;\n\
     fn w(n) { x = x + n; y = y + 1; }\n\
     fn main() { x = 1; y = 2; var t = spawn w(1); x = 3; y = y + 1; join t; }"

let test_infer_late_prefix_facts () =
  let yields (r : Infer.result) =
    List.map (Format.asprintf "%a" Loc.pp) (Loc.Set.elements r.Infer.yields)
  in
  let witness_chain (r : Infer.result) =
    List.map
      (fun (w : Infer.yield_witness) ->
        Format.asprintf "%a|%d|%s|%a" Loc.pp w.Infer.yw_loc w.Infer.yw_round
          w.Infer.yw_sched Automaton.pp_violation w.Infer.yw_viol)
      r.Infer.witnesses
  in
  let round1 =
    Infer.infer ~pool:pool2 ~max_rounds:1 ~max_steps:300_000 late_fact_program
  in
  Alcotest.(check bool) "round 1 has a prefix" true
    (round1.Infer.prefix_events > 0);
  (* A round-1 violation committed inside the prefix: its cause is a
     prefix event, reclassified by a fact from the tail. *)
  Alcotest.(check bool) "a witness blames a prefix event" true
    (List.exists
       (fun (w : Infer.yield_witness) ->
         match w.Infer.yw_viol.Automaton.cause with
         | Some c -> c.Online.cseq <= round1.Infer.prefix_events
         | None -> false)
       round1.Infer.witnesses);
  List.iter
    (fun (jobs, pool) ->
      let ctx what = Printf.sprintf "-j %d %s" jobs what in
      let run ?ckpt no_cache =
        Infer.infer ~pool ?ckpt ~no_cache ~max_steps:300_000 late_fact_program
      in
      let roomy = Infer.prefix_cache () in
      let full = Ckpt_cache.create ~cap_bytes:8 ~weight:Infer.prefix_weight () in
      let s = run true in
      let c = run ~ckpt:roomy false in
      let f = run ~ckpt:full false in
      Alcotest.(check bool) (ctx "cached prefix events > 0") true
        (c.Infer.prefix_events > 0);
      Alcotest.(check bool) (ctx "cached run hits") true (c.Infer.cache_hits > 0);
      List.iter
        (fun (name, (r : Infer.result)) ->
          let ctx what = ctx (name ^ ": " ^ what) in
          Alcotest.(check (list string)) (ctx "yields") (yields s) (yields r);
          Alcotest.(check int) (ctx "rounds") s.Infer.rounds r.Infer.rounds;
          Alcotest.(check int) (ctx "initial violations")
            s.Infer.initial_violations r.Infer.initial_violations;
          Alcotest.(check int) (ctx "final violations")
            s.Infer.final_check_violations r.Infer.final_check_violations;
          Alcotest.(check int) (ctx "events analyzed")
            s.Infer.events_analyzed r.Infer.events_analyzed;
          Alcotest.(check (list string)) (ctx "witness chain")
            (witness_chain s) (witness_chain r))
        [ ("roomy", c); ("full", f) ])
    pools

(* What inference does per schedule, on late-knowledge streams cut at a
   random point: the prefix's events go through a recording sink, each
   fresh chain is fed the recording and then the tail, and two such
   chains are stepped in alternation over the tail. Both must finalize
   exactly like a chain fed the whole stream. *)
let show_coop (r : Cooperability.result) =
  Format.asprintf "%s|%s|%d"
    (String.concat ";"
       (List.map
          (Format.asprintf "%a" Automaton.pp_violation)
          r.Cooperability.violations))
    (String.concat ";"
       (List.map (Format.asprintf "%a" Coop_race.Report.pp)
          r.Cooperability.races))
    r.Cooperability.events

let online_prefix_replay_law =
  let gen =
    Gen.pair (Gen.oneof [ gen_late_trace; gen_lock_heavy_trace ])
      (Gen.float_bound_inclusive 1.)
  in
  to_alcotest
    (Test.make
       ~name:"qcheck: online chain fed a recorded prefix then the tail = \
              full stream, instances interleaved"
       ~count:150
       ~print:(fun (tr, cut) ->
         Printf.sprintf "cut %.3f of\n%s" cut (print_trace tr))
       gen
       (fun (tr, cut) ->
         let n = Trace.length tr in
         let k = int_of_float (cut *. float_of_int n) in
         let make () = Cooperability.online_analysis ~witness:true () in
         let full = show_coop (Analysis.run (make ()) tr) in
         let recorded = Trace.create () in
         let sink = Trace.Sink.recording recorded in
         for i = 0 to k - 1 do
           sink (Trace.get tr i)
         done;
         let a1 = make () and a2 = make () in
         Trace.iter (Analysis.step a1) recorded;
         Trace.iter (Analysis.step a2) recorded;
         for i = k to n - 1 do
           Analysis.step a1 (Trace.get tr i);
           Analysis.step a2 (Trace.get tr i)
         done;
         Trace.length recorded = k
         && show_coop (Analysis.finalize a1) = full
         && show_coop (Analysis.finalize a2) = full))

(* Heap words reachable from an inference prefix but not from the program
   (and its tables) its VM state shares with every copy. The state is
   the prefix record's first field, the program the state's. *)
let prefix_own_words p =
  let r = Obj.repr p in
  Obj.reachable_words r - Obj.reachable_words (Obj.field (Obj.field r 0) 0)

(* [Infer.prefix_weight] bounds what a prefix retains, so the cap bounds
   what inference pins: every prefix a run charges weighs at least its
   own words, in bytes. *)
let prefix_weight_bounds prog =
  let pairs = ref [] in
  let weight p =
    let w = Infer.prefix_weight p in
    pairs := (w, 8 * prefix_own_words p) :: !pairs;
    w
  in
  ignore
    (Infer.infer ~pool:pool2 ~ckpt:(Ckpt_cache.create ~weight ())
       ~max_steps:300_000 prog);
  !pairs <> [] && List.for_all (fun (w, own) -> w >= own) !pairs

let test_prefix_weight_micro () =
  List.iter
    (fun (name, prog) ->
      Alcotest.(check bool) (name ^ ": weight >= own words") true
        (prefix_weight_bounds prog))
    micro_programs

let prefix_weight_law =
  prop "qcheck: Infer.prefix_weight >= a prefix's own words" 20 (fun p ->
      prefix_weight_bounds (Compile.program p))

(* Elision accounting: with the default 10-schedule portfolio, every
   prefix event analyzed once spares the other nine re-executions. *)
let test_infer_elision_accounting () =
  List.iter
    (fun (name, prog) ->
      let c = Infer.infer ~max_steps:300_000 prog in
      Alcotest.(check int)
        (name ^ ": elided = (portfolio - 1) * prefix events")
        ((List.length Infer.default_portfolio - 1) * c.Infer.prefix_events)
        c.Infer.elided_events)
    micro_programs

let suite =
  [
    Alcotest.test_case "dpor counter split (novel/replayed/steps)" `Quick
      test_dpor_counter_split;
    Alcotest.test_case "infer elision accounting" `Quick
      test_infer_elision_accounting;
    Alcotest.test_case "dpor leaves its checkpoint store empty" `Quick
      test_dpor_drops_checkpoints;
    Alcotest.test_case "dpor past 63 threads" `Quick test_dpor_many_threads;
    Alcotest.test_case "faulting step leaves its frame unchanged" `Quick
      test_fault_preserves_frame;
    vm_copy_law ~name:"qcheck: Vm.copy is an independent branch within approx_words"
      gen_program;
    vm_copy_into_law ~name:"qcheck: Vm.copy_into is Vm.copy in recycled memory"
      gen_program;
    vm_copy_law ~name:"calls: Vm.copy is an independent branch within approx_words"
      gen_call_program;
    vm_copy_into_law ~name:"calls: Vm.copy_into is Vm.copy in recycled memory"
      gen_call_program;
    vm_reused_frames_law;
    Alcotest.test_case "copy_into over an aliased thread slot" `Quick
      test_copy_into_aliased_slot;
    dpor_cached_matches_stateless;
    dpor_shared_store_law;
    dpor_budget_law;
    infer_cache_oblivious;
    Alcotest.test_case "infer: prefix facts arriving in the tail" `Quick
      test_infer_late_prefix_facts;
    online_prefix_replay_law;
    Alcotest.test_case "prefix weight bounds its own words" `Quick
      test_prefix_weight_micro;
    prefix_weight_law;
  ]
