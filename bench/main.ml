(* The evaluation harness: regenerates every table and figure of the
   reproduction (see DESIGN.md for the per-experiment index and
   EXPERIMENTS.md for paper-vs-measured records).

     dune exec bench/main.exe                         # everything
     dune exec bench/main.exe table1                  # one experiment
     dune exec bench/main.exe micro                   # bechamel micro-benchmarks
     dune exec bench/main.exe -- table3 --jobs 4      # domain-parallel rows
     dune exec bench/main.exe -- table3 --json t3.json --only philo,crypt
     dune exec bench/main.exe -- json-verify t3.json  # CI validation

   Per-workload rows (and the ablation grid) are computed in parallel on
   the shared domain pool — sized by --jobs, then COOP_JOBS, then the
   machine — and always printed in canonical order; the numbers in each
   cell are computed identically either way. Absolute numbers are machine-
   and substrate-specific; the shapes (who wins, by what factor, where
   behaviour sets coincide) are what reproduce the paper. *)

open Coop_util
open Coop_lang
open Coop_runtime
open Coop_core
open Coop_workloads

(* ---------------------------------------------------------------------- *)
(* Timing helpers                                                          *)
(* ---------------------------------------------------------------------- *)

let time_median ?(reps = 5) f =
  let samples =
    Array.init reps (fun _ ->
        let t0 = Unix.gettimeofday () in
        ignore (Sys.opaque_identity (f ()));
        Unix.gettimeofday () -. t0)
  in
  Stats.median samples

let ms t = Printf.sprintf "%.2f" (1000. *. t)

(* ---------------------------------------------------------------------- *)
(* CLI state (set by the driver before any experiment runs)                *)
(* ---------------------------------------------------------------------- *)

let json_out : string option ref = ref None
let only : string list option ref = ref None

let selected () =
  match !only with
  | None -> Registry.all
  | Some names ->
      List.filter (fun (e : Registry.entry) -> List.mem e.Registry.name names)
        Registry.all

let keep name =
  match !only with None -> true | Some names -> List.mem name names

(* ---------------------------------------------------------------------- *)
(* Per-workload data, computed once and shared by tables 1-3 / fig 3       *)
(* ---------------------------------------------------------------------- *)

type row = {
  entry : Registry.entry;
  prog : Bytecode.program;
  loc : int;
  trace : Coop_trace.Trace.t;  (* one reference run, with inferred yields *)
  infer : Infer.result;
  metrics : Metrics.t;
  coop0 : Cooperability.result;  (* checker output on the unannotated run *)
  atom : Coop_atomicity.Atomizer.result;
}

(* The Atomizer baseline over a recorded trace, in the fused pipeline. *)
let atomize trace =
  Option.get
    (Coop_pipeline.run ~atomize:true (Coop_trace.Source.of_trace trace))
      .Coop_pipeline.atomizer

let build_row (e : Registry.entry) =
  let prog = Registry.program_of e in
  let loc = Registry.loc_count (Registry.source_of e) in
  let infer = Infer.infer prog in
  let sched () = Sched.random ~seed:5 () in
  let _, trace0 = Runner.record ~sched:(sched ()) prog in
  let coop0 = Cooperability.check trace0 in
  let atom = atomize trace0 in
  let _, trace =
    Runner.record ~yields:infer.Infer.yields ~sched:(sched ()) prog
  in
  let metrics = Metrics.compute prog ~inferred:infer.Infer.yields ~trace in
  { entry = e; prog; loc; trace; infer; metrics; coop0; atom }

(* The dominant cost of the whole harness (one yield-inference fixpoint per
   workload); rows are independent, so they fan out across the pool. *)
let rows = lazy (Pool.map build_row (selected ()))

(* ---------------------------------------------------------------------- *)
(* Table 1: benchmark characteristics                                      *)
(* ---------------------------------------------------------------------- *)

let table1 () =
  let t =
    Table.create
      ~headers:
        [ ("benchmark", Table.Left); ("LoC", Table.Right);
          ("threads", Table.Right); ("bytecode", Table.Right);
          ("events", Table.Right); ("base time (ms)", Table.Right) ]
  in
  Pool.map
    (fun r ->
      let base =
        time_median (fun () ->
            Runner.run ~sched:(Sched.random ~seed:5 ())
              ~sink:Coop_trace.Trace.Sink.ignore r.prog)
      in
      [ r.entry.Registry.name; string_of_int r.loc;
        string_of_int r.entry.Registry.default_threads;
        string_of_int (Bytecode.code_size r.prog);
        string_of_int (Coop_trace.Trace.length r.trace); ms base ])
    (Lazy.force rows)
  |> List.iter (Table.add_row t);
  Table.print ~title:"Table 1: benchmark characteristics" t

(* ---------------------------------------------------------------------- *)
(* Table 2: annotation burden — cooperability vs atomicity                 *)
(* ---------------------------------------------------------------------- *)

let table2 () =
  let t =
    Table.create
      ~headers:
        [ ("benchmark", Table.Left); ("coop warn sites", Table.Right);
          ("yields (stat+inf)", Table.Right); ("yield-free fns", Table.Right);
          ("yields/kevent", Table.Right); ("atom warn sites", Table.Right);
          ("atom warn txns", Table.Right) ]
  in
  Pool.map
    (fun r ->
      let coop_sites =
        Coop_trace.Loc.Set.cardinal
          (Cooperability.violation_locs r.coop0.Cooperability.violations)
      in
      let atom_sites =
        List.fold_left
          (fun s (w : Coop_atomicity.Atomizer.warning) ->
            Coop_trace.Loc.Set.add w.Coop_atomicity.Atomizer.loc s)
          Coop_trace.Loc.Set.empty r.atom.Coop_atomicity.Atomizer.warnings
        |> Coop_trace.Loc.Set.cardinal
      in
      [ r.entry.Registry.name; string_of_int coop_sites;
        Printf.sprintf "%d+%d" r.metrics.Metrics.static_yields
          r.metrics.Metrics.inferred_yields;
        Printf.sprintf "%d/%d (%.0f%%)" r.metrics.Metrics.yield_free_functions
          r.metrics.Metrics.functions r.metrics.Metrics.pct_yield_free;
        Printf.sprintf "%.2f" r.metrics.Metrics.yields_per_kevent;
        string_of_int atom_sites;
        string_of_int r.atom.Coop_atomicity.Atomizer.violated_activations ])
    (Lazy.force rows)
  |> List.iter (Table.add_row t);
  Table.print
    ~title:
      "Table 2: annotation burden — cooperability vs method-level atomicity"
    t

(* ---------------------------------------------------------------------- *)
(* Table 3: dynamic-analysis overhead                                      *)
(* ---------------------------------------------------------------------- *)

type table3_row = {
  t3_name : string;
  t3_base : float;
  t3_race : float;
  t3_full : float;  (* single-pass engine: one execution per schedule *)
  t3_two : float;  (* two-pass oracle: re-executes for the mover phase *)
  t3_events : int;
  t3_minor_w_per_event : float;  (* full-pipeline minor words / event *)
  t3_major_collections : int;  (* major collections during that run *)
}

(* GC cost of one run of [f], sampled on a dedicated run so timed
   medians stay unperturbed. [Gc.quick_stat]'s minor words include what
   every other domain allocated in the window, so the sample is the
   run's own only while no other domain runs OCaml code: taken inside a
   pool task while other rows ran on another domain, table3's series
   read 27.87 and 8.78 words/event in two runs, against 3.125
   sequentially. Callers sample on the calling domain, with the pool
   idle. *)
let alloc_sample f =
  (* Flush the young generation at both window edges: the runtime only
     folds young-generation allocation into [minor_words] at minor
     collections, so an unflushed window reads 0 or a whole
     minor-heap's worth depending on where collections happened to
     land. *)
  Gc.minor ();
  let g0 = Gc.quick_stat () in
  let r = f () in
  Gc.minor ();
  let g1 = Gc.quick_stat () in
  ( r,
    g1.Gc.minor_words -. g0.Gc.minor_words,
    g1.Gc.major_collections - g0.Gc.major_collections )

(* The timed columns of one row, one pool task per row. *)
let table3_time r =
  let sched () = Sched.random ~seed:5 () in
  (* Timed at 32x the default workload size: the default-size streams run
     in single-digit milliseconds, where scheduler noise and per-run
     setup drown a median of 5; the scaled streams put every timed
     section in the tens of milliseconds. *)
  let prog =
    Registry.program_of ~size:(32 * r.entry.Registry.default_size) r.entry
  in
  let base =
    time_median (fun () ->
        Runner.run ~sched:(sched ()) ~sink:Coop_trace.Trace.Sink.ignore prog)
  in
  (* Race-only: the FastTrack analysis alone, fed straight from the VM
     sink (single pass, nothing recorded). *)
  let race =
    time_median (fun () ->
        Runner.analyze ~sched:(sched ()) (Coop_race.Fasttrack.analysis ())
          prog)
  in
  (* Full pipeline, single-pass engine: races + deadlock + counter feeding
     facts into the engine-backed cooperability automaton + Atomizer over
     ONE execution — the same fused driver the CLI uses by default. *)
  let events = ref 0 in
  let source = Runner.source ~sched prog in
  let full =
    time_median (fun () ->
        let res = Coop_pipeline.run ~atomize:true source in
        events := res.Coop_pipeline.events;
        res)
  in
  (* The two-pass oracle re-executes the program for its mover phase, so
     its cost includes a second uninstrumented-plus-dispatch run — the
     gap between the two columns is what fusing the passes buys. *)
  let two =
    time_median (fun () ->
        Coop_pipeline.run ~atomize:true ~two_pass:true source)
  in
  (r.entry.Registry.name, source, base, race, full, two, !events)

(* A row from its timings: the allocation columns come from one more
   full-pipeline pass, run on the calling domain after the parallel
   timing (see [alloc_sample]). *)
let table3_row (name, source, base, race, full, two, events) =
  let _, minor_w, majors =
    alloc_sample (fun () -> Coop_pipeline.run ~atomize:true source)
  in
  { t3_name = name; t3_base = base; t3_race = race; t3_full = full;
    t3_two = two; t3_events = events;
    t3_minor_w_per_event = minor_w /. float_of_int (max 1 events);
    t3_major_collections = majors }

let table3_json rows =
  Json.Obj
    [ ("experiment", Json.String "table3");
      ("jobs", Json.Int (Pool.jobs (Pool.shared ())));
      ("workloads",
       Json.List
         (List.map
            (fun w ->
              let kev dt = float_of_int w.t3_events /. 1000. /. dt in
              Json.Obj
                [ ("name", Json.String w.t3_name);
                  ("events", Json.Int w.t3_events);
                  ("base_s", Json.Float w.t3_base);
                  ("race_s", Json.Float w.t3_race);
                  ("full_s", Json.Float w.t3_full);
                  ("two_pass_s", Json.Float w.t3_two);
                  ("passes_per_schedule", Json.Int 1);
                  ("two_pass_passes", Json.Int 2);
                  ("race_slowdown", Json.Float (w.t3_race /. w.t3_base));
                  ("full_slowdown", Json.Float (w.t3_full /. w.t3_base));
                  ("two_pass_slowdown", Json.Float (w.t3_two /. w.t3_base));
                  ("race_kev_s", Json.Float (kev w.t3_race));
                  ("full_kev_s", Json.Float (kev w.t3_full));
                  ("two_pass_kev_s", Json.Float (kev w.t3_two));
                  (* Throughput of the analysis stack alone: events over
                     the time the full pipeline adds on top of the
                     uninstrumented run. The epsilon floor keeps the
                     division sane when analysis cost is within noise of
                     zero (full ~ base). *)
                  ("analysis_kev_s",
                   Json.Float
                     (float_of_int w.t3_events /. 1000.
                     /. Float.max 1e-6 (w.t3_full -. w.t3_base)));
                  ("minor_words_per_event",
                   Json.Float w.t3_minor_w_per_event);
                  ("major_collections", Json.Int w.t3_major_collections) ])
            rows)) ]

let table3 () =
  let t =
    Table.create
      ~headers:
        [ ("benchmark", Table.Left); ("base (ms)", Table.Right);
          ("events", Table.Right); ("race only", Table.Right);
          ("1-pass full", Table.Right); ("2-pass full", Table.Right);
          ("race kev/s", Table.Right); ("1-pass kev/s", Table.Right);
          ("2-pass kev/s", Table.Right); ("minor w/ev", Table.Right) ]
  in
  let measured = List.map table3_row (Pool.map table3_time (Lazy.force rows)) in
  List.iter
    (fun w ->
      let slow x = Printf.sprintf "%.2fx" (x /. w.t3_base) in
      let kev dt =
        Printf.sprintf "%.0f" (float_of_int w.t3_events /. 1000. /. dt)
      in
      Table.add_row t
        [ w.t3_name; ms w.t3_base; string_of_int w.t3_events; slow w.t3_race;
          slow w.t3_full; slow w.t3_two; kev w.t3_race; kev w.t3_full;
          kev w.t3_two; Printf.sprintf "%.1f" w.t3_minor_w_per_event ])
    measured;
  Table.print
    ~title:
      "Table 3: dynamic-analysis slowdown over uninstrumented execution \
       (fused streaming driver)"
    t;
  print_endline
    "(every column runs through the same fused Analysis driver with no\n\
     trace materialized; `full` = race detection + lock-order deadlock +\n\
     cooperability automaton + Atomizer. The 1-pass column is the default\n\
     single-pass engine — one execution per schedule, facts fed forward,\n\
     transactions repaired on late races; the 2-pass column is the\n\
     reference oracle, which re-executes the program for its mover phase.\n\
     events/sec is measured against the per-pass stream length.)\n";
  match !json_out with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (Json.to_string (table3_json measured));
      close_out oc;
      Printf.printf "(wrote %s)\n" path

(* ---------------------------------------------------------------------- *)
(* Profile: per-checker overhead attribution (the paper's "dominated by    *)
(* the race detector" claim, measured per workload)                        *)
(* ---------------------------------------------------------------------- *)

(* One workload, one instrumented full-pipeline run. Deliberately
   sequential with a registry reset per workload: per-checker timers are
   process-global, so parallel rows would merge attributions across
   workloads. *)
let profile_measure (e : Registry.entry) =
  let prog = Registry.program_of e in
  Coop_obs.reset ();
  Coop_obs.enable ();
  let source =
    Runner.source ~sched:(fun () -> Sched.random ~seed:5 ()) prog
  in
  let r = Coop_pipeline.run ~atomize:true source in
  let snap = Coop_obs.snapshot () in
  Coop_obs.disable ();
  let rows, total = Coop_obs.attribution snap in
  (e.Registry.name, r.Coop_pipeline.events, rows, total)

let profile_json measured =
  Json.Obj
    [ ("experiment", Json.String "profile");
      ("jobs", Json.Int (Pool.jobs (Pool.shared ())));
      ("workloads",
       Json.List
         (List.map
            (fun (name, events, rows, total, (w_off, w_on)) ->
              Json.Obj
                [ ("name", Json.String name);
                  ("events", Json.Int events);
                  ("analysis_s", Json.Float total);
                  ("witness_off_s", Json.Float w_off);
                  ("witness_on_s", Json.Float w_on);
                  ("witness_overhead", Json.Float ((w_on -. w_off) /. w_off));
                  ("checkers",
                   Json.List
                     (List.map
                        (fun (r : Coop_obs.attribution_row) ->
                          Json.Obj
                            [ ("checker", Json.String r.Coop_obs.checker);
                              ("s", Json.Float r.Coop_obs.seconds);
                              ("share", Json.Float r.Coop_obs.share);
                              ("events", Json.Int r.Coop_obs.events);
                              ("words", Json.Float r.Coop_obs.words) ])
                        rows)) ])
            measured)) ]

let profile () =
  (* Force the shared rows (and their inference fixpoints) BEFORE enabling
     telemetry, so the attribution below times exactly one pipeline run per
     workload. *)
  let entries = List.map (fun r -> r.entry) (Lazy.force rows) in
  (* Witness capture cost: the same fused pipeline timed with provenance
     off (the default) and on, uninstrumented so the numbers are clean.
     Off pays only a dead branch per access in the detectors; on pays
     the per-variable side tables and the witness allocation per race. *)
  let witness_cost (e : Registry.entry) =
    let prog = Registry.program_of e in
    let source () =
      Runner.source ~sched:(fun () -> Sched.random ~seed:5 ()) prog
    in
    let off =
      time_median ~reps:3 (fun () -> Coop_pipeline.run ~atomize:true (source ()))
    in
    let on =
      time_median ~reps:3 (fun () ->
          Coop_pipeline.run ~atomize:true ~witness:true (source ()))
    in
    (off, on)
  in
  let measured =
    List.map
      (fun e ->
        let name, events, rows, total = profile_measure e in
        (name, events, rows, total, witness_cost e))
      entries
  in
  let checkers =
    List.sort_uniq compare
      (List.concat_map
         (fun (_, _, rows, _, _) ->
           List.filter_map
             (fun (r : Coop_obs.attribution_row) ->
               if r.Coop_obs.events > 0 then Some r.Coop_obs.checker else None)
             rows)
         measured)
  in
  let t =
    Table.create
      ~headers:
        (("benchmark", Table.Left)
        :: ("events", Table.Right)
        :: ("analysis (ms)", Table.Right)
        :: List.map (fun c -> (c, Table.Right)) checkers
        @ [ ("dispatch/other", Table.Right) ])
  in
  List.iter
    (fun (name, events, rows, total, _) ->
      let share c =
        match
          List.find_opt
            (fun (r : Coop_obs.attribution_row) -> r.Coop_obs.checker = c)
            rows
        with
        | Some r -> Printf.sprintf "%.1f%%" (100. *. r.Coop_obs.share)
        | None -> "-"
      in
      Table.add_row t
        (name :: string_of_int events
        :: Printf.sprintf "%.2f" (1000. *. total)
        :: List.map share checkers
        @ [ share "(dispatch/other)" ]))
    measured;
  Table.print
    ~title:
      "Profile: per-checker share of the analysis sink time (full fused \
       pipeline, atomizer on)"
    t;
  print_endline
    "(shares are measured per checker step inside the fused dispatch; the\n\
     dispatch/other column is chain dispatch plus the instrumentation's own\n\
     clock reads, reported instead of hidden. Everything runs in the\n\
     single-pass engine, so there is no analysis/phase2 row any more; the\n\
     [repair] column is the engine re-running transaction digests when a\n\
     race arrives late — its cost is carved out of the publishing checker's\n\
     share. The race-detection row [fasttrack] carrying the largest checker\n\
     share on the Java-Grande-style workloads is the paper's \"slowdown\n\
     dominated by the race detector\".)\n";
  let wt =
    Table.create
      ~headers:
        [ ("benchmark", Table.Left); ("witness off (ms)", Table.Right);
          ("witness on (ms)", Table.Right); ("overhead", Table.Right) ]
  in
  List.iter
    (fun (name, _, _, _, (off, on)) ->
      Table.add_row wt
        [ name;
          Printf.sprintf "%.2f" (1000. *. off);
          Printf.sprintf "%.2f" (1000. *. on);
          Printf.sprintf "%+.1f%%" (100. *. ((on -. off) /. off)) ])
    measured;
  Table.print
    ~title:
      "Witness overhead: full pipeline with provenance capture off vs on"
    wt;
  print_endline
    "(off is the default hot path — the only cost the refactor may add is a\n\
     dead branch per access; on adds the per-variable witness side tables\n\
     and one record per race. Both runs include program execution.)\n";
  let path =
    match !json_out with Some p -> p | None -> "BENCH_profile.json"
  in
  let oc = open_out path in
  output_string oc (Json.to_string (profile_json measured));
  close_out oc;
  Printf.printf "(wrote %s)\n" path

(* ---------------------------------------------------------------------- *)
(* Figure 1: the reduction theorem, empirically                            *)
(* ---------------------------------------------------------------------- *)

let fig1 () =
  let t =
    Table.create
      ~headers:
        [ ("program", Table.Left); ("yields", Table.Right);
          ("preempt behav", Table.Right); ("coop behav", Table.Right);
          ("preempt states", Table.Right); ("coop states", Table.Right);
          ("equal", Table.Left) ]
  in
  Pool.map
    (fun (name, src) ->
      let prog = Compile.source src in
      let inf = Infer.infer prog in
      let v =
        Equivalence.compare ~yields:inf.Infer.yields ~max_states:400_000 prog
      in
      [ name;
        string_of_int (Coop_trace.Loc.Set.cardinal inf.Infer.yields);
        string_of_int
          (Behavior.Set.cardinal v.Equivalence.preemptive.Explore.behaviors);
        string_of_int
          (Behavior.Set.cardinal v.Equivalence.cooperative.Explore.behaviors);
        string_of_int v.Equivalence.preemptive.Explore.states;
        string_of_int v.Equivalence.cooperative.Explore.states;
        (if v.Equivalence.equal then "yes" else "NO") ])
    [
      ("racy_counter 2x2", Micro.racy_counter ~threads:2 ~incs:2);
      ("racy_counter 3x1", Micro.racy_counter ~threads:3 ~incs:1);
      ("locked_counter 2x2",
       Micro.locked_counter ~threads:2 ~incs:2 ~yield_at_loop:false);
      ("check_then_act 2", Micro.check_then_act ~threads:2);
      ("check_then_act 3", Micro.check_then_act ~threads:3);
      ("single_transaction 3", Micro.single_transaction ~threads:3);
      ("producer_consumer 2", Micro.producer_consumer ~items:2);
    ]
  |> List.iter (Table.add_row t);
  Table.print
    ~title:
      "Figure 1: behaviour sets under preemptive vs cooperative scheduling \
       (with inferred yields)"
    t;
  print_endline
    "(equal=yes on every row is the reduction theorem; cooperative state\n\
     counts are 1-2 orders of magnitude smaller — the payoff of reasoning\n\
     at yield granularity.)\n"

(* ---------------------------------------------------------------------- *)
(* Figure 2: analysis cost scales linearly in trace length                 *)
(* ---------------------------------------------------------------------- *)

let fig2 () =
  let t =
    Table.create
      ~headers:
        [ ("workload", Table.Left); ("size", Table.Right);
          ("events", Table.Right); ("check (ms)", Table.Right);
          ("us/event", Table.Right) ]
  in
  let points =
    List.concat_map
      (fun (name, sizes) -> List.map (fun size -> (name, size)) sizes)
      [ ("montecarlo", [ 5; 10; 20; 40; 80 ]); ("sor", [ 3; 6; 12; 24 ]) ]
  in
  Pool.map
    (fun (name, size) ->
      let e = Option.get (Registry.find name) in
      let prog = Registry.program_of ~size e in
      let _, trace = Runner.record ~sched:(Sched.random ~seed:5 ()) prog in
      let n = Coop_trace.Trace.length trace in
      let dt = time_median (fun () -> Cooperability.check trace) in
      [ name; string_of_int size; string_of_int n; ms dt;
        Printf.sprintf "%.2f" (1e6 *. dt /. float_of_int (max n 1)) ])
    points
  |> List.iter (Table.add_row t);
  Table.print ~title:"Figure 2: cooperability-check cost vs trace length" t;
  print_endline
    "(us/event staying flat as traces grow ~16x = the analysis is linear,\n\
     dominated by the FastTrack pass, matching the paper's overhead story.)\n"

(* ---------------------------------------------------------------------- *)
(* Figure 3: warning counts — atomicity >> cooperability                   *)
(* ---------------------------------------------------------------------- *)

let fig3 () =
  print_endline "Figure 3: residual warnings after annotation";
  print_endline "============================================";
  print_endline
    "For each benchmark: warnings before annotation, annotations added\n\
     (yields for cooperability; atomicity has no corresponding annotation),\n\
     and warnings remaining afterwards.";
  print_newline ();
  let bar n = String.make (min 60 n) '#' in
  Pool.map
    (fun r ->
      let coop_before =
        Coop_trace.Loc.Set.cardinal
          (Cooperability.violation_locs r.coop0.Cooperability.violations)
      in
      let yields = Coop_trace.Loc.Set.cardinal r.infer.Infer.yields in
      (* Re-check an annotated run: the fixpoint property says zero. *)
      let coop_after =
        List.length (Cooperability.check r.trace).Cooperability.violations
      in
      let atom_sites =
        List.fold_left
          (fun s (w : Coop_atomicity.Atomizer.warning) ->
            Coop_trace.Loc.Set.add w.Coop_atomicity.Atomizer.loc s)
          Coop_trace.Loc.Set.empty r.atom.Coop_atomicity.Atomizer.warnings
        |> Coop_trace.Loc.Set.cardinal
      in
      (* Atomicity ignores yields, so its warnings persist verbatim. *)
      let atom_after =
        List.fold_left
          (fun s (w : Coop_atomicity.Atomizer.warning) ->
            Coop_trace.Loc.Set.add w.Coop_atomicity.Atomizer.loc s)
          Coop_trace.Loc.Set.empty
          (atomize r.trace).Coop_atomicity.Atomizer.warnings
        |> Coop_trace.Loc.Set.cardinal
      in
      Printf.sprintf "%-12s coop: %d sites + %d yields -> %d left  %s\n%-12s atom: %d sites + no fix   -> %d left  %s"
        r.entry.Registry.name coop_before yields coop_after
        (bar (coop_after * 6)) "" atom_sites atom_after (bar (atom_after * 6)))
    (Lazy.force rows)
  |> List.iter print_endline;
  print_endline
    "\n(the asymmetry the paper reports: every cooperability warning is\n\
     discharged by a handful of yield annotations, while atomicity warnings\n\
     are irreducible — the flagged loops and multi-lock functions genuinely\n\
     are not atomic, yet the programs are perfectly correct.)\n"

(* ---------------------------------------------------------------------- *)
(* Ablations: design choices DESIGN.md calls out                           *)
(* ---------------------------------------------------------------------- *)

(* Ablation A: race-detector substrate. The mover classification depends on
   which accesses are racy; swapping FastTrack for an Eraser-style lockset
   detector inflates the racy set and with it the violation count. *)
let ablation_substrate () =
  let t =
    Table.create
      ~headers:
        [ ("benchmark", Table.Left); ("FT racy vars", Table.Right);
          ("LS racy vars", Table.Right); ("FT warn sites", Table.Right);
          ("LS warn sites", Table.Right) ]
  in
  Pool.map
    (fun r ->
      let _, trace = Runner.record ~sched:(Sched.random ~seed:5 ()) r.prog in
      let ft = Coop_race.Fasttrack.racy_vars_of_trace trace in
      let ls = Coop_race.Lockset.racy_vars_of_trace trace in
      let local_locks = Cooperability.local_locks_of trace in
      let sites racy =
        Coop_trace.Analysis.run (Automaton.analysis ~local_locks ~racy ()) trace
        |> Cooperability.violation_locs |> Coop_trace.Loc.Set.cardinal
      in
      [ r.entry.Registry.name;
        string_of_int (Coop_trace.Event.Var_set.cardinal ft);
        string_of_int (Coop_trace.Event.Var_set.cardinal ls);
        string_of_int (sites ft); string_of_int (sites ls) ])
    (Lazy.force rows)
  |> List.iter (Table.add_row t);
  Table.print
    ~title:
      "Ablation A: FastTrack (FT) vs Eraser-lockset (LS) as the race \
       substrate"
    t;
  print_endline
    "(lockset coarseness — fork/join ordering is invisible to it — inflates\n\
     the racy set and the warning sites; precise happens-before detection\n\
     is what keeps cooperability's annotation burden low.)\n"

(* Ablation B: the thread-local-lock refinement. *)
let ablation_local_locks () =
  let t =
    Table.create
      ~headers:
        [ ("program", Table.Left); ("warn sites with", Table.Right);
          ("warn sites without", Table.Right) ]
  in
  (* A program where the refinement bites: main logs under its own lock
     (never contended) while workers synchronize on another. Without the
     refinement every log region is an R..L transaction and main's logging
     loop violates; with it the log lock's operations are both movers. *)
  let main_local_lock =
    "var x = 0; var logged = 0; lock m; lock log_lock; array tids[2];\n\
     fn w(n) { var i = 0; while (i < n) { yield; sync (m) { x = x + 1; } i = i + 1; } }\n\
     fn main() { var i = 0; while (i < 2) { tids[i] = spawn w(3); i = i + 1; }\n\
     i = 0; while (i < 4) { sync (log_lock) { logged = logged + 1; } i = i + 1; }\n\
     i = 0; while (i < 2) { join tids[i]; i = i + 1; } print(x); print(logged); }"
  in
  let programs =
    (("main_local_lock", Compile.source main_local_lock)
    :: List.map
         (fun (name, src) -> (name, Compile.source src))
         Coop_workloads.Micro.all)
    @ List.map
        (fun r -> (r.entry.Registry.name, r.prog))
        (Lazy.force rows)
  in
  Pool.map
    (fun (name, prog) ->
      let _, trace = Runner.record ~sched:(Sched.random ~seed:5 ()) prog in
      let racy = Coop_race.Fasttrack.racy_vars_of_trace trace in
      let sites ?local_locks () =
        Coop_trace.Analysis.run (Automaton.analysis ?local_locks ~racy ()) trace
        |> Cooperability.violation_locs |> Coop_trace.Loc.Set.cardinal
      in
      (* Without the refinement every lock is shared. *)
      let with_ = sites ~local_locks:(Cooperability.local_locks_of trace) () in
      let without = sites () in
      [ name; string_of_int with_; string_of_int without ])
    programs
  |> List.iter (Table.add_row t);
  Table.print
    ~title:"Ablation B: thread-local-lock refinement on vs off"
    t

(* Ablation C: schedule-portfolio composition for yield inference. *)
let ablation_portfolio () =
  let t =
    Table.create
      ~headers:
        [ ("benchmark", Table.Left); ("portfolio", Table.Left);
          ("yields", Table.Right); ("residual", Table.Right) ]
  in
  let portfolios =
    [ ("1 random", [ (fun () -> Sched.random ~seed:11 ()) ]);
      ("5 random",
       List.init 5 (fun i () -> Sched.random ~seed:(11 + (17 * i)) ()));
      ("rr only",
       [ (fun () -> Sched.round_robin ~quantum:1 ());
         (fun () -> Sched.round_robin ~quantum:3 ());
         (fun () -> Sched.round_robin ~quantum:17 ()) ]);
      ("pct only",
       [ (fun () -> Sched.pct ~seed:7 ~depth:3 ~change_span:5000 ());
         (fun () -> Sched.pct ~seed:77 ~depth:5 ~change_span:5000 ()) ]);
      ("full", Infer.default_portfolio) ]
  in
  let grid =
    List.concat_map
      (fun name -> List.map (fun p -> (name, p)) portfolios)
      (List.filter keep [ "raytracer"; "philo"; "queue"; "tsp" ])
  in
  Pool.map
    (fun (name, (pname, portfolio)) ->
      let e = Option.get (Registry.find name) in
      let prog = Registry.program_of e in
      let inf = Infer.infer ~portfolio prog in
      (* Residual: violations that the FULL portfolio still finds given
         this portfolio's yields — schedules the cheap portfolio missed. *)
      let residual = ref 0 in
      List.iter
        (fun mk ->
          let _, trace =
            Runner.record ~yields:inf.Infer.yields ~sched:(mk ()) prog
          in
          residual :=
            !residual
            + List.length (Cooperability.check trace).Cooperability.violations)
        Infer.default_portfolio;
      [ name; pname;
        string_of_int (Coop_trace.Loc.Set.cardinal inf.Infer.yields);
        string_of_int !residual ])
    grid
  |> List.iter (Table.add_row t);
  Table.print
    ~title:
      "Ablation C: inference portfolio composition (residual = violations a \
       fuller portfolio still finds)"
    t

(* Ablation D: static vs dynamic analysis. *)
let ablation_static () =
  let t =
    Table.create
      ~headers:
        [ ("benchmark", Table.Left); ("static racy regions", Table.Right);
          ("static yields", Table.Right); ("dynamic yields", Table.Right);
          ("dyn ⊆ static", Table.Left) ]
  in
  Pool.map
    (fun r ->
      let s = Coop_static.Check.infer r.prog in
      let subset =
        Coop_trace.Loc.Set.subset r.infer.Infer.yields
          s.Coop_static.Check.yields
      in
      [ r.entry.Registry.name;
        string_of_int
          (List.length s.Coop_static.Check.races.Coop_static.Races.racy);
        string_of_int (Coop_trace.Loc.Set.cardinal s.Coop_static.Check.yields);
        string_of_int (Coop_trace.Loc.Set.cardinal r.infer.Infer.yields);
        (if subset then "yes" else "no") ])
    (Lazy.force rows)
  |> List.iter (Table.add_row t);
  Table.print
    ~title:"Ablation D: purely static analysis vs the dynamic checker"
    t;
  print_endline
    "(whole-array regions, path joins and invisible join-ordering make the\n\
     static checker demand several times more yields — the imprecision that\n\
     motivates the paper's choice of a dynamic analysis.)\n"

(* Ablation E: explorer granularity — what the visible-only reduction
   saves. *)
let ablation_explore () =
  let t =
    Table.create
      ~headers:
        [ ("program", Table.Left); ("per-instr states", Table.Right);
          ("visible-only states", Table.Right); ("DPOR executions", Table.Right);
          ("same behaviours", Table.Left) ]
  in
  Pool.map
    (fun (name, src) ->
      let prog = Compile.source src in
      let fine =
        Explore.run ~max_states:800_000
          ~granularity:Explore.Every_instruction Explore.Preemptive prog
      in
      let coarse =
        Explore.run ~max_states:800_000 ~granularity:Explore.Visible_only
          Explore.Preemptive prog
      in
      let dpor = Dpor.run ~max_executions:400_000 prog in
      let agree =
        Behavior.Set.equal fine.Explore.behaviors coarse.Explore.behaviors
        && Behavior.Set.equal fine.Explore.behaviors dpor.Dpor.behaviors
      in
      [ name; string_of_int fine.Explore.states;
        string_of_int coarse.Explore.states;
        string_of_int dpor.Dpor.executions;
        (if agree then "yes" else "NO") ])
    [ ("racy_counter 2x2", Coop_workloads.Micro.racy_counter ~threads:2 ~incs:2);
      ("check_then_act 2", Coop_workloads.Micro.check_then_act ~threads:2);
      ("single_transaction 2", Coop_workloads.Micro.single_transaction ~threads:2);
      ("single_transaction 3", Coop_workloads.Micro.single_transaction ~threads:3) ]
  |> List.iter (Table.add_row t);
  Table.print
    ~title:
      "Ablation E: schedule-space reduction (stateful visible-only DFS vs \
       per-instruction DFS vs stateless sleep-set DPOR)"
    t

(* Ablation F: deadlock prediction across the suite (the reduction
   theorem's precondition). *)
let ablation_deadlock () =
  let t =
    Table.create
      ~headers:
        [ ("program", Table.Left); ("lock-order edges", Table.Right);
          ("cycles", Table.Right) ]
  in
  let programs =
    List.map (fun r -> (r.entry.Registry.name, r.prog)) (Lazy.force rows)
    @ [ ("deadlock_prone", Compile.source (Coop_workloads.Micro.deadlock_prone ())) ]
  in
  Pool.map
    (fun (name, prog) ->
      (* Use a completing run when one exists so both edges show. *)
      let rec find_trace seed =
        if seed > 40 then snd (Runner.record ~sched:(Sched.random ~seed:0 ()) prog)
        else begin
          let o, trace =
            Runner.record ~max_steps:3_000_000 ~sched:(Sched.random ~seed ()) prog
          in
          if o.Runner.termination = Runner.Completed then trace
          else find_trace (seed + 1)
        end
      in
      let r = Deadlock.analyze (find_trace 0) in
      [ name; string_of_int (List.length r.Deadlock.edges);
        string_of_int (List.length r.Deadlock.cycles) ])
    programs
  |> List.iter (Table.add_row t);
  Table.print
    ~title:
      "Ablation F: Goodlock-style deadlock prediction (zero cycles = the \
       reduction theorem's precondition holds)"
    t

let ablations () =
  ablation_substrate ();
  ablation_local_locks ();
  ablation_portfolio ();
  ablation_static ();
  ablation_explore ();
  ablation_deadlock ()

(* ---------------------------------------------------------------------- *)
(* Bechamel micro-benchmarks: one Test.make per table/figure               *)
(* ---------------------------------------------------------------------- *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  (* Pre-build the inputs outside the timed thunks. Deliberately NOT
     parallelized: bechamel owns its own measurement loop and wants a quiet
     machine. *)
  let philo = Registry.program_of (Option.get (Registry.find "philo")) in
  let _, philo_trace =
    Runner.record ~sched:(Sched.random ~seed:5 ()) philo
  in
  let racy2 = Compile.source (Micro.racy_counter ~threads:2 ~incs:2) in
  let tests =
    [
      (* Table 1: raw execution. *)
      Test.make ~name:"table1/vm-run-philo"
        (Staged.stage (fun () ->
             Runner.run ~sched:(Sched.random ~seed:5 ())
               ~sink:Coop_trace.Trace.Sink.ignore philo));
      (* Table 2: inference building block — one checker pass. *)
      Test.make ~name:"table2/cooperability-check"
        (Staged.stage (fun () -> Cooperability.check philo_trace));
      (* Table 3: the race-detector pass in isolation. *)
      Test.make ~name:"table3/fasttrack-pass"
        (Staged.stage (fun () -> Coop_race.Fasttrack.run philo_trace));
      (* Table 2/3 baseline: the pipeline with the atomizer on. *)
      Test.make ~name:"table2/atomizer-pass"
        (Staged.stage (fun () -> atomize philo_trace));
      (* Figure 1: exhaustive exploration of a small program. *)
      Test.make ~name:"fig1/explore-preemptive"
        (Staged.stage (fun () ->
             Explore.run ~max_states:50_000 Explore.Preemptive racy2));
      Test.make ~name:"fig1/explore-cooperative"
        (Staged.stage (fun () ->
             Explore.run ~max_states:50_000 Explore.Cooperative racy2));
      (* Figure 2: the automaton pass alone (no race detection). *)
      Test.make ~name:"fig2/automaton-pass"
        (Staged.stage (fun () ->
             Coop_trace.Analysis.run
               (Automaton.analysis ~racy:Coop_trace.Event.Var_set.empty ())
               philo_trace));
    ]
  in
  let benchmark test =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
    in
    let instances = Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.8) ~kde:(Some 1000) ()
    in
    let raw = Benchmark.all cfg instances test in
    let results = Analyze.all ols Instance.monotonic_clock raw in
    results
  in
  let t =
    Table.create
      ~headers:[ ("micro-benchmark", Table.Left); ("time/run", Table.Right) ]
  in
  List.iter
    (fun test ->
      let results = benchmark test in
      Hashtbl.iter
        (fun name ols ->
          let estimate =
            match Analyze.OLS.estimates ols with
            | Some (e :: _) -> Printf.sprintf "%.0f ns" e
            | _ -> "n/a"
          in
          Table.add_row t [ name; estimate ])
        results)
    tests;
  Table.print ~title:"Bechamel micro-benchmarks" t

(* ---------------------------------------------------------------------- *)
(* Vector-clock microbenchmark: flat arrays vs the persistent map oracle   *)
(* ---------------------------------------------------------------------- *)

(* The detector's three hot loops, isolated per representation: ticks
   (release/fork), the acquire/release join-copy dance against a lock
   clock, and epoch/clock leq probes (every read and write). Thread
   counts bracket the suite's real spread (2) through a pathological
   wide run (64). Writes BENCH_vclock.json (or --json PATH), shaped for
   json-verify. *)
let vclock () =
  let module V = Coop_race.Vclock in
  let module P = Coop_race.Vclock.Persistent in
  let module E = Coop_race.Epoch in
  let ops = 200_000 in
  let flat_clocks t =
    Array.init t (fun i ->
        let c = V.create ~capacity:t () in
        V.set c i 1;
        c)
  in
  let pers_clocks t = Array.init t (fun i -> P.set P.empty i 1) in
  let flat mix t () =
    match mix with
    | "tick" ->
        let cs = flat_clocks t in
        for i = 0 to ops - 1 do
          V.tick_in_place cs.(i mod t) (i mod t)
        done
    | "join" ->
        let cs = flat_clocks t in
        let lock = V.create ~capacity:t () in
        for i = 0 to ops - 1 do
          let tid = i mod t in
          let c = cs.(tid) in
          V.join_into ~into:c lock;
          V.copy_into ~into:lock c;
          V.tick_in_place c tid
        done
    | _ ->
        let cs = flat_clocks t in
        let hits = ref 0 in
        for i = 0 to ops - 1 do
          let tid = i mod t in
          let c = cs.(tid) in
          if E.leq (E.make ~tid ~clock:1) c then incr hits;
          if V.leq c cs.((tid + 1) mod t) then incr hits;
          V.tick_in_place c tid
        done;
        ignore (Sys.opaque_identity !hits)
  in
  let pers mix t () =
    match mix with
    | "tick" ->
        let cs = pers_clocks t in
        for i = 0 to ops - 1 do
          let tid = i mod t in
          cs.(tid) <- P.tick cs.(tid) tid
        done
    | "join" ->
        let cs = pers_clocks t in
        let lock = ref P.empty in
        for i = 0 to ops - 1 do
          let tid = i mod t in
          cs.(tid) <- P.join cs.(tid) !lock;
          lock := cs.(tid);
          cs.(tid) <- P.tick cs.(tid) tid
        done
    | _ ->
        let cs = pers_clocks t in
        let hits = ref 0 in
        for i = 0 to ops - 1 do
          let tid = i mod t in
          if 1 <= P.get cs.(tid) tid then incr hits;
          if P.leq cs.(tid) cs.((tid + 1) mod t) then incr hits;
          cs.(tid) <- P.tick cs.(tid) tid
        done;
        ignore (Sys.opaque_identity !hits)
  in
  let cases =
    List.concat_map
      (fun mix ->
        List.concat_map
          (fun t ->
            [ ("flat", mix, t, flat mix t); ("persistent", mix, t, pers mix t) ])
          [ 2; 8; 64 ])
      [ "tick"; "join"; "leq" ]
  in
  let table =
    Table.create
      ~headers:
        [ ("mix", Table.Left); ("threads", Table.Right);
          ("flat Mops/s", Table.Right); ("persistent Mops/s", Table.Right);
          ("speedup", Table.Right) ]
  in
  let measured =
    List.map
      (fun (impl, mix, t, f) ->
        let s = time_median ~reps:3 f in
        (impl, mix, t, s, float_of_int ops /. 1e6 /. s))
      cases
  in
  let find impl mix t =
    List.find_map
      (fun (i, m, th, _, mops) ->
        if i = impl && m = mix && th = t then Some mops else None)
      measured
    |> Option.get
  in
  List.iter
    (fun mix ->
      List.iter
        (fun t ->
          let f = find "flat" mix t and p = find "persistent" mix t in
          Table.add_row table
            [ mix; string_of_int t; Printf.sprintf "%.1f" f;
              Printf.sprintf "%.1f" p; Printf.sprintf "%.1fx" (f /. p) ])
        [ 2; 8; 64 ])
    [ "tick"; "join"; "leq" ];
  Table.print
    ~title:"Vector-clock microbenchmark: flat in-place vs persistent map"
    table;
  let json =
    Json.Obj
      [ ("experiment", Json.String "vclock");
        ("ops_per_case", Json.Int ops);
        ("cases",
         Json.List
           (List.map
              (fun (impl, mix, t, s, mops) ->
                Json.Obj
                  [ ("impl", Json.String impl); ("mix", Json.String mix);
                    ("threads", Json.Int t); ("ops", Json.Int ops);
                    ("seconds", Json.Float s); ("mops_s", Json.Float mops) ])
              measured)) ]
  in
  let path = match !json_out with Some p -> p | None -> "BENCH_vclock.json" in
  let oc = open_out path in
  output_string oc (Json.to_string json);
  close_out oc;
  Printf.printf "(wrote %s)\n" path

(* ---------------------------------------------------------------------- *)
(* Allocation-budget smoke: fail CI when the hot path regresses            *)
(* ---------------------------------------------------------------------- *)

(* Budget for the full single-pass pipeline, in minor words per event on
   the montecarlo workload (seed 5, size 40, atomizer on — long enough
   that per-event steady state dominates per-run setup). The figure
   covers VM execution plus every checker. Measured 2.6 words/event
   (deterministic for this seed) once the VM took its event payloads
   from per-program tables and reused call frames, down from 12.6 with
   per-run tables and a fresh frame per call, 42.6 before the online
   engine kept flat per-thread logs, ~127 with a scheduler context
   record per step and ~1,800 with the persistent VM. The bound carries
   ~2x headroom so GC noise never trips it. *)
let alloc_budget_minor_words_per_event = 5.

(* The same pipeline over an in-memory recording of crypt at 160 (random
   scheduler, seed 1): no VM, so the figure is the analysis stack alone,
   and crypt registers a fresh variable with the online engine on almost
   every event — load the montecarlo run above barely puts on it.
   Measured 0.9 words/event with FastTrack's variable state in flat
   columns (10.9 with a boxed read epoch per read and a closure per
   access, 23.7 with per-transaction digest arrays and hash tables); the
   bound is ~2x. *)
let alloc_budget_replay_words_per_event = 2.

(* A violation-heavy verdict: the pipeline over an in-memory recording of
   queue at 48 (random scheduler, seed 1; 3,074 violations in 27,825
   events), plus rendering every violation's location as the perfbench
   oracle and the CLI's JSON do. Measured 4.0 words/event with one
   engine-built record per violation and the digit-writing
   [Loc.to_string]; the [Format] renderer alone brings it to 47.0, and
   with a record rebuilt per violation and a boxed read epoch as well it
   read 51.5. The bound is ~2x. *)
let alloc_budget_verdict_words_per_event = 8.

(* Exhaustive DPOR (default store) on philo at 3 threads, size 1, and on
   bank at 2 threads, size 2 — two of the perfbench dpor inputs — in
   minor words per transition. With frame-held checkpoints, flat frames
   and bitset thread sets a novel transition allocates nothing; what is
   left is per execution (the behaviour and its set node), per fetch
   (frames a recycled state lacks) and the VM's own calls and spawns.
   Measured 6.6 (philo) and 7.5 (bank), against 117.5 and 114.8 with
   keyed checkpoints and boxed frames; the bound is ~2x the larger. *)
let alloc_budget_dpor_words_per_step = 15.

(* The VM alone — [Runner.run] into an ignoring sink — in minor words
   per step, on montecarlo at 40 (a call per random draw) and bank at 40
   (two functions called in turn at one depth, lock blocking, and a
   runnable set that changes on every acquire and release), under one
   scheduler of each family that skips credited draws its own way:
   random (seed 5), round-robin, PCT and cooperative. With the
   payload and location tables built once per program, frames reused by
   calls at the same depth and shared parked statuses, what remains is
   per run — the state, the spawned threads and their first frames:
   measured 0.002 (montecarlo) and 0.049 (bank), against 0.44 on bank
   when only a call of the same function reused a frame. The bound is
   ~2x the larger. *)
let alloc_budget_vm_words_per_step = 0.1

let alloc_smoke () =
  let check ?(per = "event") what events minor_w majors budget =
    let per_event = minor_w /. float_of_int (max 1 events) in
    Printf.printf
      "alloc-smoke: %s %d %ss, %.3f minor words/%s (budget %.2f), \
       %d major collections\n"
      what events per per_event per budget majors;
    if per_event > budget then begin
      Printf.eprintf
        "alloc-smoke: FAIL — %s: %.3f minor words/%s exceeds the %.2f \
         budget\n"
        what per_event per budget;
      exit 1
    end
  in
  let e = Option.get (Registry.find "montecarlo") in
  let prog = Registry.program_of ~size:40 e in
  let source =
    Runner.source ~sched:(fun () -> Sched.random ~seed:5 ()) prog
  in
  (* Warm one run so checker tables exist, then sample. *)
  ignore (Coop_pipeline.run ~atomize:true source);
  let r, minor_w, majors =
    alloc_sample (fun () -> Coop_pipeline.run ~atomize:true source)
  in
  check "montecarlo" r.Coop_pipeline.events minor_w majors
    alloc_budget_minor_words_per_event;
  List.iter
    (fun name ->
      let prog = Registry.program_of ~size:40 (Option.get (Registry.find name)) in
      List.iter
        (fun sched ->
          let run () =
            Runner.run ~sched:(sched ()) ~sink:Coop_trace.Trace.Sink.ignore prog
          in
          ignore (run ());
          let o, minor_w, majors = alloc_sample run in
          check ~per:"step"
            (Printf.sprintf "vm %s %s" name (sched ()).Sched.name)
            o.Runner.steps minor_w majors alloc_budget_vm_words_per_step)
        [ (fun () -> Sched.random ~seed:5 ());
          (fun () -> Sched.round_robin ~quantum:3 ());
          (fun () -> Sched.pct ~seed:7 ~depth:3 ~change_span:5_000 ());
          Sched.cooperative ])
    [ "montecarlo"; "bank" ];
  let crypt = Registry.program_of ~size:160 (Option.get (Registry.find "crypt")) in
  let _, tr = Runner.record ~sched:(Sched.random ~seed:1 ()) crypt in
  ignore (Coop_pipeline.run (Coop_trace.Source.of_trace tr));
  let r, minor_w, majors =
    alloc_sample (fun () -> Coop_pipeline.run (Coop_trace.Source.of_trace tr))
  in
  check "crypt replay" r.Coop_pipeline.events minor_w majors
    alloc_budget_replay_words_per_event;
  let queue = Registry.program_of ~size:48 (Option.get (Registry.find "queue")) in
  let _, tr = Runner.record ~sched:(Sched.random ~seed:1 ()) queue in
  let verdict () =
    let r = Coop_pipeline.run (Coop_trace.Source.of_trace tr) in
    List.iter
      (fun (v : Coop_core.Automaton.violation) ->
        ignore (Sys.opaque_identity (Coop_trace.Loc.to_string v.loc)))
      r.Coop_pipeline.violations;
    r
  in
  ignore (verdict ());
  let r, minor_w, majors = alloc_sample verdict in
  check "queue replay + rendering" r.Coop_pipeline.events minor_w majors
    alloc_budget_verdict_words_per_event;
  List.iter
    (fun (name, threads, size) ->
      let prog =
        Registry.program_of ~threads ~size (Option.get (Registry.find name))
      in
      ignore (Dpor.run prog);
      let r, minor_w, majors = alloc_sample (fun () -> Dpor.run prog) in
      check ~per:"transition"
        (Printf.sprintf "dpor %s t%d s%d" name threads size)
        r.Dpor.steps minor_w majors alloc_budget_dpor_words_per_step)
    [ ("philo", 3, 1); ("bank", 2, 2) ];
  print_endline "alloc-smoke: ok"

(* ---------------------------------------------------------------------- *)
(* Codec throughput: text lines vs coop-trace/v1 binary                    *)
(* ---------------------------------------------------------------------- *)

(* Both serializations of the same recorded trace (32x size, as in
   table 3, so the streams are long enough for steady-state rates),
   encode and decode timed separately on in-memory strings — pure codec
   cost, no disk, no analysis. Decode feeds the ignore sink, i.e. the
   number reported is exactly the parse share a streaming `check
   --trace` pays before its checkers see an event. Writes
   BENCH_codec.json (or --json PATH), shaped for json-verify, which
   also enforces the format's two contracts: binary no more than half
   the bytes per event, decode at least 5x the text parse rate. *)
let codec_bench () =
  let module Ser = Coop_trace.Serialize in
  let module Codec = Coop_trace.Codec in
  (* The small streams decode in tens of microseconds, where one stray
     minor-GC pause triples a single-call sample; batching calls until a
     sample spans ~10ms spreads pauses over every sample instead. *)
  let batched f =
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    let once = Unix.gettimeofday () -. t0 in
    let k = max 1 (int_of_float (0.01 /. Float.max 1e-6 once)) in
    fun () ->
      let t0 = Unix.gettimeofday () in
      for _ = 1 to k do
        ignore (Sys.opaque_identity (f ()))
      done;
      (Unix.gettimeofday () -. t0) /. float_of_int k
  in
  let timed f =
    let sample = batched f in
    Stats.median (Array.init 5 (fun _ -> sample ()))
  in
  let measure (e : Registry.entry) =
    let prog = Registry.program_of ~size:(32 * e.Registry.default_size) e in
    let _, trace = Runner.record ~sched:(Sched.random ~seed:5 ()) prog in
    let events = Coop_trace.Trace.length trace in
    let text = Ser.to_string trace in
    let bin = Codec.to_string trace in
    let sink = Coop_trace.Trace.Sink.ignore in
    let text_enc = timed (fun () -> Ser.to_string trace) in
    let bin_enc = timed (fun () -> Codec.to_string trace) in
    (* The headline number is the text/binary decode RATIO, so the two
       sides of each sample pair run back to back: the machine's clock
       and cache state drift over a run, and adjacent samples see the
       same conditions where widely separated ones do not. The reported
       speedup is the median of per-pair ratios, the rates are medians
       of their own samples. *)
    let sample_text = batched (fun () -> Ser.iter_string text sink) in
    let sample_bin = batched (fun () -> Codec.iter_string bin sink) in
    let pairs = Array.init 5 (fun _ -> (sample_text (), sample_bin ())) in
    let text_dec = Stats.median (Array.map fst pairs) in
    let bin_dec = Stats.median (Array.map snd pairs) in
    let speedup = Stats.median (Array.map (fun (td, bd) -> td /. bd) pairs) in
    let _, dec_minor, _ =
      alloc_sample (fun () -> Codec.iter_string bin sink)
    in
    let mev dt = float_of_int events /. 1e6 /. dt in
    let fev = float_of_int (max 1 events) in
    ( e.Registry.name, events,
      String.length text, String.length bin,
      mev text_enc, mev bin_enc, mev text_dec, mev bin_dec, speedup,
      dec_minor /. fev )
  in
  (* Deliberately sequential on the main domain: Pool workers drag every
     measurement through multi-domain stop-the-world barriers on each
     minor collection, halving both parse rates (the allocation-heavy
     text side most of all) and skewing the ratio. *)
  let measured = List.map measure (selected ()) in
  let table =
    Table.create
      ~headers:
        [ ("workload", Table.Left); ("events", Table.Right);
          ("text B/ev", Table.Right); ("bin B/ev", Table.Right);
          ("bytes", Table.Right);
          ("text parse Mev/s", Table.Right); ("bin decode Mev/s", Table.Right);
          ("decode", Table.Right); ("dec minor w/ev", Table.Right) ]
  in
  (* The headline suite aggregate: total events over total wall time per
     side, i.e. what a consumer replaying the whole corpus would see.
     Event-weighted, so the long steady-state streams dominate, as they
     do in any real capture. *)
  let tot f = List.fold_left (fun a m -> a +. f m) 0. measured in
  let agg_events =
    tot (fun (_, ev, _, _, _, _, _, _, _, _) -> float_of_int ev)
  in
  let agg_tb = tot (fun (_, _, tb, _, _, _, _, _, _, _) -> float_of_int tb) in
  let agg_bb = tot (fun (_, _, _, bb, _, _, _, _, _, _) -> float_of_int bb) in
  let agg_text_time =
    tot (fun (_, ev, _, _, _, _, tdec, _, _, _) ->
        float_of_int ev /. 1e6 /. tdec)
  in
  let agg_bin_time =
    tot (fun (_, ev, _, _, _, _, _, bdec, _, _) ->
        float_of_int ev /. 1e6 /. bdec)
  in
  let agg_tdec = agg_events /. 1e6 /. agg_text_time in
  let agg_bdec = agg_events /. 1e6 /. agg_bin_time in
  let agg_speedup = agg_text_time /. agg_bin_time in
  List.iter
    (fun (name, events, tb, bb, _, _, tdec, bdec, sp, wpe) ->
      let fev = float_of_int (max 1 events) in
      Table.add_row table
        [ name; string_of_int events;
          Printf.sprintf "%.1f" (float_of_int tb /. fev);
          Printf.sprintf "%.1f" (float_of_int bb /. fev);
          Printf.sprintf "%.2fx" (float_of_int bb /. float_of_int tb);
          Printf.sprintf "%.2f" tdec; Printf.sprintf "%.2f" bdec;
          Printf.sprintf "%.1fx" sp;
          Printf.sprintf "%.1f" wpe ])
    measured;
  Table.add_row table
    [ "suite"; Printf.sprintf "%.0f" agg_events;
      Printf.sprintf "%.1f" (agg_tb /. agg_events);
      Printf.sprintf "%.1f" (agg_bb /. agg_events);
      Printf.sprintf "%.2fx" (agg_bb /. agg_tb);
      Printf.sprintf "%.2f" agg_tdec; Printf.sprintf "%.2f" agg_bdec;
      Printf.sprintf "%.1fx" agg_speedup; "" ];
  Table.print ~title:"Codec throughput: text lines vs coop-trace/v1 binary"
    table;
  let json =
    Json.Obj
      [ ("experiment", Json.String "codec");
        ("jobs", Json.Int 1);
        ("workloads",
         Json.List
           (List.map
              (fun (name, events, tb, bb, tenc, benc, tdec, bdec, sp, wpe) ->
                let fev = float_of_int (max 1 events) in
                Json.Obj
                  [ ("name", Json.String name); ("events", Json.Int events);
                    ("text_bytes", Json.Int tb); ("bin_bytes", Json.Int bb);
                    ("text_bytes_per_event", Json.Float (float_of_int tb /. fev));
                    ("bin_bytes_per_event", Json.Float (float_of_int bb /. fev));
                    ("bytes_ratio",
                     Json.Float (float_of_int bb /. float_of_int tb));
                    ("text_encode_mev_s", Json.Float tenc);
                    ("bin_encode_mev_s", Json.Float benc);
                    ("text_parse_mev_s", Json.Float tdec);
                    ("bin_decode_mev_s", Json.Float bdec);
                    ("decode_speedup", Json.Float sp);
                    ("decode_minor_words_per_event", Json.Float wpe) ])
              measured));
        ("aggregate",
         Json.Obj
           [ ("events", Json.Int (int_of_float agg_events));
             ("bytes_ratio", Json.Float (agg_bb /. agg_tb));
             ("text_parse_mev_s", Json.Float agg_tdec);
             ("bin_decode_mev_s", Json.Float agg_bdec);
             ("decode_speedup", Json.Float agg_speedup) ]) ]
  in
  let path = match !json_out with Some p -> p | None -> "BENCH_codec.json" in
  let oc = open_out path in
  output_string oc (Json.to_string json);
  close_out oc;
  Printf.printf "(wrote %s)\n" path

(* ---------------------------------------------------------------------- *)
(* Pool microbenchmark: static shards vs per-leaf tasks                    *)
(* ---------------------------------------------------------------------- *)

(* Scheduler load-balancing probe: the same task tree executed on one
   pool (a) as [domains] statically pre-sharded chunk tasks and (b) as
   one task per leaf, fork-join spawned, so whichever domain is free
   takes the next leaf from the shared queue. Leaves are timed waits
   rather than CPU spins, so the measured wall-clock is a pure function
   of distribution quality — domains overlap sleeps the same way they
   would overlap real blocking work, independent of the host's core
   count. The balanced tree cannot be improved by finer tasks (equal
   chunks are already optimal), so its per-leaf-vs-static delta is the
   scheduler's overhead budget; the Zipf-sized tree front-loads its
   heavy leaves into the first static chunk, which per-leaf tasks
   re-balance. *)

let pool_leaves = 64
let pool_unit_s = 0.004

let pool_weights = function
  | "balanced" -> List.init pool_leaves (fun _ -> 1.0)
  | _ (* skewed *) ->
      (* Zipf(s=1) sizes, heaviest first: leaf i costs 8/(i+1) units. *)
      List.init pool_leaves (fun i -> 8.0 /. float_of_int (i + 1))

let pool_sleep w = Unix.sleepf (w *. pool_unit_s)

(* Contiguous split into [n] chunks — the static pre-sharding a
   parallel_map over pre-chunked inputs would do. *)
let pool_chunks n leaves =
  let arr = Array.of_list leaves in
  let len = Array.length arr in
  List.init n (fun k ->
      let lo = k * len / n and hi = (k + 1) * len / n in
      Array.to_list (Array.sub arr lo (hi - lo)))
  |> List.filter (fun c -> c <> [])

let pool_run_static pool domains leaves =
  let promises =
    List.map
      (fun chunk -> Pool.spawn pool (fun () -> List.iter pool_sleep chunk))
      (pool_chunks domains leaves)
  in
  List.iter (Pool.await pool) promises

let pool_run_per_leaf pool leaves =
  let arr = Array.of_list leaves in
  (* Fork-join over the leaf range: every leaf its own task, spawned
     from inside tasks, so idle domains take the un-started half-trees. *)
  let rec go lo hi =
    if hi - lo <= 1 then (if hi > lo then pool_sleep arr.(lo))
    else begin
      let mid = (lo + hi) / 2 in
      let right = Pool.spawn pool (fun () -> go mid hi) in
      go lo mid;
      Pool.await pool right
    end
  in
  go 0 (Array.length arr)

let pool_case shape impl domains =
  let pool = Pool.create ~jobs:domains () in
  let leaves = pool_weights shape in
  let t0 = Unix.gettimeofday () in
  (match impl with
  | "static" -> pool_run_static pool domains leaves
  | _ -> pool_run_per_leaf pool leaves);
  let seconds = Unix.gettimeofday () -. t0 in
  Pool.shutdown pool;
  seconds

let pool_bench () =
  let domains_list = [ 1; 2; 4; 8 ] in
  let shapes = [ "balanced"; "skewed" ] in
  let impls = [ "static"; "per-leaf" ] in
  (* Timing 8 domains on a machine with fewer cores measures the OS
     scheduler multiplexing oversubscribed domains, not the pool — a
     reliably flaky row. It is emitted as "skipped" instead. *)
  let measurable domains = domains <= Domain.recommended_domain_count () || domains < 8 in
  let results =
    List.concat_map
      (fun shape ->
        List.concat_map
          (fun domains ->
            List.map
              (fun impl ->
                let m =
                  if measurable domains then
                    Some (pool_case shape impl domains)
                  else None
                in
                (shape, impl, domains, m))
              impls)
          domains_list)
      shapes
  in
  let find shape impl domains =
    List.find_map
      (fun (s, i, d, m) ->
        if s = shape && i = impl && d = domains then Some m else None)
      results
    |> Option.get
  in
  let table =
    Table.create
      ~headers:
        [ ("tree", Table.Left); ("domains", Table.Right);
          ("static (ms)", Table.Right); ("per-leaf (ms)", Table.Right);
          ("speedup", Table.Right) ]
  in
  List.iter
    (fun shape ->
      List.iter
        (fun d ->
          match (find shape "static" d, find shape "per-leaf" d) with
          | Some st, Some pl ->
              Table.add_row table
                [ shape; string_of_int d; ms st; ms pl;
                  Printf.sprintf "%.2fx" (st /. pl) ]
          | _ ->
              Table.add_row table
                [ shape; string_of_int d; "skipped"; "skipped"; "-" ])
        domains_list)
    shapes;
  Table.print
    ~title:
      (Printf.sprintf
         "Pool microbenchmark: static shards vs per-leaf tasks (%d timed-wait \
          leaves, unit %.1f ms)"
         pool_leaves (1000. *. pool_unit_s))
    table;
  let skewed_speedup_8 =
    match (find "skewed" "static" 8, find "skewed" "per-leaf" 8) with
    | Some st, Some pl -> Some (st /. pl)
    | _ -> None
  in
  let balanced_overhead_8 =
    match (find "balanced" "static" 8, find "balanced" "per-leaf" 8) with
    | Some st, Some pl -> Some ((pl /. st) -. 1.)
    | _ -> None
  in
  (match (skewed_speedup_8, balanced_overhead_8) with
  | Some sp, Some ov ->
      Printf.printf
        "pool: skewed speedup at 8 domains %.2fx, balanced overhead %+.1f%%\n"
        sp (100. *. ov)
  | _ ->
      Printf.printf
        "pool: 8-domain rows skipped (machine recommends %d domain(s))\n"
        (Domain.recommended_domain_count ()));
  let json =
    Json.Obj
      [ ("experiment", Json.String "pool");
        ("leaves", Json.Int pool_leaves);
        ("unit_ms", Json.Float (1000. *. pool_unit_s));
        ("cases",
         Json.List
           (List.map
              (fun (shape, impl, domains, m) ->
                Json.Obj
                  ([ ("shape", Json.String shape);
                     ("impl", Json.String impl);
                     ("domains", Json.Int domains);
                     ("tasks",
                      Json.Int
                        (if impl = "per-leaf" then pool_leaves
                         else min domains pool_leaves));
                     ("seconds",
                      match m with
                      | Some seconds -> Json.Float seconds
                      | None -> Json.String "skipped") ]))
              results));
        ("summary",
         Json.Obj
           (let opt = function
              | Some v -> Json.Float v
              | None -> Json.String "skipped"
            in
            [ ("skewed_speedup_8", opt skewed_speedup_8);
              ("balanced_overhead_8", opt balanced_overhead_8) ])) ]
  in
  let path = match !json_out with Some p -> p | None -> "BENCH_pool.json" in
  let oc = open_out path in
  output_string oc (Json.to_string json);
  close_out oc;
  Printf.printf "(wrote %s)\n" path

(* ---------------------------------------------------------------------- *)
(* replay: checkpointed prefix resumption vs the stateless oracles         *)
(* ---------------------------------------------------------------------- *)

(* Replay elision on the exploration/inference layer: DPOR with the
   checkpoint store against the stateless `~no_cache:true` oracle
   (identical behaviour sets, executions and novel steps; only the
   prefix re-derivation work differs), plus the infer portfolio's shared
   pre-divergence prefix against its stateless pass. Both engines run at
   their default budgets. Writes BENCH_replay.json
   (schema coop-replay/v1), shaped for json-verify, which re-asserts the
   headline gates: suite-median total-steps reduction >= 3x and
   wall-clock speedup >= 1.5x for DPOR, every row cross-checked against
   its oracle. *)

let replay_dpor_cases () =
  let micro name src = (name, Compile.source src) in
  let registry name ~threads ~size =
    let e = Option.get (Registry.find name) in
    ( Printf.sprintf "%s(t%d s%d)" name threads size,
      Compile.source (e.Registry.source ~threads ~size) )
  in
  [ micro "racy_counter(2x2)" (Micro.racy_counter ~threads:2 ~incs:2);
    micro "racy_counter(3x1)" (Micro.racy_counter ~threads:3 ~incs:1);
    micro "locked_counter(2x3)"
      (Micro.locked_counter ~threads:2 ~incs:3 ~yield_at_loop:false);
    micro "check_then_act(2)" (Micro.check_then_act ~threads:2);
    micro "single_transaction(3)" (Micro.single_transaction ~threads:3);
    registry "bank" ~threads:2 ~size:2 ]

let replay_infer_cases () =
  let entry name ~threads ~size =
    let e = Option.get (Registry.find name) in
    ( Printf.sprintf "%s(t%d s%d)" name threads size,
      Compile.source (e.Registry.source ~threads ~size) )
  in
  [ entry "bank" ~threads:2 ~size:2; entry "philo" ~threads:2 ~size:2 ]

let replay_bench () =
  let median_of xs =
    let a = Array.of_list xs in
    Stats.median a
  in
  let dpor_rows =
    List.map
      (fun (name, prog) ->
        let cached = Dpor.run prog in
        let stateless = Dpor.run ~no_cache:true prog in
        let cached_s = time_median ~reps:3 (fun () -> Dpor.run prog) in
        let stateless_s =
          time_median ~reps:3 (fun () -> Dpor.run ~no_cache:true prog)
        in
        (* The oracle contract: the store only changes how prefix states
           are re-derived, never what is explored. *)
        let verified =
          cached.Dpor.complete && stateless.Dpor.complete
          && Behavior.Set.equal cached.Dpor.behaviors
               stateless.Dpor.behaviors
          && cached.Dpor.executions = stateless.Dpor.executions
          && cached.Dpor.novel_steps = stateless.Dpor.novel_steps
        in
        let reduction =
          float_of_int stateless.Dpor.steps /. float_of_int cached.Dpor.steps
        in
        let speedup = stateless_s /. cached_s in
        Printf.printf
          "replay dpor %-22s %8d execs, steps %9d -> %8d (%5.2fx), wall \
           %6s -> %6s ms (%4.2fx)%s\n"
          name cached.Dpor.executions stateless.Dpor.steps cached.Dpor.steps
          reduction (ms stateless_s) (ms cached_s) speedup
          (if verified then "" else "  ORACLE MISMATCH");
        (name, cached, stateless, cached_s, stateless_s, reduction, speedup,
         verified))
      (replay_dpor_cases ())
  in
  let infer_rows =
    List.map
      (fun (name, prog) ->
        let pool = Coop_util.Pool.shared () in
        let cached = Coop_core.Infer.infer ~pool prog in
        let stateless = Coop_core.Infer.infer ~pool ~no_cache:true prog in
        let cached_s =
          time_median ~reps:3 (fun () -> Coop_core.Infer.infer ~pool prog)
        in
        let stateless_s =
          time_median ~reps:3 (fun () ->
              Coop_core.Infer.infer ~pool ~no_cache:true prog)
        in
        let verified =
          Coop_trace.Loc.Set.equal cached.Coop_core.Infer.yields
            stateless.Coop_core.Infer.yields
          && cached.Coop_core.Infer.rounds = stateless.Coop_core.Infer.rounds
          && List.map
               (fun (w : Coop_core.Infer.yield_witness) ->
                 (w.Coop_core.Infer.yw_round, w.Coop_core.Infer.yw_sched))
               cached.Coop_core.Infer.witnesses
             = List.map
                 (fun (w : Coop_core.Infer.yield_witness) ->
                   (w.Coop_core.Infer.yw_round, w.Coop_core.Infer.yw_sched))
                 stateless.Coop_core.Infer.witnesses
        in
        let speedup = stateless_s /. cached_s in
        Printf.printf
          "replay infer %-21s %2d rounds, %7d events (+%7d elided), wall \
           %6s -> %6s ms (%4.2fx)%s\n"
          name cached.Coop_core.Infer.rounds
          cached.Coop_core.Infer.events_analyzed
          cached.Coop_core.Infer.elided_events (ms stateless_s) (ms cached_s)
          speedup
          (if verified then "" else "  ORACLE MISMATCH");
        (name, cached, stateless, cached_s, stateless_s, speedup, verified))
      (replay_infer_cases ())
  in
  let table =
    Table.create
      ~headers:
        [ ("workload", Table.Left); ("executions", Table.Right);
          ("stateless steps", Table.Right); ("cached steps", Table.Right);
          ("reduction", Table.Right); ("wall speedup", Table.Right);
          ("oracle", Table.Right) ]
  in
  List.iter
    (fun (name, (c : Dpor.result), (s : Dpor.result), _, _, red, sp, ok) ->
      Table.add_row table
        [ name; string_of_int c.Dpor.executions;
          string_of_int s.Dpor.steps; string_of_int c.Dpor.steps;
          Printf.sprintf "%.2fx" red; Printf.sprintf "%.2fx" sp;
          (if ok then "ok" else "MISMATCH") ])
    dpor_rows;
  Table.print
    ~title:"Replay elision: DPOR with checkpoints vs the stateless oracle"
    table;
  let median_reduction =
    median_of
      (List.map (fun (_, _, _, _, _, red, _, _) -> red) dpor_rows)
  in
  let median_speedup =
    median_of (List.map (fun (_, _, _, _, _, _, sp, _) -> sp) dpor_rows)
  in
  Printf.printf
    "replay: dpor suite median steps reduction %.2fx (gate 3x), median wall \
     speedup %.2fx (gate 1.5x)\n"
    median_reduction median_speedup;
  let dpor_json =
    List.map
      (fun (name, (c : Dpor.result), (s : Dpor.result), cs, ss, red, sp, ok)
         ->
        Json.Obj
          [ ("name", Json.String name);
            ("executions", Json.Int c.Dpor.executions);
            ("cached_steps", Json.Int c.Dpor.steps);
            ("novel_steps", Json.Int c.Dpor.novel_steps);
            ("replayed_steps", Json.Int c.Dpor.replayed_steps);
            ("cache_hits", Json.Int c.Dpor.cache_hits);
            ("stateless_steps", Json.Int s.Dpor.steps);
            ("cached_seconds", Json.Float cs);
            ("stateless_seconds", Json.Float ss);
            ("steps_reduction", Json.Float red);
            ("speedup", Json.Float sp);
            ("verified", Json.Bool ok) ])
      dpor_rows
  in
  let infer_json =
    List.map
      (fun ( name,
             (c : Coop_core.Infer.result),
             (s : Coop_core.Infer.result),
             cs, ss, sp, ok ) ->
        Json.Obj
          [ ("name", Json.String name);
            ("rounds", Json.Int c.Coop_core.Infer.rounds);
            ("events_analyzed", Json.Int c.Coop_core.Infer.events_analyzed);
            ("prefix_events", Json.Int c.Coop_core.Infer.prefix_events);
            ("elided_events", Json.Int c.Coop_core.Infer.elided_events);
            ("cache_hits", Json.Int c.Coop_core.Infer.cache_hits);
            ("stateless_events", Json.Int s.Coop_core.Infer.events_analyzed);
            ("cached_seconds", Json.Float cs);
            ("stateless_seconds", Json.Float ss);
            ("speedup", Json.Float sp);
            ("verified", Json.Bool ok) ])
      infer_rows
  in
  let json =
    Json.Obj
      [ ("experiment", Json.String "replay");
        ("schema", Json.String "coop-replay/v1");
        ("jobs", Json.Int (Coop_util.Pool.default_jobs ()));
        ("dpor", Json.List dpor_json);
        ("infer", Json.List infer_json);
        ("summary",
         Json.Obj
           [ ("median_steps_reduction", Json.Float median_reduction);
             ("median_speedup", Json.Float median_speedup) ]) ]
  in
  let path = match !json_out with Some p -> p | None -> "BENCH_replay.json" in
  let oc = open_out path in
  output_string oc (Json.to_string json);
  close_out oc;
  Printf.printf "(wrote %s)\n" path

(* ---------------------------------------------------------------------- *)
(* JSON validation (the CI gate for the machine-readable output)           *)
(* ---------------------------------------------------------------------- *)

(* Validates a machine-readable document the toolchain emits — a bench
   result (table3, profile, vclock, pool, codec, coop-replay/v1), a
   coop-obs/v1 snapshot, a coop-witness/v1 document or a Chrome
   trace_event array — against its kind's gates in the table in gates.ml.
   Exit 1 names the first gate that rejects. *)
let json_verify path =
  let fail msg =
    Printf.eprintf "json-verify: %s: %s\n" path msg;
    exit 1
  in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> fail e
  | contents -> (
      match Json.of_string contents with
      | Error e -> fail e
      | Ok json -> (
          match Gates.verify json with
          | Ok (kind, applied) ->
              Printf.printf "json-verify: %s ok (%s, %d gates)\n" path kind
                (List.length applied)
          | Error f -> fail (Gates.message f)))

(* ---------------------------------------------------------------------- *)
(* Driver                                                                  *)
(* ---------------------------------------------------------------------- *)

let all = [ ("table1", table1); ("table2", table2); ("table3", table3);
            ("profile", profile); ("fig1", fig1); ("fig2", fig2);
            ("fig3", fig3); ("ablations", ablations); ("micro", micro);
            ("vclock", vclock); ("pool", pool_bench);
            ("alloc-smoke", alloc_smoke);
            ("codec", codec_bench); ("replay", replay_bench) ]

let usage () =
  Printf.eprintf
    "usage: main.exe [EXPERIMENT...] [--jobs N] [--json FILE] [--only W1,W2]\n\
    \       main.exe json-verify FILE\n\
     experiments: %s (default: all)\n"
    (String.concat ", " (List.map fst all));
  exit 2

(* Same diagnostic shape as coopcheck's: the one jobs-validation message,
   parameterized only by where the bad value came from. *)
let bad_jobs source arg =
  Printf.eprintf "bench: invalid jobs argument %S: %s wants a positive \
                  integer\n" arg source;
  exit 2

(* A malformed COOP_JOBS is rejected up front rather than silently falling
   back to the machine's domain count. *)
let validate_env_jobs () =
  match Sys.getenv_opt "COOP_JOBS" with
  | Some s when Coop_util.Pool.parse_jobs s = None -> bad_jobs "COOP_JOBS" s
  | _ -> ()

let () =
  validate_env_jobs ();
  match Array.to_list Sys.argv with
  | _ :: "json-verify" :: rest -> (
      match rest with [ path ] -> json_verify path | _ -> usage ())
  | _ :: args ->
      let experiments = ref [] in
      let rec parse = function
        | [] -> ()
        | "--jobs" :: n :: rest -> (
            match Coop_util.Pool.parse_jobs n with
            | Some n ->
                Coop_util.Pool.set_default_jobs n;
                parse rest
            | None -> bad_jobs "--jobs" n)
        | "--json" :: path :: rest ->
            json_out := Some path;
            parse rest
        | "--only" :: names :: rest ->
            let names = String.split_on_char ',' names |> List.map String.trim in
            List.iter
              (fun n ->
                if Registry.find n = None then begin
                  Printf.eprintf "--only: unknown workload %s (have: %s)\n" n
                    (String.concat ", " Registry.names);
                  exit 2
                end)
              names;
            only := Some names;
            parse rest
        | ("--jobs" | "--json" | "--only") :: [] -> usage ()
        | arg :: _ when String.length arg > 0 && arg.[0] = '-' -> usage ()
        | exp :: rest ->
            (match List.assoc_opt exp all with
            | Some f -> experiments := (exp, f) :: !experiments
            | None ->
                Printf.eprintf "unknown experiment %s (have: %s)\n" exp
                  (String.concat ", " (List.map fst all));
                exit 2);
            parse rest
      in
      parse args;
      let to_run =
        match List.rev !experiments with [] -> all | exps -> exps
      in
      List.iter (fun (_, f) -> f ()) to_run
  | [] -> usage ()
