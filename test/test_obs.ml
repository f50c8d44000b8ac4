(* Unit tests for the Coop_obs telemetry library: histogram bucket
   boundaries, span nesting and ordering, counter/timer merge across pool
   workers at several pool sizes, the disabled-mode no-allocation guard,
   attribution arithmetic, the Chrome trace_event structure, sample
   series and counter lanes, the live pool integration, and the pool
   monitor's unused steal and deque hooks. *)

open Coop_util

(* Every test leaves telemetry off and empty, whatever happened inside —
   the registry is process-global and other suites must not see it. *)
let with_obs f =
  Fun.protect
    ~finally:(fun () ->
      Coop_obs.disable ();
      Coop_obs.reset ())
    (fun () ->
      Coop_obs.reset ();
      f ())

let test_hist_bucket_boundaries () =
  let check what want v =
    Alcotest.(check int) what want (Coop_obs.Hist.bucket_exp v)
  in
  (* Bucket [e] covers (2^(e-1), 2^e]. *)
  check "1.0 -> 0" 0 1.0;
  check "0.75 -> 0" 0 0.75;
  check "0.5 -> -1" (-1) 0.5;
  check "2.0 -> 1" 1 2.0;
  check "2.01 -> 2" 2 2.01;
  check "4.0 -> 2" 2 4.0;
  check "1024 -> 10" 10 1024.;
  check "0.25 -> -2" (-2) 0.25;
  (* Clamping and degenerate samples. *)
  check "0 clamps to min" Coop_obs.Hist.min_exp 0.;
  check "negative clamps to min" Coop_obs.Hist.min_exp (-5.);
  check "tiny clamps to min" Coop_obs.Hist.min_exp 1e-30;
  check "nan clamps to min" Coop_obs.Hist.min_exp Float.nan;
  check "huge clamps to max" Coop_obs.Hist.max_exp 1e300;
  check "inf clamps to max" Coop_obs.Hist.max_exp Float.infinity;
  Alcotest.(check bool) "min_exp < max_exp" true
    (Coop_obs.Hist.min_exp < Coop_obs.Hist.max_exp)

let test_hist_observe_and_merge () =
  with_obs (fun () ->
      Coop_obs.enable ();
      List.iter (Coop_obs.observe "h") [ 1.0; 1.5; 2.0; 3.0 ];
      let s = Coop_obs.snapshot () in
      match List.assoc_opt "h" s.Coop_obs.hists with
      | None -> Alcotest.fail "histogram missing from snapshot"
      | Some h ->
          Alcotest.(check int) "count" 4 h.Coop_obs.Hist.count;
          Alcotest.(check (float 1e-9)) "sum" 7.5 h.Coop_obs.Hist.sum;
          Alcotest.(check (float 1e-9)) "min" 1.0 h.Coop_obs.Hist.min;
          Alcotest.(check (float 1e-9)) "max" 3.0 h.Coop_obs.Hist.max;
          (* 1.0 -> bucket 0; 1.5, 2.0 -> bucket 1; 3.0 -> bucket 2. *)
          Alcotest.(check (list (pair int int)))
            "buckets" [ (0, 1); (1, 2); (2, 1) ] h.Coop_obs.Hist.counts)

let test_span_nesting_and_order () =
  with_obs (fun () ->
      Coop_obs.enable ();
      let r =
        Coop_obs.span "outer" (fun () ->
            Coop_obs.span "inner" (fun () -> 6 * 7))
      in
      Alcotest.(check int) "span returns the body's value" 42 r;
      Coop_obs.span "later" (fun () -> ());
      let s = Coop_obs.snapshot () in
      let find name =
        match
          List.find_opt
            (fun sp -> sp.Coop_obs.span_name = name)
            s.Coop_obs.spans
        with
        | Some sp -> sp
        | None -> Alcotest.fail ("span not recorded: " ^ name)
      in
      let outer = find "outer" and inner = find "inner"
      and later = find "later" in
      Alcotest.(check int) "outer depth" 0 outer.Coop_obs.depth;
      Alcotest.(check int) "inner depth" 1 inner.Coop_obs.depth;
      Alcotest.(check int) "later back to depth 0" 0 later.Coop_obs.depth;
      (* Containment: inner lies within outer's interval. The µs values
         are epoch-relative conversions of absolute clock readings, so
         allow a couple of ulps (~0.5 µs at gettimeofday magnitudes). *)
      let tol = 2. in
      Alcotest.(check bool) "inner starts after outer" true
        (inner.Coop_obs.start_us >= outer.Coop_obs.start_us -. tol);
      Alcotest.(check bool) "inner ends before outer" true
        (inner.Coop_obs.start_us +. inner.Coop_obs.dur_us
        <= outer.Coop_obs.start_us +. outer.Coop_obs.dur_us +. tol);
      (* Snapshot orders spans by start time. *)
      let starts = List.map (fun sp -> sp.Coop_obs.start_us) s.Coop_obs.spans in
      Alcotest.(check bool) "spans sorted by start" true
        (List.sort compare starts = starts))

let test_span_closes_on_exception () =
  with_obs (fun () ->
      Coop_obs.enable ();
      (try Coop_obs.span "boom" (fun () -> failwith "x") with Failure _ -> ());
      Coop_obs.span "after" (fun () -> ());
      let s = Coop_obs.snapshot () in
      let after =
        List.find (fun sp -> sp.Coop_obs.span_name = "after") s.Coop_obs.spans
      in
      Alcotest.(check int) "depth restored after exception" 0
        after.Coop_obs.depth;
      Alcotest.(check bool) "failed span still recorded" true
        (List.exists (fun sp -> sp.Coop_obs.span_name = "boom") s.Coop_obs.spans))

(* Pool workers record into per-domain buffers; the snapshot merge must
   produce identical totals whatever the parallelism. *)
let test_counter_merge_across_pool_sizes () =
  let totals jobs =
    with_obs (fun () ->
        Coop_obs.enable ();
        let p = Pool.create ~monitor:Coop_obs.pool_monitor ~jobs () in
        Fun.protect
          ~finally:(fun () -> Pool.shutdown p)
          (fun () ->
            ignore
              (Pool.parallel_map p
                 (fun i ->
                   Coop_obs.count "par/ticks" i;
                   Coop_obs.observe "par/size" (float_of_int i);
                   Coop_obs.timer_add "par/work" 0.001 1;
                   i)
                 (List.init 40 (fun i -> i + 1))));
        let s = Coop_obs.snapshot () in
        let counter =
          match List.assoc_opt "par/ticks" s.Coop_obs.counters with
          | Some n -> n
          | None -> Alcotest.fail "counter missing"
        in
        let hist_count, hist_sum =
          match List.assoc_opt "par/size" s.Coop_obs.hists with
          | Some h -> (h.Coop_obs.Hist.count, h.Coop_obs.Hist.sum)
          | None -> Alcotest.fail "histogram missing"
        in
        let timer =
          match List.assoc_opt "par/work" s.Coop_obs.timers with
          | Some t -> t
          | None -> Alcotest.fail "timer missing"
        in
        let by_domain_sum =
          List.fold_left (fun a (_, s) -> a +. s) 0. timer.Coop_obs.by_domain
        in
        Alcotest.(check (float 1e-9))
          "timer by_domain sums to total" timer.Coop_obs.time_s by_domain_sum;
        (counter, hist_count, hist_sum, timer.Coop_obs.calls))
  in
  List.iter
    (fun jobs ->
      let counter, hist_count, hist_sum, timer_calls = totals jobs in
      let what fmt = Printf.sprintf "%s at jobs=%d" fmt jobs in
      Alcotest.(check int) (what "counter total") 820 counter;
      Alcotest.(check int) (what "histogram count") 40 hist_count;
      Alcotest.(check (float 1e-9)) (what "histogram sum") 820. hist_sum;
      Alcotest.(check int) (what "timer calls") 40 timer_calls)
    [ 1; 2; 4 ]

let test_disabled_is_noop () =
  with_obs (fun () ->
      Alcotest.(check bool) "disabled by default" false (Coop_obs.enabled ());
      (* Recording while disabled must allocate no telemetry state. *)
      Coop_obs.count "c" 1;
      Coop_obs.gauge "g" 1.;
      Coop_obs.observe "h" 1.;
      Coop_obs.timer_add "t" 1. 1;
      Alcotest.(check int) "span body still runs" 9
        (Coop_obs.span "s" (fun () -> 9));
      Alcotest.(check int) "no per-domain buffer registered" 0
        (Coop_obs.domains_registered ());
      let s = Coop_obs.snapshot () in
      Alcotest.(check int) "no spans" 0 (List.length s.Coop_obs.spans);
      Alcotest.(check int) "no counters" 0 (List.length s.Coop_obs.counters);
      Alcotest.(check int) "no gauges" 0 (List.length s.Coop_obs.gauges);
      Alcotest.(check int) "no timers" 0 (List.length s.Coop_obs.timers);
      Alcotest.(check int) "no histograms" 0 (List.length s.Coop_obs.hists))

(* Per-checker allocation through [Analysis.instrument]: a checker that
   allocates a 10-word block per step reports 10 words per event, an
   instrumented counter reports none (the instrumentation itself
   allocates nothing per event), in both the shared-mark mode of fused
   chains and the standalone mode. Disabled, the same chain registers no
   telemetry buffer. *)
let test_checker_words () =
  let open Coop_trace in
  let ev = Event.make ~tid:0 ~op:Event.Yield ~loc:Loc.none in
  let n = 10_000 in
  let sink = ref [||] in
  let chain ?mark () =
    let alloc =
      Analysis.make
        ~step:(fun _ -> sink := Sys.opaque_identity (Array.make 9 0))
        ~finalize:(fun () -> ())
    in
    Analysis.chain
      (Analysis.instrument ?mark ~name:"checker/alloc" alloc)
      (Analysis.instrument ?mark ~name:"checker/count" (Analysis.count ()))
  in
  let run a =
    for _ = 1 to n do
      Analysis.step a ev
    done;
    ignore (Analysis.finalize a)
  in
  let per_event what =
    let s = Coop_obs.snapshot () in
    let t = List.assoc what s.Coop_obs.timers in
    t.Coop_obs.words /. float_of_int t.Coop_obs.calls
  in
  List.iter
    (fun fused ->
      with_obs (fun () ->
          Coop_obs.enable ();
          let mark = Analysis.mark () in
          run
            (if fused then
               Analysis.instrument_phase ~name:"analysis/t" ~mark
                 (chain ~mark ())
             else chain ());
          let mode = if fused then "shared mark" else "standalone" in
          Alcotest.(check (float 1.))
            (mode ^ ": 10-word checker reads 10 words/event") 10.
            (per_event "checker/alloc");
          Alcotest.(check bool)
            (mode ^ ": instrumented count reads <= 0.1 words/event") true
            (per_event "checker/count" <= 0.1)))
    [ true; false ];
  with_obs (fun () ->
      run (Analysis.instrument_phase ~name:"analysis/t" ~mark:(Analysis.mark ())
             (chain ~mark:(Analysis.mark ()) ()));
      Alcotest.(check int) "disabled: no per-domain buffer registered" 0
        (Coop_obs.domains_registered ()))

let test_reset_drops_everything () =
  with_obs (fun () ->
      Coop_obs.enable ();
      Coop_obs.count "c" 5;
      Coop_obs.span "s" (fun () -> ());
      Alcotest.(check bool) "buffer registered while enabled" true
        (Coop_obs.domains_registered () > 0);
      Coop_obs.disable ();
      Coop_obs.reset ();
      Alcotest.(check int) "reset drops buffers" 0
        (Coop_obs.domains_registered ());
      let s = Coop_obs.snapshot () in
      Alcotest.(check int) "reset drops counters" 0
        (List.length s.Coop_obs.counters);
      Alcotest.(check int) "reset drops spans" 0 (List.length s.Coop_obs.spans))

let test_attribution_shares_sum_to_one () =
  with_obs (fun () ->
      Coop_obs.enable ();
      Coop_obs.timer_add "checker/fast" 0.06 10;
      Coop_obs.timer_add "checker/slow" 0.03 5;
      Coop_obs.timer_add "analysis/phase1" 0.1 15;
      let rows, total = Coop_obs.attribution (Coop_obs.snapshot ()) in
      Alcotest.(check (float 1e-9)) "total is the phase timer" 0.1 total;
      let share name =
        match List.find_opt (fun r -> r.Coop_obs.checker = name) rows with
        | Some r -> r.Coop_obs.share
        | None -> Alcotest.fail ("attribution row missing: " ^ name)
      in
      Alcotest.(check (float 1e-9)) "fast share" 0.6 (share "fast");
      Alcotest.(check (float 1e-9)) "slow share" 0.3 (share "slow");
      Alcotest.(check (float 1e-9)) "residual share" 0.1
        (share "(dispatch/other)");
      let sum = List.fold_left (fun a r -> a +. r.Coop_obs.share) 0. rows in
      Alcotest.(check (float 1e-9)) "shares sum to 1" 1.0 sum;
      (* Largest share first; the residual row carries no event count. *)
      Alcotest.(check string) "sorted by share"
        "fast" (List.hd rows).Coop_obs.checker;
      Alcotest.(check int) "residual has no events" 0
        (List.find
           (fun r -> r.Coop_obs.checker = "(dispatch/other)")
           rows)
          .Coop_obs.events)

let test_chrome_trace_structure () =
  with_obs (fun () ->
      Coop_obs.enable ();
      Coop_obs.span "outer" (fun () -> Coop_obs.span "inner" (fun () -> ()));
      let j = Coop_obs.chrome_trace (Coop_obs.snapshot ()) in
      match j with
      | Json.List items ->
          Alcotest.(check bool) "non-empty" true (items <> []);
          let str k o =
            match Json.member k o with Some (Json.String s) -> Some s | _ -> None
          in
          let metas, events =
            List.partition (fun o -> str "ph" o = Some "M") items
          in
          Alcotest.(check bool) "has process/thread metadata" true
            (List.exists (fun o -> str "name" o = Some "process_name") metas
            && List.exists (fun o -> str "name" o = Some "thread_name") metas);
          Alcotest.(check int) "one X event per span" 2 (List.length events);
          List.iter
            (fun o ->
              Alcotest.(check (option string)) "complete event" (Some "X")
                (str "ph" o);
              Alcotest.(check bool) "pseudo-pid 1" true
                (Json.member "pid" o = Some (Json.Int 1));
              let int_field k =
                match Json.member k o with
                | Some (Json.Int i) -> i
                | _ -> Alcotest.fail (k ^ " must be an integer")
              in
              Alcotest.(check bool) "ts non-negative" true (int_field "ts" >= 0);
              Alcotest.(check bool) "dur at least 1us" true
                (int_field "dur" >= 1);
              ignore (int_field "tid");
              match str "name" o with
              | Some ("outer" | "inner") -> ()
              | _ -> Alcotest.fail "unexpected event name")
            events;
          (* Parse back what we print: the file written by --chrome-trace
             must be valid JSON. *)
          (match Json.of_string (Json.to_string j) with
          | Ok _ -> ()
          | Error e -> Alcotest.fail ("chrome trace not valid JSON: " ^ e))
      | _ -> Alcotest.fail "chrome trace must be a JSON array")

(* The online engine's end-of-stream counters. In a race-free program
   every variable is lock-protected, so no access ever gets the Racy
   fact its transaction's mover assumption waits on: transactions that
   register such an assumption stay parked until the stream ends. *)
let test_online_parked_counters () =
  let open Coop_runtime in
  let prog =
    Coop_lang.Compile.source
      (Coop_workloads.Micro.locked_counter ~threads:2 ~incs:3 ~yield_at_loop:true)
  in
  with_obs (fun () ->
      Coop_obs.enable ();
      let r =
        Coop_pipeline.run (Runner.source ~sched:(fun () -> Sched.random ~seed:1 ()) prog)
      in
      Alcotest.(check int) "race-free" 0 (List.length r.Coop_pipeline.races);
      let counters = (Coop_obs.snapshot ()).Coop_obs.counters in
      let count name = Option.value (List.assoc_opt name counters) ~default:(-1) in
      Alcotest.(check (list int)) "opened, parked at end, peak handles" [ 9; 7; 7 ]
        [ count "online/txns"; count "online/parked_at_end"; count "online/peak_handles" ])

let test_to_json_schema () =
  with_obs (fun () ->
      Coop_obs.enable ();
      Coop_obs.count "c" 3;
      Coop_obs.span "s" (fun () -> ());
      Coop_obs.timer_add "checker/x" 0.01 2;
      let j = Coop_obs.to_json (Coop_obs.snapshot ()) in
      Alcotest.(check bool) "schema tag" true
        (Json.member "schema" j = Some (Json.String "coop-obs/v1"));
      List.iter
        (fun k ->
          match Json.member k j with
          | Some _ -> ()
          | None -> Alcotest.fail ("missing key: " ^ k))
        [ "spans"; "counters"; "gauges"; "timers"; "histograms"; "samples" ])

(* Timestamped sample series: per-domain append, snapshot merge in time
   order, and the ph:"C" counter lanes in the Chrome trace. *)
let test_sample_series () =
  with_obs (fun () ->
      Coop_obs.enable ();
      Coop_obs.sample "lane" 1.;
      Coop_obs.sample "lane" 2.;
      Coop_obs.sample "lane" 3.;
      let s = Coop_obs.snapshot () in
      (match List.assoc_opt "lane" s.Coop_obs.samples with
      | None -> Alcotest.fail "sample series missing from snapshot"
      | Some records ->
          Alcotest.(check (list (float 1e-9)))
            "values in record order" [ 1.; 2.; 3. ]
            (List.map (fun r -> r.Coop_obs.value) records);
          let ts = List.map (fun r -> r.Coop_obs.ts_us) records in
          Alcotest.(check bool) "timestamps nondecreasing" true
            (List.sort compare ts = ts));
      match Coop_obs.chrome_trace s with
      | Json.List items ->
          let lanes =
            List.filter
              (fun o ->
                Json.member "ph" o = Some (Json.String "C")
                && Json.member "name" o = Some (Json.String "lane"))
              items
          in
          Alcotest.(check int) "one counter event per sample" 3
            (List.length lanes);
          List.iter
            (fun o ->
              match Json.member "args" o with
              | Some args -> (
                  match Json.member "value" args with
                  | Some (Json.Float _ | Json.Int _) -> ()
                  | _ -> Alcotest.fail "counter lane without numeric value")
              | None -> Alcotest.fail "counter lane without args")
            lanes
      | _ -> Alcotest.fail "chrome trace must be a JSON array")

(* End-to-end pool telemetry: real pool, timed-wait tasks, an invariant
   that holds whatever the interleaving: one task_us observation per
   task. *)
let test_pool_telemetry () =
  with_obs (fun () ->
      Coop_obs.enable ();
      let p = Pool.create ~monitor:Coop_obs.pool_monitor ~jobs:4 () in
      Fun.protect
        ~finally:(fun () -> Pool.shutdown p)
        (fun () ->
          ignore
            (Pool.parallel_map p
               (fun i -> Unix.sleepf (0.001 *. float_of_int (1 + (i mod 3))))
               (List.init 16 Fun.id)));
      let s = Coop_obs.snapshot () in
      (match List.assoc_opt "pool/task_us" s.Coop_obs.hists with
      | None -> Alcotest.fail "pool/task_us histogram missing"
      | Some h ->
          Alcotest.(check int) "one task_us observation per task" 16
            h.Coop_obs.Hist.count);
      (* And nothing records once telemetry is off again. *)
      Coop_obs.disable ();
      Coop_obs.reset ();
      let p = Pool.create ~monitor:Coop_obs.pool_monitor ~jobs:2 () in
      Fun.protect
        ~finally:(fun () -> Pool.shutdown p)
        (fun () ->
          ignore (Pool.parallel_map p (fun i -> i + 1) (List.init 8 Fun.id)));
      let off = Coop_obs.snapshot () in
      Alcotest.(check bool) "no task_us when disabled" false
        (List.mem_assoc "pool/task_us" off.Coop_obs.hists);
      Alcotest.(check int) "no counters when disabled" 0
        (List.length off.Coop_obs.counters))

(* [pool_monitor]'s steal and deque hooks are no-ops: the pool never
   calls them, and a direct call records nothing. *)
let test_pool_monitor_unused_hooks () =
  with_obs (fun () ->
      Coop_obs.enable ();
      Coop_obs.pool_monitor.Pool.on_steal ~thief:1 ~victim:0 ~latency_s:0.001;
      Coop_obs.pool_monitor.Pool.on_deque_depth ~slot:1 ~depth:3;
      let s = Coop_obs.snapshot () in
      Alcotest.(check int) "no counters" 0 (List.length s.Coop_obs.counters);
      Alcotest.(check int) "no histograms" 0 (List.length s.Coop_obs.hists);
      Alcotest.(check int) "no gauges" 0 (List.length s.Coop_obs.gauges);
      Alcotest.(check int) "no timers" 0 (List.length s.Coop_obs.timers);
      Alcotest.(check int) "no samples" 0 (List.length s.Coop_obs.samples))

let suite =
  [
    Alcotest.test_case "histogram bucket boundaries" `Quick
      test_hist_bucket_boundaries;
    Alcotest.test_case "histogram observe and digest" `Quick
      test_hist_observe_and_merge;
    Alcotest.test_case "span nesting and ordering" `Quick
      test_span_nesting_and_order;
    Alcotest.test_case "span closes on exception" `Quick
      test_span_closes_on_exception;
    Alcotest.test_case "counter merge at pool sizes 1/2/4" `Quick
      test_counter_merge_across_pool_sizes;
    Alcotest.test_case "disabled mode is a true no-op" `Quick
      test_disabled_is_noop;
    Alcotest.test_case "per-checker words per event" `Quick test_checker_words;
    Alcotest.test_case "reset drops everything" `Quick
      test_reset_drops_everything;
    Alcotest.test_case "attribution shares sum to one" `Quick
      test_attribution_shares_sum_to_one;
    Alcotest.test_case "chrome trace structure" `Quick
      test_chrome_trace_structure;
    Alcotest.test_case "snapshot json schema" `Quick test_to_json_schema;
    Alcotest.test_case "sample series and counter lanes" `Quick
      test_sample_series;
    Alcotest.test_case "pool telemetry end to end" `Quick
      test_pool_telemetry;
    Alcotest.test_case "pool monitor steal and deque hooks record nothing"
      `Quick test_pool_monitor_unused_hooks;
    Alcotest.test_case "online parked-transaction counters" `Quick
      test_online_parked_counters;
  ]
