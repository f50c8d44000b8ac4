(* coopbench: the repository's closed-loop benchmark.

   One client in one process runs a named workload: each op is issued
   only after the previous verdict returns, and every verdict is compared
   with its expected answer (expected.txt). Untraced runs print the
   end-to-end metrics; traced runs (--trace 1) record spans around each
   layer call and print the per-layer metrics of the layer profile.

     coopbench --workload check|replay|dpor|infer --seed N --seconds S
               --trace 0|1 [--commit ID] [--nproc N]

   Run it from the repository root; records, spans and recordings go to
   perfbench/out/.

   See README.md beside this file for what each workload and metric
   means. *)

open Coop_trace
open Coop_runtime
module Pool = Coop_util.Pool
module Json = Coop_util.Json
module Infer = Coop_core.Infer

let now = Unix.gettimeofday
let span = Spans.with_span

(* --- verdict accounting ------------------------------------------------- *)

let expected : (string, string) Hashtbl.t ref = ref (Hashtbl.create 1)
let attempted = ref 0
let failed = ref 0

let verify ~family key answer =
  incr attempted;
  match Hashtbl.find_opt !expected (family ^ " " ^ key) with
  | Some a when a = answer -> ()
  | expect ->
      incr failed;
      Printf.eprintf "coopbench: %s %s: got %s, expected %s\n%!" family key
        answer
        (Option.value expect ~default:"(no answer)")

(* --- statistics --------------------------------------------------------- *)

let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let r = p *. float_of_int (n - 1) in
    let lo = truncate r in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((r -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile 0.5 xs
let sum = List.fold_left ( +. ) 0.
let ratio a b = if b = 0. then 0. else a /. b

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* --- workloads ---------------------------------------------------------- *)

type op = {
  key : string;
  run : unit -> string * int * int;
      (** The timed call: its answer, the events it analysed (DPOR:
          transitions taken) and the executions it covered. *)
}

let compile i = span ~layer:"lang" "Compile.source" (fun () -> Coop_lang.Compile.source i.Inputs.src)
let random_sched i () = Sched.random ~seed:i.Inputs.sched_seed ()
(* Paths are relative to the repository root, where the benchmark runs. *)
let out = "perfbench/out"
let traces = Filename.concat out "traces"
let expected_file = "perfbench/expected.txt"

(* A live check: the VM streams the program's events straight into the
   fused analysis stack. *)
let check_op i prog =
  { key = Inputs.key i;
    run =
      (fun () ->
        let r =
          span ~layer:"pipeline" "Coop_pipeline.run" (fun () ->
              Coop_pipeline.run (Runner.source ~sched:(random_sched i) prog))
        in
        (Inputs.pipeline_answer r, r.Coop_pipeline.events, 1)) }

let check_ops ~seed =
  List.map (fun i -> check_op i (compile i)) (Inputs.check_inputs ~seed)

(* Record one check input as a coop-trace/v1 file, streaming straight
   from the VM into the encoder. *)
let record_trace ~path i prog =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      span ~layer:"trace" "Codec.with_sink" (fun () ->
          Codec.with_sink oc (fun sink ->
              ignore (Runner.run ~sched:(random_sched i ()) ~sink prog))))

(* A replay: the same analysis over a recorded coop-trace/v1 file. *)
let replay_op i path =
  { key = Inputs.key i;
    run =
      (fun () ->
        let r =
          span ~layer:"pipeline" "Coop_pipeline.run" (fun () ->
              Coop_pipeline.run (Source.of_file path))
        in
        (Inputs.pipeline_answer r, r.Coop_pipeline.events, 1)) }

let trace_path prefix i =
  Filename.concat traces (Printf.sprintf "%s-%s.cpt" prefix i.Inputs.name)

let replay_ops ~seed =
  List.map
    (fun i ->
      let path = trace_path "replay" i in
      record_trace ~path i (compile i);
      replay_op i path)
    (Inputs.check_inputs ~seed)

let dpor_ops () =
  List.map
    (fun i ->
      let prog = compile i in
      { key = Inputs.key i;
        run =
          (fun () ->
            let r = span ~layer:"runtime" "Dpor.run" (fun () -> Dpor.run prog) in
            (Inputs.dpor_answer r, r.Dpor.steps, r.Dpor.executions)) })
    (Inputs.dpor_inputs ())

(* The default portfolio, with every factory call (one schedule run)
   counted — the infer workload's executions. *)
let runs_started = Atomic.make 0

let counted_portfolio =
  List.map
    (fun f () ->
      Atomic.incr runs_started;
      f ())
    Infer.default_portfolio

let infer_ops ~pool =
  List.map
    (fun i ->
      let prog = compile i in
      { key = Inputs.key i;
        run =
          (fun () ->
            let runs0 = Atomic.get runs_started in
            let r =
              span ~layer:"core" "Infer.infer" (fun () ->
                  Infer.infer ~pool ~portfolio:counted_portfolio
                    ~max_steps:Inputs.infer_max_steps prog)
            in
            ( Inputs.infer_answer r,
              r.Infer.events_analyzed,
              Atomic.get runs_started - runs0 )) })
    (Inputs.infer_inputs ())

(* --- the closed loop ---------------------------------------------------- *)

type sample = {
  skey : string;
  ms : float;
  events : int;
  executions : int;
  words : float;
}

(* Minor words allocated so far. The infer workload allocates on every
   pool domain, so it reads the runtime's all-domain counters. *)
let words_of ~all_domains () =
  if all_domains then (Gc.quick_stat ()).Gc.minor_words else Gc.minor_words ()

(* Each op starts from a settled heap: a full major collection, outside
   the timed region, keeps one op's garbage (DPOR's checkpoint stores
   reach tens of MiB) from being collected on the next op's clock, which
   would make op times depend on op order. *)
let run_op ~family ~words op =
  Gc.full_major ();
  let w0 = words () in
  let t0 = now () in
  let result = try Some (op.run ()) with e ->
    Printf.eprintf "coopbench: %s %s raised %s\n%!" family op.key
      (Printexc.to_string e);
    None
  in
  let t1 = now () in
  let w1 = words () in
  let events, executions =
    match result with
    | Some (answer, events, executions) ->
        verify ~family op.key answer;
        (events, executions)
    | None ->
        incr attempted;
        incr failed;
        (0, 0)
  in
  { skey = op.key; ms = (t1 -. t0) *. 1000.; events; executions; words = w1 -. w0 }

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Whole decks only: every input runs the same number of times, so the
   percentiles land on the same ranks whatever the op order. With
   [~alternate], odd decks run traced and the loop stops on an even deck
   count, which gives the untraced/traced pair behind the tracing
   overhead. *)
let closed_loop ~family ~words ~seconds ~rng ~alternate ops =
  let untraced = ref [] and traced = ref [] in
  let t_start = now () in
  let decks = ref 0 in
  let continue () =
    now () -. t_start < seconds || (alternate && !decks mod 2 = 1)
  in
  while !decks = 0 || continue () do
    let tracing = alternate && !decks mod 2 = 1 in
    Spans.enabled := tracing;
    Array.iter
      (fun op ->
        let s =
          if tracing then
            span ~layer:"bench" ("op:" ^ op.key) (fun () -> run_op ~family ~words op)
          else run_op ~family ~words op
        in
        if tracing then traced := s :: !traced else untraced := s :: !untraced)
      (shuffle rng ops);
    incr decks
  done;
  Spans.enabled := false;
  (List.rev !untraced, List.rev !traced)

let by_key keys rows =
  List.map (fun k -> (k, List.filter (fun s -> s.skey = k) rows)) keys

let fastest samples =
  List.fold_left (fun b s -> if s.ms < b.ms then s else b) (List.hd samples) samples

(* The end-to-end metrics. On a shared host an op's time swings by a
   fifth over seconds as co-tenants come and go, while each input's
   fastest op repeats within a few percent from run to run; so timings
   are taken from each input's fastest op of the run (whole decks give
   every input the same number of tries). The latency percentiles run
   over the inputs' fastest verdicts, and the throughputs divide one
   pass's events (executions) over every input by the sum of those
   verdict times. Allocation is deterministic and uses every op. *)
let e2e keys samples =
  let best = List.map (fun (_, ss) -> fastest ss) (by_key keys samples) in
  let ms = List.map (fun s -> s.ms) best in
  let secs = sum ms /. 1000. in
  let total f l = float_of_int (List.fold_left (fun a s -> a + f s) 0 l) in
  [ ("verdict_ms_p50", median ms, "ms");
    ("verdict_ms_p90", percentile 0.9 ms, "ms");
    ("events_per_s", total (fun s -> s.events) best /. secs, "events/s");
    ("executions_per_s", total (fun s -> s.executions) best /. secs, "executions/s");
    ( "minor_words_per_event",
      ratio (sum (List.map (fun s -> s.words) samples)) (total (fun s -> s.events) samples),
      "words" ) ]

(* The raw op-time distribution, for the run record. *)
let raw samples =
  let ms = List.map (fun s -> s.ms) samples in
  [ ("ops", float_of_int (List.length ms), "count");
    ("op_ms_p50", median ms, "ms");
    ("op_ms_p90", percentile 0.9 ms, "ms") ]

(* --- the layer profile (traced runs) ------------------------------------- *)

(* Each layer is timed through its public entry point, on the inputs of
   the workload that exercises it: the streaming layers on this seed's
   check inputs, DPOR and the checkpoint store on the dpor inputs,
   inference and the pool on the infer inputs. Every call that yields a
   verdict is verified like a timed op. *)

(* The fastest of [reps] calls (value, seconds, minor words): the
   stream layers are told apart by differences of runs of the same
   deterministic work, which the fastest run estimates with the least
   scheduling noise. *)
let timed ?(reps = 1) ~words f =
  let once () =
    let w0 = words () in
    let t0 = now () in
    let v = f () in
    let t1 = now () in
    (v, t1 -. t0, words () -. w0)
  in
  let best = ref (once ()) in
  for _ = 2 to reps do
    let (_, t, _) as r = once () in
    let _, tb, _ = !best in
    if t < tb then best := r
  done;
  !best

type acc = (string, float) Hashtbl.t

let add (acc : acc) k v =
  Hashtbl.replace acc k (v +. Option.value (Hashtbl.find_opt acc k) ~default:0.)

let get (acc : acc) k = Option.value (Hashtbl.find_opt acc k) ~default:0.

(* The ratios of one accumulator: the aggregate row and each input row
   share this definition. *)
let stream_metrics (a : acc) =
  let ns k d = ratio (get a k *. 1e9) (get a d) in
  [ ("vm.ns_per_step", ns "vm_s" "steps", "ns");
    ("vm.minor_words_per_step", ratio (get a "vm_words") (get a "steps"), "words");
    ("dispatch.ns_per_event", ratio ((get a "analyze_s" -. get a "vm_s") *. 1e9) (get a "events"), "ns");
    ("codec.encode_ns_per_event", ratio ((get a "record_s" -. get a "vm_s") *. 1e9) (get a "events"), "ns");
    ("codec.decode_ns_per_event", ns "decode_s" "events", "ns");
    ("codec.decode_minor_words_per_event", ratio (get a "decode_words") (get a "events"), "words");
    ("codec.bytes_per_event", ratio (get a "bytes") (get a "events"), "bytes");
    ("pipeline.ns_per_event", ns "pipeline_s" "events", "ns");
    ("pipeline.minor_words_per_event", ratio (get a "pipeline_words") (get a "events"), "words");
    ("fasttrack.ns_per_event", ns "fasttrack_s" "events", "ns");
    ("cooperability.ns_per_event", ns "coop_s" "events", "ns");
    ("deadlock.ns_per_event", ns "deadlock_s" "events", "ns");
    ("fasttrack.races", get a "races", "count");
    ("fasttrack.racy_vars", get a "racy_vars", "count");
    ("cooperability.violations", get a "violations", "count");
    ( "check.unattributed_share",
      ratio (get a "check_s" -. get a "analyze_s" -. get a "pipeline_s") (get a "check_s"),
      "fraction" );
    ( "replay.unattributed_share",
      ratio (get a "replay_s" -. get a "decode_s" -. get a "pipeline_s") (get a "replay_s"),
      "fraction" );
    ("compile.ms_per_program", ratio (get a "compile_s" *. 1000.) (get a "programs"), "ms") ]

let profile_stream ~seed =
  let words = Gc.minor_words in
  let total : acc = Hashtbl.create 32 in
  let rows =
    List.map
      (fun i ->
        let a : acc = Hashtbl.create 32 in
        let key = Inputs.key i in
        span ~layer:"bench" ("profile:" ^ key) (fun () ->
            let prog, t, _ = timed ~reps:3 ~words (fun () -> compile i) in
            add a "compile_s" t;
            add a "programs" 1.;
            (* VM alone, VM plus sink dispatch, VM plus encoder: the
               three runs are interleaved so that heap and cache state
               drift evenly across them before their differences are
               taken. *)
            let path = trace_path "profile" i in
            let vm_s = ref infinity and analyze_s = ref infinity in
            let record_s = ref infinity in
            for _ = 1 to 3 do
              let o, t, w =
                timed ~words (fun () ->
                    span ~layer:"runtime" "Runner.run" (fun () ->
                        Runner.run ~sched:(random_sched i ()) ~sink:Trace.Sink.ignore prog))
              in
              vm_s := Float.min !vm_s t;
              Hashtbl.replace a "vm_words" w;
              Hashtbl.replace a "steps" (float_of_int o.Runner.steps);
              let (_, n), t, _ =
                timed ~words (fun () ->
                    span ~layer:"runtime" "Runner.analyze" (fun () ->
                        Runner.analyze ~sched:(random_sched i ()) (Analysis.count ()) prog))
              in
              analyze_s := Float.min !analyze_s t;
              Hashtbl.replace a "events" (float_of_int n);
              let (), t, _ = timed ~words (fun () -> record_trace ~path i prog) in
              record_s := Float.min !record_s t
            done;
            add a "vm_s" !vm_s;
            add a "analyze_s" !analyze_s;
            add a "record_s" !record_s;
            let bytes = In_channel.with_open_bin path In_channel.input_all in
            add a "bytes" (float_of_int (String.length bytes));
            let (), t, w =
              timed ~reps:3 ~words (fun () ->
                  span ~layer:"trace" "Codec.iter_string" (fun () ->
                      Codec.iter_string bytes Trace.Sink.ignore))
            in
            add a "decode_s" t;
            add a "decode_words" w;
            let src = Source.of_trace (Codec.of_string bytes) in
            let r, t, w =
              timed ~reps:3 ~words (fun () ->
                  span ~layer:"pipeline" "Coop_pipeline.run" (fun () -> Coop_pipeline.run src))
            in
            verify ~family:"check" key (Inputs.pipeline_answer r);
            add a "pipeline_s" t;
            add a "pipeline_words" w;
            let races, t, _ =
              timed ~reps:3 ~words (fun () ->
                  span ~layer:"race" "Fasttrack.analysis" (fun () ->
                      Source.run src (Coop_race.Fasttrack.analysis ())))
            in
            add a "fasttrack_s" t;
            add a "races" (float_of_int (List.length races));
            add a "racy_vars"
              (float_of_int (Event.Var_set.cardinal (Coop_race.Report.racy_vars races)));
            let c, t, _ =
              timed ~reps:3 ~words (fun () ->
                  span ~layer:"core" "Cooperability.online_analysis" (fun () ->
                      Source.run src (Coop_core.Cooperability.online_analysis ())))
            in
            add a "coop_s" t;
            add a "violations"
              (float_of_int (List.length c.Coop_core.Cooperability.violations));
            let _, t, _ =
              timed ~reps:3 ~words (fun () ->
                  span ~layer:"core" "Deadlock.analysis" (fun () ->
                      Source.run src (Coop_core.Deadlock.analysis ())))
            in
            add a "deadlock_s" t;
            let verified_op name op =
              let (answer, _, _), t, _ = timed ~reps:3 ~words op.run in
              verify ~family:"check" key answer;
              add a name t
            in
            verified_op "check_s" (check_op i prog);
            verified_op "replay_s" (replay_op i path));
        Hashtbl.iter (add total) a;
        (key, stream_metrics a))
      (Inputs.check_inputs ~seed)
  in
  (stream_metrics total, rows)

let profile_dpor () =
  let words = Gc.minor_words in
  let weight_s = ref 0. and parks = ref 0 in
  let weight st =
    let t0 = now () in
    let w = 8 * Vm.approx_words st in
    weight_s := !weight_s +. (now () -. t0);
    incr parks;
    w
  in
  let metrics (a : acc) =
    [ ("dpor.executions", get a "executions", "count");
      ("dpor.novel_steps", get a "novel", "count");
      ("dpor.replayed_steps", get a "replayed", "count");
      ("dpor.replay_ratio", ratio (get a "replayed") (get a "steps"), "fraction");
      ("dpor.ns_per_step", ratio (get a "dpor_s" *. 1e9) (get a "steps"), "ns");
      ("ckpt.hit_ratio", ratio (get a "hits") (get a "hits" +. get a "misses"), "fraction");
      ("ckpt.evictions", get a "evictions", "count");
      ("ckpt.peak_bytes", get a "peak_bytes", "bytes");
      ("ckpt.weight_ns_per_park", ratio (get a "weight_s" *. 1e9) (get a "parks"), "ns") ]
  in
  let total : acc = Hashtbl.create 16 in
  let rows =
    List.map
      (fun i ->
        let key = Inputs.key i in
        let a : acc = Hashtbl.create 16 in
        span ~layer:"bench" ("profile:" ^ key) (fun () ->
            let prog = compile i in
            let ckpt = Coop_util.Ckpt_cache.create ~weight () in
            let w0 = !weight_s and p0 = !parks in
            let r, t, _ =
              timed ~words (fun () ->
                  span ~layer:"runtime" "Dpor.run" (fun () -> Dpor.run ~ckpt prog))
            in
            verify ~family:"dpor" key (Inputs.dpor_answer r);
            let st = Coop_util.Ckpt_cache.stats ckpt in
            List.iter
              (fun (k, v) -> add a k v)
              [ ("executions", float_of_int r.Dpor.executions);
                ("novel", float_of_int r.Dpor.novel_steps);
                ("replayed", float_of_int r.Dpor.replayed_steps);
                ("steps", float_of_int r.Dpor.steps); ("dpor_s", t);
                ("hits", float_of_int st.Coop_util.Ckpt_cache.hits);
                ("misses", float_of_int st.Coop_util.Ckpt_cache.misses);
                ("evictions", float_of_int st.Coop_util.Ckpt_cache.evictions);
                ("weight_s", !weight_s -. w0);
                ("parks", float_of_int (!parks - p0)) ];
            Hashtbl.replace a "peak_bytes" (float_of_int st.Coop_util.Ckpt_cache.peak_bytes));
        let peak = Float.max (get total "peak_bytes") (get a "peak_bytes") in
        Hashtbl.iter (fun k v -> if k <> "peak_bytes" then add total k v) a;
        Hashtbl.replace total "peak_bytes" peak;
        (key, metrics a))
      (Inputs.dpor_inputs ())
  in
  (metrics total, rows)

(* Inference on the benchmark's pool with a timing monitor, and the
   default portfolio wrapped so each run's scheduler picks are counted
   (a deterministic proxy for the run's length). *)
let profile_infer ~pool =
  let lock = Mutex.create () in
  let busy_s = ref 0. and tasks = ref 0 and steals = Atomic.make 0 in
  let monitor =
    { Pool.on_submit = (fun ~queued:_ -> ());
      wrap_task =
        (fun task () ->
          let t0 = now () in
          Fun.protect task ~finally:(fun () ->
              let t1 = now () in
              Spans.record ~layer:"util" "Pool.task" ~t0 ~t1;
              Mutex.protect lock (fun () ->
                  busy_s := !busy_s +. (t1 -. t0);
                  incr tasks)));
      on_steal = (fun ~thief:_ ~victim:_ ~latency_s:_ -> Atomic.incr steals);
      on_deque_depth = (fun ~slot:_ ~depth:_ -> ()) }
  in
  Pool.set_monitor pool (Some monitor);
  let runs = ref [] in
  let portfolio =
    List.map
      (fun f () ->
        let s = f () in
        let picks = ref 0 in
        Mutex.protect lock (fun () -> runs := picks :: !runs);
        { s with Sched.pick = (fun ctx -> incr picks; s.Sched.pick ctx) })
      Infer.default_portfolio
  in
  let metrics (a : acc) =
    [ ("infer.rounds", get a "rounds", "count");
      ("infer.runs", get a "runs", "count");
      ("infer.events_analyzed", get a "events", "count");
      ("infer.elided_ratio", ratio (get a "elided") (get a "events"), "fraction");
      ("infer.slowest_run_share", ratio (get a "slowest_share") (get a "inputs"), "fraction");
      ("pool.tasks", get a "tasks", "count");
      ("pool.steals", get a "steals", "count");
      ( "pool.busy_ratio",
        ratio (get a "busy_s") (get a "infer_s" *. float_of_int (Pool.jobs pool)),
        "fraction" ) ]
  in
  let total : acc = Hashtbl.create 16 in
  let rows =
    List.map
      (fun i ->
        let key = Inputs.key i in
        let a : acc = Hashtbl.create 16 in
        span ~layer:"bench" ("profile:" ^ key) (fun () ->
            let prog = compile i in
            runs := [];
            let b0 = !busy_s and k0 = !tasks and s0 = Atomic.get steals in
            let r, t, _ =
              timed ~words:Gc.minor_words (fun () ->
                  span ~layer:"core" "Infer.infer" (fun () ->
                      Infer.infer ~pool ~portfolio ~max_steps:Inputs.infer_max_steps
                        ~ckpt:(Infer.prefix_cache ()) prog))
            in
            verify ~family:"infer" key (Inputs.infer_answer r);
            let picks = List.map (fun p -> float_of_int !p) !runs in
            List.iter
              (fun (k, v) -> add a k v)
              [ ("rounds", float_of_int r.Infer.rounds);
                ("runs", float_of_int (List.length picks));
                ("events", float_of_int r.Infer.events_analyzed);
                ("elided", float_of_int r.Infer.elided_events);
                ("slowest_share", ratio (List.fold_left Float.max 0. picks) (sum picks));
                ("inputs", 1.); ("infer_s", t);
                ("busy_s", !busy_s -. b0);
                ("tasks", float_of_int (!tasks - k0));
                ("steals", float_of_int (Atomic.get steals - s0)) ]);
        Hashtbl.iter (add total) a;
        (key, metrics a))
      (Inputs.infer_inputs ())
  in
  Pool.set_monitor pool None;
  (metrics total, rows)

(* --- output ------------------------------------------------------------- *)

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line metrics =
  let m =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (!failed = 0) !attempted !failed (String.concat ", " m)

let json_metrics metrics =
  Json.Obj
    (List.map
       (fun (name, v, unit) ->
         (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
       metrics)

let print_rows title rows =
  List.iter
    (fun (key, metrics) ->
      Printf.printf "%s %-24s %s\n" title key
        (String.concat " "
           (List.map (fun (n, v, _) -> Printf.sprintf "%s=%s" n (number v)) metrics)))
    rows

(* --- main --------------------------------------------------------------- *)

let usage =
  "coopbench --workload check|replay|dpor|infer --seed N --seconds S --trace \
   0|1 [--commit ID] [--nproc N]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let commit = ref "unknown" in
  let nproc = ref (Domain.recommended_domain_count ()) in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME check, replay, dpor or infer");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 traced run (per-layer metrics)");
      ("--commit", Arg.Set_string commit, "ID source identity for the fingerprint");
      ("--nproc", Arg.Set_int nproc, "N processors available (pool size)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload [ "check"; "replay"; "dpor"; "infer" ]) then begin
    prerr_endline usage;
    exit 2
  end;
  expected := Inputs.load_expected expected_file;
  List.iter
    (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
    [ out; traces ];
  let jobs = max 1 (min !nproc (Domain.recommended_domain_count ())) in
  (* Only inference runs on domains; the other workloads' loops stay on
     one, with no idle workers joining every minor collection. *)
  let pool = if !workload = "infer" then Some (Pool.create ~jobs ()) else None in
  Fun.protect
    ~finally:(fun () -> Option.iter Pool.shutdown pool)
    (fun () ->
      let family = if !workload = "replay" then "check" else !workload in
      let all_domains = !workload = "infer" in
      let words = words_of ~all_domains in
      let setup () =
        let ops =
          match !workload with
          | "check" -> check_ops ~seed:!seed
          | "replay" -> replay_ops ~seed:!seed
          | "dpor" -> dpor_ops ()
          | _ -> infer_ops ~pool:(Option.get pool)
        in
        let ops = Array.of_list ops in
        (* Warm-up: one op, always the first input of the table. *)
        ignore (run_op ~family ~words ops.(0));
        ops
      in
      (* Set up at least five times and for at least a second, and
         report the median: a cheap set-up is repeated often enough
         that one scheduling hiccup cannot move it. *)
      let rec set_up times spent =
        let t0 = now () in
        let ops = setup () in
        let t = now () -. t0 in
        let times = t :: times and spent = spent +. t in
        if List.length times >= 5 && spent >= 1. then (median times, ops)
        else set_up times spent
      in
      let setup_s, ops = set_up [] 0. in
      let keys = Array.to_list (Array.map (fun o -> o.key) ops) in
      let rng = Random.State.make [| !seed; 0x6f70 |] in
      let traced = !trace = 1 in
      let untraced_samples, traced_samples =
        closed_loop ~family ~words ~seconds:!seconds ~rng ~alternate:traced ops
      in
      let aggregate =
        (("setup_s", setup_s, "s") :: e2e keys untraced_samples)
        @ [ ("peak_rss_mb", peak_rss_mb (), "MiB") ]
      in
      let input_rows =
        List.map (fun (k, s) -> (k, e2e [ k ] s @ raw s)) (by_key keys untraced_samples)
      in
      let layer_metrics, layer_rows =
        if not traced then ([], [])
        else begin
          Spans.enabled := true;
          let stream, stream_rows = profile_stream ~seed:!seed in
          let dpor, dpor_rows = profile_dpor () in
          let infer, infer_rows =
            match pool with
            | Some pool -> profile_infer ~pool
            | None ->
                let pool = Pool.create ~jobs () in
                Fun.protect
                  ~finally:(fun () -> Pool.shutdown pool)
                  (fun () -> profile_infer ~pool)
          in
          Spans.enabled := false;
          let spans = Spans.all () in
          Spans.write
            (Filename.concat out
               (Printf.sprintf "spans-%s-s%d.jsonl" !workload !seed))
            spans;
          let self = Spans.self_times spans in
          let p50 samples =
            List.find_map
              (fun (n, v, _) -> if n = "verdict_ms_p50" then Some v else None)
              (e2e keys samples)
            |> Option.get
          in
          let overhead = p50 traced_samples -. p50 untraced_samples in
          ( stream @ dpor @ infer
            @ [ ("tracing.overhead_ms", overhead, "ms") ]
            @ List.map
                (fun l ->
                  ( "self_s." ^ l,
                    Option.value (Hashtbl.find_opt self l) ~default:0.,
                    "s" ))
                [ "lang"; "runtime"; "trace"; "race"; "core"; "pipeline"; "util" ],
            stream_rows @ dpor_rows @ infer_rows )
        end
      in
      let failed_ratio = ratio (float_of_int !failed) (float_of_int !attempted) in
      let fingerprint =
        Json.Obj
          [ ("nproc", Json.Int !nproc);
            ("recommended_domain_count", Json.Int (Domain.recommended_domain_count ()));
            ("ocaml_version", Json.String Sys.ocaml_version);
            ("pool_size", Json.Int jobs);
            ("commit", Json.String !commit) ]
      in
      let record =
        Json.Obj
          [ ("workload", Json.String !workload); ("seed", Json.Int !seed);
            ("trace", Json.Int !trace); ("seconds", Json.Float !seconds);
            ("fingerprint", fingerprint);
            ("ops", Json.Int (List.length untraced_samples + List.length traced_samples));
            ("attempted", Json.Int !attempted); ("failed", Json.Int !failed);
            ("failed_ratio", Json.Float failed_ratio);
            ("end_to_end", json_metrics aggregate);
            ("raw", json_metrics (raw untraced_samples));
            ( "samples_ms",
              Json.List
                (List.map
                   (fun s -> Json.List [ Json.String s.skey; Json.Float s.ms ])
                   untraced_samples) );
            ( "inputs",
              Json.Obj (List.map (fun (k, m) -> (k, json_metrics m)) input_rows) );
            ("per_layer", json_metrics layer_metrics);
            ( "layer_inputs",
              Json.Obj (List.map (fun (k, m) -> (k, json_metrics m)) layer_rows) ) ]
      in
      Out_channel.with_open_text
        (Filename.concat out
           (Printf.sprintf "%s-s%d-t%d.json" !workload !seed !trace))
        (fun oc -> output_string oc (Json.to_string record));
      Printf.printf "fingerprint %s\n" (String.concat " " (String.split_on_char '\n' (Json.to_string fingerprint)));
      print_rows "input" input_rows;
      print_rows "layer" layer_rows;
      Printf.printf "ops %d, failed_ratio %s\n"
        (List.length untraced_samples + List.length traced_samples)
        (number failed_ratio);
      print_endline
        (result_line (if traced then layer_metrics else aggregate)))
