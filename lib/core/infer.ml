open Coop_trace
open Coop_runtime

type yield_witness = {
  yw_loc : Loc.t;
  yw_round : int;
  yw_sched : string;
  yw_viol : Automaton.violation;
}

type result = {
  yields : Loc.Set.t;
  rounds : int;
  initial_violations : int;
  final_check_violations : int;
  events_analyzed : int;
  prefix_events : int;
  elided_events : int;
  cache_hits : int;
  witnesses : yield_witness list;
}

(* The shared pre-divergence prefix of one round: as long as exactly one
   thread is runnable the schedule cannot matter, so every portfolio
   member executes the same step sequence and feeds the checker the same
   events. The prefix is executed once and its events recorded; each
   schedule then fast-forwards a fresh scheduler over the recorded picks
   (restoring its internal RNG/quantum/priority state), feeds the
   recorded events to a fresh checker and runs only the divergent
   tail. *)
type prefix = {
  ck_state : Vm.state;  (* state at the divergence point; never stepped *)
  ck_last : int;  (* last tid picked in the prefix, -1 for none *)
  ck_yielded : bool;  (* whether the prefix's last step yielded *)
  ck_steps : int;  (* VM steps executed in the prefix *)
  ck_tids : int array;  (* the forced pick at each prefix step *)
  ck_flags : bool array;  (* last_yielded visible at each pick *)
  ck_trace : Trace.t;  (* the events the prefix emitted *)
}

(* The VM state's own words plus the prefix's other blocks, measured:
   the recorded events have no size estimate of their own, and a prefix
   is weighed once per round. *)
let prefix_weight p =
  let arr a = 1 + Array.length a in
  8
  * (8 + Vm.approx_words p.ck_state + arr p.ck_tids + arr p.ck_flags
    + Obj.reachable_words (Obj.repr p.ck_trace))

let prefix_cache () = Coop_util.Ckpt_cache.create ~weight:prefix_weight ()

let compute_prefix ~yields ~max_steps prog =
  let trace = Trace.create () in
  let sink = Trace.Sink.recording trace in
  let tids = ref [] in
  let flags = ref [] in
  let st = Vm.init prog in
  let runnable = ref [||] in
  let rec go last yielded steps =
    if steps >= max_steps then (last, yielded, steps)
    else begin
      let n = Vm.n_threads st in
      if n > Array.length !runnable then runnable := Array.make (2 * n) 0;
      if Vm.runnable_into st !runnable <> 1 then (last, yielded, steps)
      else begin
        let tid = !runnable.(0) in
        flags := yielded :: !flags;
        tids := tid :: !tids;
        let yielded = Vm.step ~yields st tid ~sink in
        go tid yielded (steps + 1)
      end
    end
  in
  let last, yielded, steps = go (-1) false 0 in
  Coop_obs.count "vm/steps" steps;
  Coop_obs.count "vm/events" (Trace.length trace);
  {
    ck_state = st;
    ck_last = last;
    ck_yielded = yielded;
    ck_steps = steps;
    ck_tids = Array.of_list (List.rev !tids);
    ck_flags = Array.of_list (List.rev !flags);
    ck_trace = trace;
  }

(* Replay the recorded prefix contexts through a fresh scheduler so its
   internal state (RNG draws, quantum counters, PCT priorities) ends up
   exactly as if it had scheduled the prefix itself. Sound because the
   prefix's runnable set was a singleton at every pick, so the recorded
   context is the context the scheduler would have seen. *)
let fast_forward pre (sched : Sched.t) =
  let ctx =
    { Sched.runnable = [| 0 |]; n_runnable = 1; last = -1; last_yielded = false }
  in
  Array.iteri
    (fun i tid ->
      ctx.runnable.(0) <- tid;
      ctx.last <- (if i = 0 then -1 else pre.ck_tids.(i - 1));
      ctx.last_yielded <- pre.ck_flags.(i);
      ignore (sched.Sched.pick ctx))
    pre.ck_tids

(* The continuation of the run from the divergence point, on a private
   copy of the prefix's state ([pre] is shared by every portfolio task):
   prefix + tail reproduces the full run step for step. [Runner.resume]
   counts only the tail's steps and events in its [vm/run:*] span, so
   the "one VM execution per schedule" telemetry accounting still holds
   — the tail is this schedule's (partial) execution. *)
let run_tail ~yields ~max_steps ~sched ~sink pre =
  ignore
    (Runner.resume ~yields ~max_steps ~sched ~sink ~last:pre.ck_last
       ~last_yielded:pre.ck_yielded ~steps:pre.ck_steps
       (Vm.copy pre.ck_state))

(* Each entry is a factory minting a fresh, identically seeded scheduler
   instance per call. The single-pass checker consumes one execution, but
   the two-pass oracle ([Coop_pipeline.run ~two_pass:true], which the
   differential suite runs over this portfolio) replays the program once
   per phase — factories keep both (and the span-name peek below)
   deterministic. *)
let default_portfolio =
  [
    (fun () -> Sched.random ~seed:11 ());
    (fun () -> Sched.random ~seed:23 ());
    (fun () -> Sched.random ~seed:47 ());
    (fun () -> Sched.random ~seed:101 ());
    (fun () -> Sched.random ~seed:991 ());
    (fun () -> Sched.round_robin ~quantum:1 ());
    (fun () -> Sched.round_robin ~quantum:3 ());
    (fun () -> Sched.round_robin ~quantum:17 ());
    (fun () -> Sched.pct ~seed:7 ~depth:3 ~change_span:5_000 ());
    (fun () -> Sched.pct ~seed:77 ~depth:5 ~change_span:5_000 ());
  ]

(* One portfolio pass: run every scheduler with the current yields and
   collect all violations. Each run is streamed straight into the fused
   single-pass checker — no trace is recorded and the program executes
   exactly once per schedule. The runs are
   independent (fresh VM + fresh scheduler each), so they fan out across
   the pool, each schedule as its own task (not a pre-sharded batch) so
   a slow schedule re-balances across domains; [parallel_map] returns
   them in index order, making the result bit-identical to the
   sequential pass. Returns the runs, the prefix events executed once,
   the re-execution that spared the other schedules, and the number of
   schedules resumed from the prefix. *)
let portfolio_pass ?cache ~pool ~portfolio ~max_steps ~yields prog =
  let factories = Array.of_list portfolio in
  let n = Array.length factories in
  let fan_out one = Coop_util.Pool.parallel_map pool one (List.init n Fun.id) in
  (* Stateless: every schedule executes and analyzes the whole run,
     including the shared prefix — the replay-elision oracle. A span per
     schedule, recorded on whichever pool domain ran it, shows the
     portfolio's actual parallel shape; the schedule name also labels
     the run's violations, so an inferred yield's witness names the
     schedule that forced it. *)
  let one i =
    let name = (factories.(i) ()).Sched.name in
    Coop_obs.span ("infer/schedule:" ^ name)
      (fun () ->
        let source =
          Runner.source ~yields ?max_steps ~sched:factories.(i) prog
        in
        let r = Source.run source (Cooperability.online_analysis ()) in
        (name, r.Cooperability.violations, r.Cooperability.events))
  in
  let stateless () = (fan_out one, 0, 0, 0) in
  match cache with
  | None -> stateless ()
  | Some c ->
      let steps_cap = Option.value max_steps ~default:10_000_000 in
      let pre =
        Coop_obs.span "infer/prefix" (fun () ->
            compute_prefix ~yields ~max_steps:steps_cap prog)
      in
      let w = Coop_util.Ckpt_cache.charge c pre in
      if w = 0 then begin
        (* The budget has no room for the prefix: drop it and run the
           round stateless. *)
        Coop_util.Ckpt_cache.tally c ~hits:0 ~misses:n;
        stateless ()
      end
      else begin
        let one_cached i =
          let sched = factories.(i) () in
          let name = sched.Sched.name in
          Coop_obs.span ("infer/schedule:" ^ name)
            (fun () ->
              fast_forward pre sched;
              let a = Cooperability.online_analysis () in
              Trace.iter (Analysis.step a) pre.ck_trace;
              run_tail ~yields ~max_steps:steps_cap ~sched
                ~sink:(Analysis.sink a) pre;
              let r = Analysis.finalize a in
              (name, r.Cooperability.violations, r.Cooperability.events))
        in
        let runs = fan_out one_cached in
        Coop_util.Ckpt_cache.release c w;
        Coop_util.Ckpt_cache.tally c ~hits:n ~misses:0;
        (* The prefix was executed once instead of once per schedule:
           every schedule after the first got its events for free. *)
        let events = Trace.length pre.ck_trace in
        (runs, events, (n - 1) * events, n)
      end

let infer ?pool ?(max_rounds = 20) ?(portfolio = default_portfolio) ?max_steps
    ?(base_yields = Loc.Set.empty) ?(no_cache = false) ?ckpt prog =
  let pool =
    match pool with Some p -> p | None -> Coop_util.Pool.shared ()
  in
  let cache =
    if no_cache then None
    else Some (match ckpt with Some c -> c | None -> prefix_cache ())
  in
  let before = Option.map Coop_util.Ckpt_cache.stats cache in
  let events_total = ref 0 in
  let prefix_total = ref 0 in
  let elided_total = ref 0 in
  let hits_total = ref 0 in
  let rec loop yields round initial witnesses =
    let runs, prefix_events, elided_events, hits =
      Coop_obs.span
        (Printf.sprintf "infer/round%d" round)
        (fun () ->
          portfolio_pass ?cache ~pool ~portfolio ~max_steps
            ~yields prog)
    in
    prefix_total := !prefix_total + prefix_events;
    elided_total := !elided_total + elided_events;
    hits_total := !hits_total + hits;
    Coop_obs.count "infer/rounds" 1;
    let violations = List.concat_map (fun (_, vs, _) -> vs) runs in
    let events = List.fold_left (fun acc (_, _, e) -> acc + e) 0 runs in
    events_total := !events_total + events;
    let initial =
      match initial with None -> Some (List.length violations) | some -> some
    in
    let new_locs =
      Loc.Set.diff (Cooperability.violation_locs violations) yields
    in
    (* Per new location, the first violation that named it — in run order,
       then trace order, so the witness chain is deterministic across
       pool sizes (the merge preserves run order). *)
    let round_witnesses =
      if Loc.Set.is_empty new_locs then []
      else begin
        let seen = ref Loc.Set.empty in
        List.concat_map
          (fun (sched, vs, _) ->
            List.filter_map
              (fun (v : Automaton.violation) ->
                if
                  Loc.Set.mem v.Automaton.loc new_locs
                  && not (Loc.Set.mem v.Automaton.loc !seen)
                then begin
                  seen := Loc.Set.add v.Automaton.loc !seen;
                  Some
                    { yw_loc = v.Automaton.loc; yw_round = round;
                      yw_sched = sched; yw_viol = v }
                end
                else None)
              vs)
          runs
      end
    in
    let witnesses = witnesses @ round_witnesses in
    if Loc.Set.is_empty new_locs || round >= max_rounds then begin
      let final_check_violations = List.length violations in
      Coop_obs.gauge "infer/yields"
        (float_of_int (Loc.Set.cardinal (Loc.Set.diff yields base_yields)));
      (match (cache, before) with
      | Some c, Some b when Coop_obs.enabled () ->
          let open Coop_util.Ckpt_cache in
          let s = stats c in
          Coop_obs.count "ckpt/hits" (s.hits - b.hits);
          Coop_obs.count "ckpt/misses" (s.misses - b.misses);
          Coop_obs.count "ckpt/evictions" (s.evictions - b.evictions);
          Coop_obs.gauge "ckpt/bytes" (float_of_int s.bytes);
          Coop_obs.gauge "ckpt/peak_bytes" (float_of_int s.peak_bytes)
      | _ -> ());
      {
        yields = Loc.Set.diff yields base_yields;
        rounds = round;
        initial_violations = (match initial with Some n -> n | None -> 0);
        final_check_violations;
        events_analyzed = !events_total;
        prefix_events = !prefix_total;
        elided_events = !elided_total;
        cache_hits = !hits_total;
        witnesses;
      }
    end
    else loop (Loc.Set.union yields new_locs) (round + 1) initial witnesses
  in
  loop base_yields 1 None []
