(** Yield inference: measuring the annotation burden.

    The paper's headline result is that cooperability needs very few yield
    annotations. We measure this by inferring them: run the program under a
    portfolio of adversarial schedules, insert a (virtual) yield at every
    violation location, and repeat until no schedule in the portfolio
    produces a new violation. Yields are injected into the VM by location,
    so no recompilation is needed.

    The inferred set is a fixpoint for the schedules explored; like any
    dynamic analysis (including the paper's) it under-approximates rare
    schedules, which is why the portfolio mixes random seeds with extreme
    round-robin quanta.

    Every run is analysed online through
    [Cooperability.online_analysis] — the fixpoint loop never
    materializes a trace, so memory stays flat however many rounds and
    schedulers it takes, and each schedule is {e executed exactly once}
    per round. The differential suite checks the first round's violation
    count against the two-pass oracle ([Coop_pipeline.run
    ~two_pass:true]) run over the same portfolio. *)

open Coop_trace
open Coop_runtime

type yield_witness = {
  yw_loc : Loc.t;  (** The inferred yield location. *)
  yw_round : int;  (** The round that first forced it (1-based). *)
  yw_sched : string;  (** Name of the schedule whose run violated there. *)
  yw_viol : Automaton.violation;
      (** The first violation naming the location, in run order then
          trace order — carries the commit {!Online.cause}, so the
          witness chain reads: this schedule committed at the cause and
          then hit this op, hence the yield. *)
}
(** Why an inferred yield exists. Deterministic across pool sizes: the
    portfolio merge preserves run order, so "first violation" is
    well-defined (property-tested alongside the inference result). *)

type result = {
  yields : Loc.Set.t;  (** Inferred yield locations. *)
  rounds : int;  (** Inference iterations until fixpoint. *)
  initial_violations : int;
      (** Violations observed on the first round (no inferred yields yet) —
          the "warnings" count a checker without inference would report. *)
  final_check_violations : int;
      (** Violations on a fresh portfolio after fixpoint; 0 when the
          inferred set is stable. *)
  events_analyzed : int;  (** Total events across all analysed runs. *)
  prefix_events : int;
      (** Events in the shared pre-divergence prefixes, executed once
          per round instead of once per schedule ([0] when replay
          elision is off). Every schedule still analyzes them. *)
  elided_events : int;
      (** Events spared re-execution by prefix sharing:
          [(portfolio size - 1) * prefix_events] summed over rounds
          ([0] when replay elision is off). *)
  cache_hits : int;
      (** Schedules resumed from a held round prefix — prefix
          re-executions elided ([0] when replay elision is off, and for
          rounds whose prefix the budget refused). *)
  witnesses : yield_witness list;
      (** One per inferred yield, in inference order (round, then first
          occurrence). *)
}

type prefix
(** A round's pre-divergence prefix: the VM state at the point where
    more than one thread first becomes runnable, the forced scheduler
    picks that led there and the events those steps emitted. *)

val prefix_weight : prefix -> int
(** The bytes a prefix retains beyond the program: its VM state's
    {!Vm.approx_words}, plus the measured words of its recorded events
    and picks. Never below the prefix's own heap words
    (property-tested). *)

val prefix_cache : unit -> prefix Coop_util.Ckpt_cache.t
(** A fresh checkpoint budget for round prefixes (64 MiB default cap,
    {!prefix_weight}), suitable for passing to {!infer} as [?ckpt] — e.g.
    to read {!Coop_util.Ckpt_cache.stats} afterwards. *)

val default_portfolio : (unit -> Sched.t) list
(** Five random seeds, round-robin with quanta 1, 3 and 17, and two PCT
    schedulers (depths 3 and 5). Each entry is a factory minting a fresh,
    identically seeded scheduler instance per call, so any checker mode
    can replay the schedule with independent instances. *)

val infer :
  ?pool:Coop_util.Pool.t ->
  ?max_rounds:int ->
  ?portfolio:(unit -> Sched.t) list ->
  ?max_steps:int ->
  ?base_yields:Loc.Set.t ->
  ?no_cache:bool ->
  ?ckpt:prefix Coop_util.Ckpt_cache.t ->
  Coop_lang.Bytecode.program ->
  result
(** [infer prog] runs the inference loop (at most [max_rounds], default 20).
    [base_yields] seeds the yield set (default empty). Every portfolio run
    builds its own VM and scheduler, so each fixpoint round fans the
    portfolio out across [pool] (default: the shared pool, sized by
    [COOP_JOBS] or the machine); the violation merge preserves run order,
    so the result is bit-identical to a sequential pass — property-tested
    for pool sizes 1, 2 and 4.

    {b Replay elision} (default on): within a round, every schedule
    executes the same steps until a second thread becomes runnable — so
    the shared prefix is executed once and its events recorded, and each
    schedule fast-forwards a fresh scheduler over the recorded picks,
    feeds the recorded events to a fresh checker and runs only the
    divergent tail. The round holds its prefix and charges
    {!prefix_weight} to the [ckpt] budget (a fresh {!prefix_cache} per
    call by default) until the round ends, tallying one hit per schedule
    resumed from it; a round whose charge is refused drops the prefix
    and runs stateless, tallying one miss per schedule. Yields,
    violations, witnesses and [events_analyzed] are identical to the
    stateless pass (property-tested, with a roomy and with a full
    budget); only [prefix_events]/[elided_events]/[cache_hits] differ
    from zero. [~no_cache:true] forces the stateless pass — the
    differential oracle. Budget counter
    deltas flush to [Coop_obs] ([ckpt/*]) when telemetry is on. *)
