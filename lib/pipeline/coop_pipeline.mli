(** The fused analysis pipeline: every checker behind one event dispatch.

    This is the reproduction's "RoadRunner tool chain": one driver that
    feeds an event stream ({!Coop_trace.Source.t}) through every dynamic
    analysis, and never materializes a trace. By default everything runs
    in a {b single streaming pass}: the knowledge-free analyses —
    FastTrack happens-before race detection, lock-order deadlock
    prediction, the event counter — are fused via [Analysis.chain], and
    the race detector publishes its discoveries through
    [Analysis.feedback] into the engine-backed mover/transaction checkers
    (the cooperability automaton and the optional Atomizer baseline)
    riding the same replay.

    With [~two_pass:true] it is the tree's one {b two-pass reference
    oracle}: phase 1 learns the final racy set and thread-local locks,
    phase 2 re-streams the source through the checkers with full
    knowledge (so the source must be replayable). [coopcheck
    --two-pass], the differential suites and the perfbench oracle all
    run it.

    Memory is O(threads·vars) plus, in single-pass mode, the digests of
    transactions with unresolved optimistic assumptions; the source may
    be a recorded trace, a serialized trace streamed off disk, a
    deterministic re-execution of the program itself ([Runner.source]),
    or — single-pass only — a non-replayable pipe. Results are identical
    to the per-checker offline entry points on the same event sequence,
    and identical between the two modes — property-tested in
    [test_pipeline] and [test_differential]. *)

open Coop_trace

type result = {
  races : Coop_race.Report.t list;  (** FastTrack races, detection order. *)
  racy : Event.Var_set.t;  (** Racy variables (non-mover accesses). *)
  violations : Coop_core.Automaton.violation list;
      (** Cooperability violations, program order. *)
  deadlock : Coop_core.Deadlock.result;  (** Lock-order graph and cycles. *)
  atomizer : Coop_atomicity.Atomizer.result option;
      (** Atomicity baseline, when requested. *)
  conflict : Coop_atomicity.Conflict.result option;
      (** Conflict-graph serializability, when requested. *)
  events : int;  (** Events per phase (the stream length). *)
}

val run :
  ?atomize:bool ->
  ?conflict:bool ->
  ?two_pass:bool ->
  ?witness:bool ->
  Source.t ->
  result
(** [run source] drives the fused chain over [source] — one replay by
    default, exactly two with [~two_pass:true] (default [false]). The
    optional flags (both default [false]) enable the Atomizer and
    conflict-graph baselines.

    [witness] (default [false]) makes every FastTrack race carry a
    {!Coop_race.Report.witness} (see {!Coop_provenance}), identical in
    both modes; violations and Atomizer warnings always carry their
    commit cause. *)

val cooperable : result -> bool
(** No cooperability violations. *)
