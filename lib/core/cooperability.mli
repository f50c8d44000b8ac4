(** The cooperability checker: the paper's primary contribution.

    A recorded (or streamed) trace is checked by combining a FastTrack
    race-detection pass — racy accesses are the non movers — with the
    per-thread transaction automaton, which checks that every inter-yield
    segment matches the reducible pattern [(R|B)* (N|L) (L|B)*].

    The two are fused into a {b single streaming pass}: the race
    detector publishes racy-variable and shared-lock facts the moment
    they are discovered, and the automaton classifies movers
    optimistically, repairing the affected transactions when a fact
    arrives late (see {!Online}). The two-pass reference oracle — learn
    the final racy set first, re-stream through the automaton second —
    lives in [Coop_pipeline.run ~two_pass:true]; the differential test
    suite pins the two to identical results.

    A trace with no violations witnesses that this execution is reducible:
    it is behaviourally equivalent to a cooperative execution of the same
    program. Violations name the exact locations where yields are
    missing. *)

open Coop_trace

type result = {
  violations : Automaton.violation list;  (** In program order. *)
  races : Coop_race.Report.t list;  (** From the race pass. *)
  racy : Event.Var_set.t;  (** Racy variables (non-mover accesses). *)
  events : int;  (** Trace length. *)
}

val check : ?witness:bool -> Trace.t -> result
(** Full single-pass check of a recorded trace: {!online_analysis} run
    over it. Locks only ever touched by a single thread in the trace are
    classified as both-movers (the thread-local-lock refinement).

    [witness] (default [false]) makes every race report carry a
    {!Coop_race.Report.witness} — the two conflicting accesses and the
    clock evidence proving them unordered (see {!Coop_provenance}).
    Violations always carry their commit {!Online.cause}; the flag only
    gates the race detector's per-access side tables. *)

val local_locks_of : Trace.t -> int -> bool
(** [local_locks_of tr] is the predicate of locks acquired by at most one
    thread over the whole trace. *)

val local_locks_analysis : ?interner:Interner.t -> unit -> (int -> bool) Analysis.t
(** The thread-local-lock scan as an online analysis; finalizes to the
    predicate {!local_locks_of} would compute. Ownership lives in a flat
    array over dense lock ids; with [~interner] the scan shares a fused
    chain's interner (events must be noted upstream), without it it
    notes events itself. *)

val violation_locs : Automaton.violation list -> Loc.Set.t
(** Distinct locations named by violations — the candidate yield points. *)

val cooperable : result -> bool
(** No violations. *)

val online_analysis : ?witness:bool -> unit -> result Analysis.t
(** The fused single-pass chain (interner, race detector, event counter,
    fact-fed automaton) as one analysis finalizing to a {!result}. To
    check a live run, attach {!Analysis.sink} of it and call
    {!Analysis.finalize} at the end: each event is analyzed as it
    happens and then dropped, so a run too long to record can still be
    checked. The chain's state depends only on the events fed so far,
    so a fresh instance fed a recorded prefix continues exactly like one
    that saw the prefix live — how inference shares a schedule prefix.
    [witness] as in {!check}. *)
