(** Online (streaming) trace analyses.

    An analysis consumes the event stream one event at a time through
    {!step} and produces a typed result on {!finalize} — the shape of every
    dynamic checker in this repository (race detection, mover/transaction
    automata, atomicity, deadlock prediction, metrics). Analyses hold
    O(threads·vars) internal state and never materialize the trace, so they
    can be fed directly from the VM sink ({!sink}) or from a serialized
    trace streamed off disk.

    Composition is fused: {!chain} and {!feedback} dispatch each event
    exactly once and pass it through every component in order,
    RoadRunner-style, so a later analysis in the chain may read state an
    earlier one just updated.

    An analysis keeps no way to copy its state out. A consumer that needs
    the state after a shared prefix in several places records the
    prefix's events and feeds them to each fresh instance. *)

type 'r t
(** An online analysis producing a result of type ['r]. *)

val make : step:(Event.t -> unit) -> finalize:(unit -> 'r) -> 'r t
(** Build an analysis from its two operations. [step] is the hot path; it
    must be safe to call [finalize] at any point (end of stream). *)

val step : _ t -> Event.t -> unit
(** Feed one event. *)

val finalize : 'r t -> 'r
(** Extract the result after the last event. *)

val sink : _ t -> Trace.Sink.t
(** The analysis as an event sink — attach it to a live run. This is the
    no-allocation identity on the step function, not a wrapper. *)

val map : ('a -> 'b) -> 'a t -> 'b t
(** Post-process the result; the step path is untouched. *)

val chain : 'a t -> 'b t -> ('a * 'b) t
(** Fused sequential composition: one event dispatch, flowing through the
    first analysis then the second. The second may consult (mutable) state
    the first maintains — the chaining discipline of event-stream tool
    stacks. *)

val feedback :
  (publish:('f -> unit) -> 'a t) ->
  (subscribe:(('f -> unit) -> unit) -> 'b t) ->
  ('a * 'b) t
(** Fused composition with an incremental fact channel between the two
    sides. [feedback up down] builds the upstream analysis with a
    [publish] function and the downstream one with a [subscribe]
    registration; both then run fused, exactly like {!chain}. A fact
    published by the upstream {e during its step for event [e]} is
    delivered synchronously to every subscribed handler — i.e. {e before}
    the downstream analysis steps on [e] — which is what lets a
    downstream checker refine earlier optimistic classifications the
    moment an upstream detector learns something (the single-pass
    engine's [racy]/[shared] facts). Handlers run in subscription
    order; facts published at finalize time are delivered too (the
    upstream finalizes first). *)

val const : 'r -> 'r t
(** Ignores the stream and yields a constant (unit for pure side-effect
    sinks, placeholders in heterogeneous chains). *)

val count : unit -> int t
(** Counts events. *)

type mark = { mutable mark_s : float; mutable mark_words : float }
(** The shared mark of one instrumented fused chain: the clock and the
    domain's [Gc.minor_words] counter as last read by the chain's
    instrumentation. Float fields only, so it is stored flat and updating
    it allocates nothing. *)

val mark : unit -> mark
(** A fresh mark (both readings zero until a phase step seeds them). *)

val instrument : ?mark:mark -> name:string -> 'r t -> 'r t
(** [instrument ~name a] attributes the time spent inside [a]'s step and
    finalize, and the minor-heap words allocated there, to the
    [Coop_obs] timer [name], and counts its step calls. With telemetry
    disabled this returns [a] itself — the uninstrumented hot path is
    unchanged, not merely cheap. Enabled, time and words are accumulated
    in closure-local float registers (no boxing) and flushed to the
    registry once, at finalize, so the per-event cost is two clock reads
    and two allocation-counter reads, and no allocation of its own.

    [mark] is the shared-mark optimisation for checkers fused in a chain
    driven by {!instrument_phase}: the step reads the clock and the
    counter once {e after} running, attributes the deltas from [mark]
    and advances it — so [k] fused checkers cost [k + 2] reads of each
    per event instead of [2k + 2]. Only valid when an enclosing
    {!instrument_phase} with the same [mark] runs first on every event;
    each checker's figures then also absorb the (negligible) chain
    dispatch just before it. *)

val instrument_phase : name:string -> mark:mark -> 'r t -> 'r t
(** [instrument_phase ~name ~mark a] is {!instrument} for the whole fused
    chain of one pipeline phase: before dispatching an event it stores
    the clock and the allocation counter in [mark] (seeding the inner
    [?mark] checkers), and attributes the full dispatch to [name] — the
    denominator of the per-checker attribution table. *)

val run : 'r t -> Trace.t -> 'r
(** Offline driver: replay a recorded trace through the analysis. The thin
    wrapper that keeps the [check : Trace.t -> result] entry points
    alive. *)
