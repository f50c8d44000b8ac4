(** Dynamic partial-order reduction (Flanagan-Godefroid 2005) with
    sleep sets and checkpointed replay elision.

    An alternative to {!Explore}'s stateful DFS: backtrack points are
    added lazily, only where a step is {e dependent} on an earlier step
    of another thread (conflicting access, same-lock operation,
    fork/join of that thread). Independent steps are never reordered, so
    the number of explored executions tracks the number of Mazurkiewicz
    traces instead of the number of interleavings. Textbook {b sleep
    sets} prune on top of that: a transition fully explored in a sibling
    subtree sleeps until a dependent step wakes it, and a state whose
    every enabled transition is asleep is not explored at all — classic
    DPOR + sleep sets, behaviour-preserving (property-tested against the
    sleep-set-free run and against {!Explore}).

    Transitions are taken at {!Explore.Visible_only} granularity: one
    visible operation (plus its invisible prefix) per step. A scheduling
    attempt that parks on a lock counts as a transition dependent on that
    lock, which keeps blocking sound.

    Historically this explorer was {e stateless}: every backtracked
    execution re-ran from the initial state, so an exploration of [n]
    executions of depth [d] cost O(n·d) transitions even though
    consecutive executions share long prefixes. By default it now parks
    {b checkpoints} in its own DFS frames: a frame at every fourth stack
    depth keeps a copy of its pre-choice VM state, and a backtracked
    execution resumes from the deepest parked ancestor of its divergence
    point, so only the divergent suffix is executed fresh. A parked
    state is never stepped: each fetch copies it into the one state the
    run steps ({!Vm.copy_into}). Parking is charged to a
    {!Coop_util.Ckpt_cache} byte budget with
    {!Coop_util.Ckpt_cache.charge} (weight as the budget computes it, no
    lock) and released when the frame pops, so a finished run leaves the
    budget's [bytes] at 0 and the cap bounds what the frames pin. A frame the budget refuses does not park: its state is
    re-derived by a (deterministic) replay from its nearest parked
    ancestor when needed. An unparked backtrack replays at most three
    transitions; a frame with nothing to explore (nothing enabled, or
    all of it asleep) is not parked. A popped frame's state stays in the
    run as the copy destination of the next park at its depth, so parks
    and fetches allocate nothing in the steady state. In the budget's
    {!Coop_util.Ckpt_cache.stats} a hit is a fetch of a parked state, a
    miss a fetch that had to replay because the budget refused the park,
    an eviction a refused park, and [bytes]/[peak_bytes] the charged
    weight. The frame stack itself is flat — per-depth int arrays, with
    the enabled, backtrack, tried and sleep sets as bitsets of 63
    threads a word — so a novel transition allocates nothing.
    [~no_cache:true] restores the stateless behaviour and is kept as the
    differential oracle — both modes produce identical behaviour sets,
    executions and novel steps; they differ only in how prefix states
    are re-derived.

    Termination is unchanged: the explorer memoizes prefixes, not
    states, so programs with yield-based spin loops still have unfair
    infinite executions and exhaust [max_depth] (reported as
    incomplete). The stateful {!Explore} handles those instead — the two
    explorers remain complementary. *)

open Coop_trace

type result = {
  behaviors : Behavior.Set.t;  (** All behaviours of maximal executions. *)
  executions : int;  (** Maximal executions explored. *)
  steps : int;
      (** Total transitions taken; always
          [novel_steps + replayed_steps]. *)
  novel_steps : int;
      (** Transitions executed on the exploration frontier — fresh work
          the reduction itself demands. Identical with the cache on or
          off. *)
  replayed_steps : int;
      (** Transitions re-executed only to re-derive a prefix state
          (from the root when stateless, from the deepest cached
          ancestor otherwise). The replay-elision win is this number
          shrinking. *)
  cache_hits : int;  (** Fetches of a parked state ([0] when stateless). *)
  complete : bool;  (** False when a budget was exhausted. *)
}

val default_cache : unit -> Vm.state Coop_util.Ckpt_cache.t
(** A fresh checkpoint budget with the default 64 MiB cap and a
    [Vm.approx_words]-based weight — what {!run} creates when no [ckpt]
    is passed. Create one explicitly to share it across runs or to read
    {!Coop_util.Ckpt_cache.stats} afterwards. *)

val run :
  ?yields:Loc.Set.t ->
  ?max_executions:int ->
  ?max_depth:int ->
  ?max_segment:int ->
  ?no_cache:bool ->
  ?sleep_sets:bool ->
  ?ckpt:Vm.state Coop_util.Ckpt_cache.t ->
  Coop_lang.Bytecode.program ->
  result
(** [run prog] explores the program's preemptive behaviours.
    [max_executions] (default 50_000) bounds explored executions,
    [max_depth] (default 10_000) bounds transitions per execution,
    [max_segment] (default 100_000) bounds each transition's invisible
    prefix.

    [no_cache] (default [false]) disables checkpoints: every
    backtracked execution replays from the initial state — the
    stateless differential oracle. [ckpt] supplies the budget parked
    states are charged to (charges are lock-free, so concurrent runs
    may share one); without it a fresh budget with the
    default 64 MiB cap and a [Vm.approx_words]-based weight is created
    per call. Cumulative counter deltas are flushed to [Coop_obs]
    ([ckpt/hits], [ckpt/misses], [ckpt/evictions], [ckpt/bytes],
    [ckpt/peak_bytes]) when telemetry is on.

    [sleep_sets] (default [true]) toggles sleep-set pruning;
    [~sleep_sets:false] is the plain-DPOR oracle — same behaviour set,
    more executions (property-tested).

    The search is sequential: every field of the result is a function of
    the arguments alone. *)
