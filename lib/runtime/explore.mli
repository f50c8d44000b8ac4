(** Exhaustive schedule exploration (a small stateless model checker).

    Used to validate the reduction theorem empirically (Figure 1): for a
    cooperable program, the set of behaviours reachable under arbitrary
    preemption equals the set reachable under cooperative scheduling.

    Exploration is a depth-first search over machine states with
    memoization on {!Vm.key}. Preemptive mode branches at every *visible*
    instruction (shared access, lock operation, spawn/join, print, yield) —
    thread-local instructions commute with everything and are executed
    eagerly, a sound reduction for behaviour-set equality. Cooperative mode
    branches only at yield points, blocking operations and thread
    termination. *)

open Coop_trace

type mode =
  | Preemptive  (** Context switches allowed at every visible instruction. *)
  | Cooperative  (** Context switches only at yields / blocking / exit. *)

type granularity =
  | Every_instruction
      (** Branch at every single instruction — the naive baseline, for the
          ablation that measures what the visible-only reduction saves. *)
  | Visible_only
      (** Branch only at visible instructions (default). Sound for
          behaviour-set equality because invisible instructions commute
          with every concurrent operation — property-tested against
          [Every_instruction]. *)

type result = {
  behaviors : Behavior.Set.t;  (** All behaviours found. *)
  complete : bool;
      (** True when the whole state space fit in the budgets, i.e. the
          behaviour set is exact. *)
  states : int;  (** Distinct states visited. *)
  deadlocks : int;  (** Terminal states that were deadlocks. *)
  novel_steps : int;  (** Segments executed during the search. *)
}

val run :
  ?yields:Loc.Set.t ->
  ?max_states:int ->
  ?max_segment:int ->
  ?granularity:granularity ->
  mode ->
  Coop_lang.Bytecode.program ->
  result
(** [run ?yields ?max_states ?max_segment mode prog] explores [prog].
    [max_states] (default 200_000) bounds distinct visited states;
    [max_segment] (default 100_000) bounds the invisible-instruction prefix
    executed per scheduling decision (guards against yield-free infinite
    loops).

    The search is sequential and memoized across the whole space, so
    every field of the result is a function of the arguments alone. *)

val behaviors_equal : result -> result -> bool
(** Whether two complete explorations produced the same behaviour set. *)
