(** Empirical validation of the reduction theorem (Figure 1 material).

    The theorem: if a program (with its yield annotations) is cooperable,
    every preemptive execution is behaviourally equivalent to some
    cooperative execution. We validate it by exhaustively enumerating both
    behaviour sets for small programs and comparing them. *)

open Coop_trace
open Coop_runtime

type verdict = {
  preemptive : Explore.result;  (** Exploration under preemption. *)
  cooperative : Explore.result;  (** Exploration under cooperation. *)
  equal : bool;  (** Behaviour sets coincide (both complete). *)
  preemptive_subset : bool;
      (** Every preemptive behaviour is also cooperative — the direction
          the reduction theorem guarantees. *)
}

val compare :
  ?pool:Coop_util.Pool.t ->
  ?yields:Loc.Set.t ->
  ?max_states:int ->
  ?max_segment:int ->
  Coop_lang.Bytecode.program ->
  verdict
(** [compare ?yields prog] explores both semantics with the same injected
    yield set. With a [pool] the two explorations run concurrently, one
    task each; the verdict is unchanged. [max_segment] is passed through
    to both {!Explore.run} calls. *)

val pp : Format.formatter -> verdict -> unit
(** One-line summary with behaviour counts and state counts. *)
