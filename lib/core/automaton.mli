(** The per-thread transaction automaton.

    Between two yields, a thread's operations must form a reducible
    transaction: a prefix of right/both movers, at most one non mover (the
    commit point), then a suffix of left/both movers —
    [(R|B)* (N | L) (L|B)*] in regular-expression form. The automaton tracks
    each thread's phase:

    - {b Pre} (pre-commit): still accumulating right/both movers;
    - {b Post} (post-commit): a non mover or left mover has occurred; only
      left/both movers may follow until the next yield.

    A right or non mover in the Post phase is a {b cooperability violation}:
    the preemptive execution at this point cannot be reduced to a
    cooperative one, and a yield annotation is needed before the offending
    operation. After reporting, the automaton resets to Pre — exactly as if
    the missing yield had been present — so one run reports every missing
    yield location. *)

open Coop_trace

type phase =
  | Pre  (** Accumulating right movers. *)
  | Post  (** After the commit point. *)

type violation = Online.viol = {
  tid : int;  (** Offending thread. *)
  loc : Loc.t;  (** Location needing a yield before it. *)
  op : Event.op;  (** The offending operation. *)
  mover : Mover.t;  (** Its mover class ([Right] or [Non]). *)
  cause : Online.cause option;
      (** The commit point this violation is blamed on — the (N|L) op
          that put the thread in Post. Identical across the two-pass
          and online paths (the differential suite pins it). *)
}

type machine
(** The phase machine of one transaction, with the commit point of its
    current Post phase. *)

val machine : unit -> machine
(** A machine in [Pre]. *)

val advance : machine -> seq:int -> Event.t -> Mover.t -> violation option
(** One move on an event of the given mover class: the violation it
    causes, if any. A right mover in Post resets the machine to [Pre];
    a non mover leaves it in Post. [seq] is the event's global position,
    recorded as the commit point's. This is the reference transition
    table; the single-pass engine ({!Online}) implements it
    independently, and the differential suite pins the two together. *)

type t
(** Mutable automaton state for all threads: one {!machine} each. *)

val create : unit -> t
(** All threads start in [Pre]. *)

val phase : t -> int -> phase
(** Current phase of a thread (Pre if never seen). *)

val step :
  ?local_locks:(int -> bool) ->
  t ->
  racy:Event.Var_set.t ->
  Event.t ->
  violation option
(** Advance by one event. Returns the violation this event causes, if any.
    [Yield] resets the thread to [Pre]. [local_locks] is forwarded to
    {!Mover.classify}. *)

val violations : t -> violation list
(** All violations so far, in order. *)

val analysis :
  ?local_locks:(int -> bool) ->
  racy:Event.Var_set.t ->
  unit ->
  violation list Analysis.t
(** A fresh automaton as a single-pass online analysis. The racy set and
    [local_locks] must be final knowledge (from a completed race/lock
    pass), which is why the fused pipeline runs this in its second
    streaming phase. *)

val online_analysis :
  ?mark:Analysis.mark ->
  interner:Interner.t ->
  subscribe:Online.subscribe ->
  unit ->
  violation list Analysis.t
(** The single-pass counterpart of {!analysis}: no prior racy set —
    knowledge streams in through [subscribe] (see {!Online}) while the
    events flow, and the {!Online} engine repairs affected transactions
    when a fact arrives late. Finalizes to exactly the violations
    {!analysis} would report under the final racy set and lock
    knowledge, in trace order. [interner] must be the chain's shared
    interner — the same one the publishing race detector uses — and
    every event must be noted on it upstream ({!Interner.analysis}).
    [mark] as in {!Online.create}. The driver is the boundary rule
    alone: a yield closes the thread's open transaction, and any other
    event opens one if none is open, then steps it. *)

val pp_violation : Format.formatter -> violation -> unit
(** Human-readable description, e.g.
    ["t2 needs a yield before wr(g0) at f1:pc7(line 12) (non-mover in post-commit)"]. *)
