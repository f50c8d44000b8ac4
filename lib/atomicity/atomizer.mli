(** Atomizer-style atomicity checking — the baseline the paper compares
    against.

    Atomicity demands that every function body (and every explicit [atomic]
    block) is a single reducible transaction: [(R|B)* (N|L) (L|B)*] over its
    whole extent, with no reset points. Cooperability generalizes this by
    letting the programmer split a function into several transactions with
    [yield] — so atomicity reports a superset of warnings, and the gap
    between the two counts is the paper's headline comparison (Figure 3 /
    Table 2).

    Transactions nest: every event is charged to all open transactions of
    its thread, and a violation in any of them flags that transaction. Each
    activation is flagged at most once; warnings are also aggregated per
    function. [yield] events are deliberately ignored — atomicity has no
    notion of a scheduling point inside a transaction. *)

open Coop_trace

(** What a transaction is. *)
type txn_id =
  | Func of int  (** A function activation, by function index. *)
  | Block of Loc.t  (** An [atomic { .. }] block, by its begin location. *)

type warning = {
  tid : int;
  txn : txn_id;  (** The transaction that cannot be reduced. *)
  loc : Loc.t;  (** The operation that broke the pattern. *)
  op : Event.op;
  mover : Coop_core.Mover.t;
  cause : Coop_core.Online.cause option;
      (** The commit point of the activation — the causal pair's first
          half; [loc]/[op] is the second. Identical across the two-pass
          and single-pass checkers. *)
}

type result = {
  warnings : warning list;  (** One per violated activation, in order. *)
  flagged_functions : int list;  (** Distinct function indices flagged. *)
  activations : int;  (** Transactions observed (functions + blocks). *)
  violated_activations : int;  (** How many of them were flagged. *)
}

val online_analysis :
  ?mark:Coop_trace.Analysis.mark ->
  interner:Interner.t ->
  subscribe:Coop_core.Online.subscribe ->
  unit ->
  result Analysis.t
(** The single-pass nested-transaction checker on the
    {!Coop_core.Online} engine: [Enter]/[Atomic_begin] push an
    activation, [Exit]/[Atomic_end] pop the innermost one (a no-op when
    none is open), and the engine steps every open activation of the
    event's thread. Knowledge streams in through [subscribe] while
    events flow, and affected activations are repaired when a fact
    arrives late. Finalizes to exactly what {!analysis} reports under
    final knowledge. [interner] must be the chain's shared interner
    (events noted upstream, same interner as the publishing detector);
    [mark] as in {!Coop_core.Online.create}. [Coop_pipeline.run
    ~atomize:true] runs it behind the race detector. *)

val analysis :
  ?local_locks:(int -> bool) ->
  racy:Event.Var_set.t ->
  unit ->
  result Analysis.t
(** The reference nested-transaction checker: one
    {!Coop_core.Automaton.machine} per activation, flagged on its first
    violation (O(threads·depth) state). The racy set and [local_locks]
    must be final knowledge — [Coop_pipeline.run ~atomize:true
    ~two_pass:true] runs this in its second streaming phase.
    Thread-local locks are both movers, as in the cooperability
    checker, so the two analyses compare like for like. *)

val pp_warning : Format.formatter -> warning -> unit
(** Human-readable warning. *)
