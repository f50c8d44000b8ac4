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
          and single-pass drivers. *)
}

type result = {
  warnings : warning list;  (** One per violated activation, in order. *)
  flagged_functions : int list;  (** Distinct function indices flagged. *)
  activations : int;  (** Transactions observed (functions + blocks). *)
  violated_activations : int;  (** How many of them were flagged. *)
}

val check : ?two_pass:bool -> Trace.t -> result
(** Check a recorded trace. By default a single fused pass: the race
    detector feeds racy-variable and shared-lock facts straight into the
    nested-transaction engine ({!Coop_core.Online}), which repairs
    affected activations on late facts. With [~two_pass:true], the
    reference path: FastTrack racy set and lock scan first, then the
    nested-transaction automaton (streams the trace three times). Both
    agree exactly (property-tested). Thread-local locks are both-movers,
    as in the cooperability checker, so the two analyses compare like
    for like. *)

val check_two_pass : Trace.t -> result
(** [check ~two_pass:true], named for differential tests. *)

val online_analysis :
  ?mark:Coop_trace.Analysis.mark ->
  interner:Interner.t ->
  subscribe:Coop_core.Online.subscribe ->
  unit ->
  result Analysis.t
(** The single-pass nested-transaction checker: knowledge streams in
    through [subscribe] while events flow, and affected activations are
    repaired when a fact arrives late. Finalizes to exactly what
    {!analysis} reports under final knowledge. [interner] must be the
    chain's shared interner (events noted upstream, same interner as the
    publishing detector); [mark] as in {!Coop_core.Online.create}. *)

val analysis :
  ?local_locks:(int -> bool) ->
  racy:Event.Var_set.t ->
  unit ->
  result Analysis.t
(** The nested-transaction automaton as a single-pass online analysis
    (O(threads·depth) state). Like [Automaton.analysis], the racy set and
    [local_locks] must be final knowledge — the fused pipeline runs this
    in its second streaming phase. *)

val check_with_racy :
  ?local_locks:(int -> bool) -> racy:Event.Var_set.t -> Trace.t -> result
(** Same with a precomputed racy set and local-lock predicate. Offline
    wrapper over {!analysis}. *)

val pp_warning : Format.formatter -> warning -> unit
(** Human-readable warning. *)
