(** The single-pass cooperability engine.

    The two-pass checker streams the trace once to learn the racy
    variables and shared locks, then re-streams it through the
    transaction automaton with that final knowledge. This module removes
    the second pass: the race detector {e publishes} each piece of
    knowledge the moment it is discovered ({!Coop_race.Fasttrack.facts}),
    and the mover machinery downstream classifies {e optimistically} —
    every access is assumed race-free and every lock thread-local until a
    fact says otherwise.

    Optimism can be wrong, and cooperability violations are {b not
    monotone} in knowledge: learning that a variable races can create,
    move, {e and delete} violations (a late non-mover that used to be
    flagged may instead commit quietly once an earlier op becomes the
    reset point). So each open transaction keeps a compact {e digest} —
    (position, location, operation, operand id) of its phase-relevant
    ops in parallel arrays — and a late fact {e replays} only the
    transactions whose optimistic assumptions it invalidates, never the
    trace. Closed transactions with unresolved assumptions stay parked
    until the assumption resolves or the stream ends; those whose ops
    were all classified with final knowledge retire immediately.

    Knowledge, the fact-to-transaction index and the digests all key on
    the dense ids of the run's shared {!Interner} — the engine, the
    publishing detector and the transaction driver must use the {e same}
    interner, and every event must be noted on it (via
    {!Interner.analysis} at the head of the chain) before it reaches
    {!step}.

    Memory is O(threads·vars) for the detector plus the digests of live
    and parked transactions. Yield-disciplined programs close and retire
    transactions promptly; the adversarial worst case (one giant
    transaction touching fresh race-free variables forever) degrades
    toward O(trace) — the price of exact equivalence with the two-pass
    oracle, which the differential suite pins down. *)

open Coop_trace

(** {1 The fact channel} *)

type fact =
  | Racy of int  (** The variable (by dense id) is involved in some race. *)
  | Shared of int  (** The lock (by dense id) is shared by two threads. *)

type publish = fact -> unit
type subscribe = (fact -> unit) -> unit

val pack : fact -> int
(** Stable injective packing of facts into non-negative ints ([id*2] for
    [Racy], [id*2+1] for [Shared]) — the engine's index key, also used
    as the flow correlation id in telemetry. *)

val facts : publish -> Coop_race.Fasttrack.facts
(** Adapt a publisher into the race detector's callback record, for
    wiring through {!Analysis.feedback}. The detector must share the
    engine's interner for the published ids to mean the same thing.
    When telemetry is on, each publication opens a
    {!Coop_obs.flow_begin} ([fact/racy] or [fact/shared], id = the
    packed fact) whose matching end fires where an engine learns the
    fact — the fact-propagation arrows of the chrome trace. *)

(** {1 The engine}

    One engine instance serves any notion of "transaction" — the
    automaton's yield-to-yield segments, the atomizer's function
    activations and atomic blocks — via the ['a] payload and the caller
    driving {!open_txn}/{!step}/{!close}. *)

type cause = {
  cseq : int;  (** Global position of the commit-point event. *)
  cloc : Loc.t;
  cop : Event.op;
  cmover : Mover.t;  (** Its mover class — [Non] or [Left]. *)
}
(** The commit point a violation is blamed on: the (N|L) op that moved
    the transaction's phase machine out of Pre. Everything after it must
    be a left or both mover; the violating op is the first one that is
    not. Causes are recomputed on every replay, so a retired
    transaction's causes reflect final knowledge — which late fact
    flipped a classification is visible as the flow events, while the
    cause names the op the final machine actually committed on. *)

type viol = {
  vseq : int;  (** Global position of the offending event. *)
  vtid : int;
  vloc : Loc.t;
  vop : Event.op;
  vmover : Mover.t;
  vcause : cause option;
      (** The commit point in force when the violation fired. Always
          [Some] for violations the machine produces (Post implies a
          commit happened); an option for defensive construction. *)
}
(** A violation of the (R|B)* (N|L) (L|B)* shape, as [Automaton.step]
    would have reported it under final knowledge. *)

type 'a txn
(** An open or parked transaction with caller payload ['a]. *)

type 'a t
(** Engine state: current knowledge plus the fact-to-transaction index. *)

val create :
  ?mark:float ref -> interner:Interner.t -> on_retire:('a txn -> unit) ->
  unit -> 'a t
(** [on_retire] fires exactly once per transaction, when its results are
    final — at {!close} if no optimistic assumption is outstanding,
    otherwise when the last one resolves, at latest during {!finalize}.
    [interner] is the run's shared interner (see the module preamble).
    [mark] is the shared clock mark of the enclosing instrumented chain;
    repair time advances it so it is billed to [checker/repair] and not
    to the checker whose step triggered the fact. *)

val on_fact : 'a t -> fact -> unit
(** Learn a fact: replay exactly the transactions that assumed its
    negation, then drop the fact's index bucket (facts are final). Meant
    to be passed to a [subscribe]. *)

val open_txn : 'a t -> tid:int -> data:'a -> 'a txn
(** Start a transaction in the pre-commit phase. [tid] is the original
    (uninterned) thread id, reported back verbatim in violations. *)

val step : 'a t -> 'a txn -> seq:int -> Event.t -> unit
(** Classify the event under current knowledge and advance the
    transaction's phase machine; phase-irrelevant events are ignored.
    The event must be the latest one noted on the engine's interner.
    [seq] is the event's global position — violation order and repair
    both depend on it being strictly increasing along the trace. *)

val close : 'a t -> 'a txn -> unit
(** The transaction's events are over (its yield / function exit /
    atomic end). Retires immediately when no assumption is pending. *)

val finalize : 'a t -> unit
(** End of stream: retire every parked transaction (their surviving
    optimistic assumptions are now known correct) and flush the
    [checker/repair] timer. Callers must {!close} still-open
    transactions first. *)

val violations : 'a txn -> viol list
(** In event order. Final once the transaction has retired. *)

val data : 'a txn -> 'a
val txn_uid : 'a txn -> int
(** Creation order: uid [a] < uid [b] iff [a] was opened first. *)

(** {1 Checkpointing} *)

type 'a snapshot
(** A deep copy of the engine — knowledge bytes, every live (open or
    parked) transaction's digest and pending set, the fact index and the
    registration stamps. Payloads ([data]) and violation records are
    immutable and shared. *)

val snapshot : roots:'a txn list -> 'a t -> 'a snapshot
(** [snapshot ~roots t] captures the engine between two events. [roots]
    must list the caller's currently open transactions: an open
    transaction with no pending assumption is reachable only from its
    driver, so the engine cannot find it alone. Shares no mutable
    structure with [t]. *)

val restore : 'a t -> 'a snapshot -> (int, 'a txn) Hashtbl.t
(** Overwrite [t]'s state with the snapshot (copying again, so the
    snapshot stays reusable and two engines restored from it never share
    a transaction). [t] keeps its own construction-time [on_retire],
    interner and mark. Returns the uid-to-transaction table of the
    private copies so the driver can re-point its open-transaction
    slots. *)
