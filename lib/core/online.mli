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
    reset point). So a late fact {e replays} the transactions whose
    optimistic assumptions it invalidates — never the trace.

    {b Digest layout.} Each thread (by dense id) keeps one log of its
    phase-relevant ops in a flat byte buffer: per op, the global position
    (a varint delta from the previous entry), an int code (operand id ×
    op kind, a varint) and the location packed into 8 bytes (locations
    outside 20/21/21 bits of function/pc/line take an escape followed by
    three varints). An event is logged once however many of the thread's
    transactions are open, so a transaction is a slice of its thread's
    log plus a small record (phase, commit point, pending count, the
    handle of the transaction enclosing it). The thread's log names its
    innermost open transaction, so a thread's open transactions form a
    stack threaded through the records: a push or pop allocates
    nothing. Replay
    re-derives each op's mover from its code and rebuilds the
    [Event.op] through the interner's reverse maps only for an op it
    reports; the forward pass uses the event in hand.

    {b Fact chains.} Each variable and lock id has two ints: a
    registration stamp (the uid of the last transaction that registered
    its fact, or a mark once the fact is known) and the head of a chain
    of transaction handles threaded through a flat buffer. A
    registration that misses the stamp appends one chain entry and bumps
    the transaction's pending count — no hash table, no cons cell; a
    duplicate entry (when another transaction interleaved) is allowed
    and bounded by the log. A fact walks its chain once, replays each
    distinct transaction once and returns the entries to the free list.

    {b Retirement and memory.} A closed transaction retires — its
    results are final — when its pending count is zero, or when its
    shape rules out any violation under any knowledge (no op able to
    violate after an op able to commit); otherwise it parks until its
    facts arrive or the stream ends. When a thread has no open
    transaction, its log is cut back to the end of its last parked
    slice — to 0 in the common case. Chain entries naming retired
    transactions (each entry carries its transaction's uid, so a reused
    handle never inherits them) are swept when they fill half the
    chain.
    Memory is O(threads·vars) for the detector plus the slices of live
    transactions. The adversarial worst case (one giant transaction
    touching fresh race-free variables forever) degrades toward O(trace)
    — the price of exact equivalence with the two-pass oracle, which
    the differential suite pins down.

    Knowledge, the chains and the logs all key on the dense ids of the
    run's shared {!Interner} — the engine, the publishing detector and
    the transaction driver must use the {e same} interner, and every
    event must be noted on it (via {!Interner.analysis} at the head of
    the chain) before it reaches the engine. *)

open Coop_trace

(** {1 The fact channel} *)

type fact =
  | Racy of int  (** The variable (by dense id) is involved in some race. *)
  | Shared of int  (** The lock (by dense id) is shared by two threads. *)

type publish = fact -> unit
type subscribe = (fact -> unit) -> unit

val pack : fact -> int
(** Stable injective packing of facts into non-negative ints ([id*2] for
    [Racy], [id*2+1] for [Shared]) — the flow correlation id in
    telemetry. *)

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
    activations and atomic blocks. The engine owns each thread's stack
    of open transactions; a driver only states where transactions begin
    and end ({!push}/{!pop}) and hands over the events between
    ({!step}). Every operation acts on the thread of the event last
    noted on the engine's interner. *)

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
  tid : int;  (** Offending thread (original id). *)
  loc : Loc.t;  (** Location needing a yield before it. *)
  op : Event.op;  (** The offending operation. *)
  mover : Mover.t;  (** Its mover class ([Right] or [Non]). *)
  cause : cause option;
      (** The commit point in force when the violation fired. Always
          [Some] for violations the machine produces (Post implies a
          commit happened); an option for defensive construction. *)
}
(** A violation of the (R|B)* (N|L) (L|B)* shape, as [Automaton.step]
    would have reported it under final knowledge. [Automaton.violation]
    is this type, so a violation is built once, by the engine. *)

type 'a t
(** Engine state: current knowledge, the fact chains, the per-thread
    logs and stacks of open transactions, the parked transactions and
    the results of retired ones. ['a] is the payload a driver attaches
    to each transaction. *)

val create : ?mark:Analysis.mark -> interner:Interner.t -> unit -> 'a t
(** [interner] is the run's shared interner (see the module preamble).
    [mark] is the shared mark of the enclosing instrumented chain;
    repair time and allocation advance it so they are billed to
    [checker/repair] and not to the checker whose step triggered the
    fact. *)

val on_fact : 'a t -> fact -> unit
(** Learn a fact: replay exactly the transactions that assumed its
    negation, then free the fact's chain (facts are final). Meant to be
    passed to a [subscribe]. *)

val push : 'a t -> 'a -> unit
(** Open a transaction with the given payload in the pre-commit phase,
    innermost on the current event's thread. Allocates nothing once the
    engine has as many handles as transactions ever open at once. *)

val pop : 'a t -> unit
(** Close the current event's thread's innermost open transaction; a
    no-op when it has none (a trace may end an activation it never
    began). A closed transaction retires at once when no pending
    assumption could change its results, else it parks until its facts
    arrive or the stream ends. *)

val in_txn : 'a t -> bool
(** The current event's thread has an open transaction. *)

val step : 'a t -> seq:int -> Event.t -> unit
(** Classify the event under current knowledge and advance every open
    transaction of its thread, innermost first; phase-irrelevant events
    and threads with no open transaction are ignored. The event must be
    the latest one noted on the engine's interner. [seq] is the event's
    global position — violation order and repair both depend on it
    being strictly increasing along the trace. *)

val finalize : 'a t -> unit
(** End of stream: close every transaction still open, retire every
    parked one (their surviving optimistic assumptions are now known
    correct) and flush the [checker/repair] timer. With telemetry on,
    also counts the transactions the stream opened ([online/txns]),
    those still parked here ([online/parked_at_end]) and the most
    handles live at once ([online/peak_handles]). *)

val results : 'a t -> first_only:bool -> ('a -> viol -> 'b) -> 'b list
(** The violations of the retired transactions, each mapped with its
    transaction's payload, in trace order: by the offending event's
    position, and among the nested transactions one event flags, the
    innermost first. With [first_only], only each transaction's first
    violation. Results are final after {!finalize}. *)
