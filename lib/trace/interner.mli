(** Per-run interning of event operands to dense integer ids.

    The dynamic analyses key per-variable, per-lock and per-thread state.
    Keying hash tables on the [Event.var] variant (or on raw handles)
    costs a polymorphic hash plus bucket chase per checker per event; a
    fused chain of [k] checkers pays it [k] times. An [Interner] assigns
    each distinct variable, lock and thread a dense id — 0, 1, 2, … in
    first-appearance order — so checkers index flat arrays instead, and
    it does the assignment once per event for the whole chain.

    Usage: the chain builder creates one interner per run, places
    {!analysis} (the "note" stage) at the head of the fused chain, and
    hands the same interner to every checker built with [~interner].
    During a checker's step, {!cur_tid} / {!cur_operand} hold the dense
    ids for the event being dispatched. A checker built without
    [~interner] owns a private interner and notes events itself.

    Ids are only meaningful relative to their interner and only dense
    per run. They follow first-appearance order alone, so a fresh
    interner fed the same events assigns the same ids. Reverse lookups
    ({!var_of_id} etc.) recover the original names for reports. Common
    case (VM-produced events) lookups are plain array loads; odd inputs
    (huge handles from hand-written trace files) fall back to a hash
    table. *)

type t

val create : unit -> t
(** A fresh interner with no assignments. *)

(** {2 Streaming annotation} *)

val note : t -> Event.t -> unit
(** Intern the operands of one event: afterwards {!cur_tid} is the dense
    id of [e.tid] and {!cur_operand} the dense id of the operand — the
    variable of a [Read]/[Write], the lock of an [Acquire]/[Release], the
    thread of a [Fork]/[Join] — or [-1] for operand-less operations. *)

val cur_tid : t -> int
(** Dense id of the executing thread of the last noted event. *)

val cur_operand : t -> int
(** Dense id of the operand of the last noted event, [-1] if none. *)

val analysis : t -> unit Analysis.t
(** The note stage: an analysis whose step is [note]. Place it at the
    head of a fused chain so every [~interner] checker downstream reads
    {!cur_tid} / {!cur_operand} instead of re-hashing. *)

(** {2 Direct lookups} *)

val var_id : t -> Event.var -> int
(** Dense id for a variable, assigning one on first sight. *)

val lock_id : t -> int -> int
(** Dense id for a lock handle, assigning one on first sight. *)

val tid_id : t -> int -> int
(** Dense id for a thread id, assigning one on first sight. *)

val find_lock : t -> int -> int
(** Dense id for a lock handle, or [-1] when the lock was never seen —
    never assigns. *)

val var_of_id : t -> int -> Event.var
(** The variable a dense id was assigned to. Raises [Invalid_argument]
    on an id this interner never produced. *)

val lock_of_id : t -> int -> int
(** The lock handle behind a dense id. *)

val tid_of_id : t -> int -> int
(** The thread id behind a dense id. *)

val n_vars : t -> int
(** Number of distinct variables interned so far. *)

val n_locks : t -> int
(** Number of distinct locks interned so far. *)

val n_tids : t -> int
(** Number of distinct threads interned so far. *)
