(** Eraser-style lockset race detection.

    The classic alternative substrate to happens-before detection: every
    shared variable must be consistently protected by at least one lock.
    Locksets are coarser than happens-before — fork/join and other
    non-lock ordering look like races — so this detector over-approximates
    the racy set. It exists here as the ablation baseline for the question
    "how much does the cooperability checker's precision depend on the race
    detector underneath?" (see the ablation benches).

    The per-variable state machine follows the Eraser paper — [Virgin],
    [Exclusive], [Shared], [Shared_modified] — with two deliberate
    strengthenings over the textbook algorithm: the candidate lockset is
    refined during the [Exclusive] phase too (so the first thread's
    unprotected accesses are not forgotten when the variable becomes
    shared), and a shared variable that was ever written warns even when
    the later accesses are reads. Both close unsoundness holes of the
    original initialization optimization; with them the lockset racy set is
    a strict superset of FastTrack's on feasible traces, which is
    property-tested. *)

open Coop_trace

(** The Eraser state of one variable. *)
type var_state =
  | Virgin  (** Never accessed. *)
  | Exclusive of int  (** Accessed by a single thread so far. *)
  | Shared  (** Read by several threads; candidate set tracked lazily. *)
  | Shared_modified  (** Written by several threads; set must stay non-empty. *)

type t
(** Mutable detector state. *)

val create : ?interner:Interner.t -> ?witness:bool -> unit -> t
(** Fresh detector. Per-thread and per-variable state lives in flat
    arrays indexed by an {!Interner}'s dense ids; with [~interner] the
    detector shares a chain's interner and assumes events are noted
    upstream ({!Interner.analysis}), without it it notes events itself.
    With [~witness:true] (default [false]) every warning carries a
    {!Coop_provenance.Witness.Locks}: the candidate set before the fatal
    access and the lock set held at it — the two divergent sets whose
    intersection emptied the candidates. *)

val handle : t -> Event.t -> Report.t list
(** Advance by one event; returns the races this event exposes (at most one
    per variable — Eraser warns once per variable). Each call advances
    the global position counter used by witness evidence. *)

val state_of : t -> Event.var -> var_state
(** Current state-machine state of a variable ([Virgin] if never seen). *)

val candidate_locks : t -> Event.var -> int list option
(** The candidate lockset of a variable, ascending; [None] before the
    variable leaves [Virgin]/[Exclusive]. *)

val racy_vars : t -> Event.Var_set.t
(** Variables warned about so far. *)

type snapshot
(** A deep copy of the detector — held sets, per-variable Eraser
    records, warnings and the interner. *)

val snapshot : t -> snapshot
(** Capture the detector between two events; shares no mutable
    structure with [t]. *)

val restore : t -> snapshot -> unit
(** Overwrite [t] (including its interner) with the snapshot, copying
    again so the snapshot stays reusable. Resumed output equals the
    full-stream run's (property-tested). *)

val analysis :
  ?interner:Interner.t -> ?witness:bool -> unit -> Report.t list Analysis.t
(** A fresh detector as a single-pass online analysis. [interner] and
    [witness] as in {!create}. Snapshottable via {!Analysis.snapshot} /
    {!Analysis.resume}. *)

val run : Trace.t -> Report.t list
(** Run a fresh detector over a recorded trace (offline wrapper over
    {!analysis}). *)

val racy_vars_of_trace : Trace.t -> Event.Var_set.t
(** Convenience wrapper over {!run}. *)
