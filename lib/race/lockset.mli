(** Eraser-style lockset race detection.

    The classic alternative substrate to happens-before detection: every
    shared variable must be consistently protected by at least one lock.
    Locksets are coarser than happens-before — fork/join and other
    non-lock ordering look like races — so this detector over-approximates
    the racy set. It exists here as the offline ablation baseline for the
    question "how much does the cooperability checker's precision depend
    on the race detector underneath?" (bench ablation A); no command or
    pipeline stage runs it.

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

val create : unit -> t
(** Fresh detector. Per-thread and per-variable state lives in flat
    arrays indexed by its own {!Interner}'s dense ids. *)

val handle : t -> Event.t -> Report.t list
(** Advance by one event; returns the races this event exposes (at most one
    per variable — Eraser warns once per variable). Warnings carry no
    witness. *)

val state_of : t -> Event.var -> var_state
(** Current state-machine state of a variable ([Virgin] if never seen). *)

val candidate_locks : t -> Event.var -> int list option
(** The candidate lockset of a variable, ascending; [None] before the
    variable leaves [Virgin]/[Exclusive]. *)

val racy_vars : t -> Event.Var_set.t
(** Variables warned about so far. *)

val run : Trace.t -> Report.t list
(** Run a fresh detector over a recorded trace; warnings in detection
    order. *)

val racy_vars_of_trace : Trace.t -> Event.Var_set.t
(** Convenience wrapper over {!run}. *)
