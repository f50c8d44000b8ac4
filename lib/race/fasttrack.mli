(** FastTrack-style happens-before race detection.

    This is the substrate of the cooperability analysis: the mover
    classification needs to know which accesses race. The implementation
    follows the classic FastTrack design — one vector clock per thread and
    per lock, and per-variable adaptive read metadata (a single epoch in the
    common thread-local case, a full read vector when reads are genuinely
    shared). The detector continues past races ("continue-after-race"), so a
    single run yields the complete set of racy variables.

    All per-thread, per-lock and per-variable state is kept in flat arrays
    indexed by the dense ids of an {!Interner} (vector-clock components and
    epochs use dense thread ids too); reports translate back to original
    names. Pass [~interner] to share one interner — and its per-event
    {!Interner.note} — across a fused chain headed by
    {!Interner.analysis}; without it the detector notes events itself. *)

open Coop_trace

type t
(** Mutable detector state. *)

type facts = {
  on_racy_var : Event.var -> int -> unit;
      (** Fired the first time any race is reported on the variable —
          synchronously, during the [handle] call for the exposing
          access, before that call returns. Arguments: the variable and
          its dense id in the detector's interner. *)
  on_shared_lock : int -> int -> unit;
      (** Fired the first time a second distinct thread touches the lock
          (acquire or release — the same events the thread-locality scan
          counts), i.e. the moment the lock stops being thread-local.
          Arguments: the lock handle and its dense id. *)
}
(** Incremental knowledge channel for single-pass consumers. The
    two facts a mover classifier needs — "this variable races" and
    "this lock is shared" — are monotone: once published they never
    retract, and each fires at most once per variable/lock. *)

val create : ?facts:facts -> ?interner:Interner.t -> ?witness:bool -> unit -> t
(** Fresh state: every thread clock starts at [<t:1>]. [facts] callbacks
    fire as knowledge is discovered; by default every fact is ignored. With
    [~interner], {!handle} assumes each event has already been noted on
    that interner (chain use); without it the detector owns a private
    interner and notes events itself. With [~witness:true] (default
    [false]) every report carries a {!Coop_provenance.Witness.Race}: the
    detector additionally tracks, per variable, where the last write and
    the live reads happened (global position + location), at the cost of
    a side-table update per access. *)

val handle : t -> Event.t -> Report.t list
(** [handle t e] advances the detector by one event and returns the races
    that [e] exposes (empty for non-access events and race-free accesses).
    Each call advances the detector's global position counter (witness
    evidence is keyed by it). *)

val races : t -> Report.t list
(** All races reported so far, in detection order. *)

val racy_vars : t -> Event.Var_set.t
(** Variables involved in at least one reported race so far. *)

val sink : t -> Trace.Sink.t
(** An event sink that feeds the detector (reports accumulate in [t]). *)

val analysis :
  ?facts:facts -> ?interner:Interner.t -> ?witness:bool -> unit ->
  Report.t list Analysis.t
(** A fresh detector as a single-pass online analysis: O(threads·vars)
    state, finalizes to the races in detection order. [facts], [interner]
    and [witness] as in {!create}. *)

val run : Trace.t -> Report.t list
(** Run a fresh detector over a recorded trace (offline wrapper over
    {!analysis}). *)

val racy_vars_of_trace : Trace.t -> Event.Var_set.t
(** Convenience: the racy variables of a recorded trace. *)
