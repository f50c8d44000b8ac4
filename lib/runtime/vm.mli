(** The CoopLang virtual machine.

    The VM interprets {!Coop_lang.Bytecode} one instruction at a time under
    an external scheduler: [step] executes exactly one instruction of one
    thread and reports the events it produced. State is flat and mutable
    — int arrays for globals, program arrays, lock tables and each
    frame's locals and operand stack — and [step] updates it in place.
    {!copy} is the one way to branch: explorers and checkpoint stores
    copy a state before stepping it further or when parking it, and a
    parked state is never stepped, so one may be read (and copied) from
    several domains at once.

    Blocking: [Acquire] on a lock held by another thread and [Join] on a
    live thread do not advance; the thread parks in a blocked status and the
    instruction re-executes when the scheduler runs the thread again. The
    {!runnable} function already filters out threads whose blocking
    condition still holds, so a scheduler that only picks from [runnable]
    never spins. Locks are reentrant, as in the paper's Java setting. *)

open Coop_trace
open Coop_lang

type status =
  | Runnable  (** Can execute its next instruction (modulo lock/join waits). *)
  | Blocked_on_lock of int  (** Parked on a lock handle. *)
  | Blocked_on_join of int  (** Parked waiting for a thread to finish. *)
  | Waiting of int
      (** Parked on a monitor's condition after [wait]; released the lock. *)
  | Reacquiring of int
      (** Notified; the next step reacquires the monitor (blocking until
          it is free) at the saved reentrancy depth. *)
  | Finished  (** Ran to completion. *)
  | Faulted of string  (** Died on a runtime fault (assert, div by zero...). *)

type thread
(** One thread: a stack of frames plus a status. *)

type state
(** A whole machine configuration. Mutable: {!step} changes it in place. *)

val init : Bytecode.program -> state
(** The initial configuration: globals/arrays initialized, a single thread 0
    about to enter [main]. *)

val copy : state -> state
(** A deep copy sharing only the immutable program and its event caches:
    stepping either state never changes the other, and both continue
    identically under the same schedule. O(state size). *)

val program : state -> Bytecode.program
(** The program this state executes. *)

val thread_status : state -> int -> status
(** Status of a thread id. Raises [Not_found] for unknown tids. *)

val runnable : state -> int list
(** Threads that can make progress now: [Runnable] threads plus blocked
    threads whose lock became available / join target finished. Ascending
    order. *)

val runnable_array : state -> int array -> int array
(** [runnable_array st prev] is {!runnable} as an array — [prev] itself
    when its contents already equal the runnable set, otherwise a fresh
    array. A run loop that threads its previous result through allocates
    only when the set changes. The result is never mutated afterwards, so
    schedulers may keep it. *)

val all_quiescent : state -> bool
(** No thread can ever run again (all finished or faulted). *)

val deadlocked : state -> bool
(** [runnable] is empty but some thread is still blocked. *)

val step : yields:Loc.Set.t -> state -> int -> sink:Trace.Sink.t -> unit
(** [step ~yields st tid ~sink] executes one instruction of [tid] in
    place, feeding the produced events to [sink]. If [tid]'s next
    instruction sits at a location in [yields], a [Yield] event is emitted
    before it executes (the mechanism used by inferred yields — no
    recompilation needed; pass [Loc.Set.empty] for none). [yields] is not
    optional because an optional argument would box on every step. An instruction that faults leaves the thread's
    pc and operand stack exactly as they were before the step and marks
    it [Faulted]. Raises [Invalid_argument] if [tid] cannot run. *)

val peek_instr : state -> int -> (Bytecode.instr * Loc.t) option
(** The instruction a thread would execute next and its (shared, cached)
    location, or [None] for threads without a frame (finished/faulted).
    Used by the explorers to classify upcoming instructions without
    stepping. *)

val last_step_yielded : state -> bool
(** Whether the most recent [step] emitted a [Yield] event (consulted by the
    cooperative scheduler). *)

val global_value : state -> int -> int
(** Current value of a global slot. *)

val output : state -> int list
(** [print] outputs so far, in emission order. *)

val failures : state -> (int * string) list
(** [(tid, message)] for each faulted thread, in fault order. *)

val approx_words : state -> int
(** The heap words of the configuration, excluding the program and event
    caches every copy shares: exact for the state's own blocks, at most a
    few words over for its scratch event. O(threads + frames). Used to
    budget the checkpoint cache; copies share only immutable output and
    failure lists, which each counts in full, so summing it over cached
    states never under-counts what the cache pins. *)

val key : state -> string
(** A canonical serialization of the configuration, equal for semantically
    identical states — used for memoization during schedule exploration. *)
