(** The CoopLang virtual machine.

    The VM interprets {!Coop_lang.Bytecode} one instruction at a time under
    an external scheduler: [step] executes exactly one instruction of one
    thread and reports the events it produced. State is flat and mutable
    — int arrays for globals, program arrays, lock tables and each
    frame's locals and operand stack — and [step] updates it in place.
    {!copy} is the one way to branch ({!copy_into} the same into a
    recycled state): explorers and checkpoint stores copy a state before
    stepping it further or when parking it, and a parked state is never
    stepped, so one may be read (and copied) from several domains at
    once. Between scheduling points a thread's
    invisible instructions may also run in one tight loop, without a
    scheduler ({!run_local}, {!run_ahead}, {!transition}).

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
    about to enter [main]. Allocates only the mutable state: the event
    payloads and locations come from the program's
    {!Coop_lang.Bytecode.tables}. *)

val copy : state -> state
(** A deep copy of the live state, sharing only the immutable program and
    its tables: stepping either state never changes the other, and both
    continue identically under the same schedule. O(state size). A
    thread keeps the frames its returns left behind for reuse by later
    calls; a copy has none of them. *)

val copy_into : dst:state -> state -> unit
(** [copy_into ~dst src] turns [dst] into what [copy src] would return:
    afterwards [dst] has [src]'s {!key}, continues exactly like it, and
    stepping either state never changes the other. [dst]'s arrays, thread
    records and frames — live or left for reuse — are overwritten in place
    wherever their sizes fit, which they do when [dst] is an earlier state
    of the same program, so a recycled state costs no allocation. The
    frames [dst] holds beyond [src]'s live ones stay its own for later
    calls, so its {!approx_words} is at least a copy's. Only for a [dst]
    nothing else references — a checkpoint taken back out of a store.
    Raises [Invalid_argument] if the states run different programs. *)

val program : state -> Bytecode.program
(** The program this state executes. *)

val thread_status : state -> int -> status
(** Status of a thread id. Raises [Not_found] for unknown tids. *)

val runnable : state -> int list
(** Threads that can make progress now: [Runnable] threads plus blocked
    threads whose lock became available / join target finished. Ascending
    order. *)

val n_threads : state -> int
(** Threads created so far, finished ones included: tids run from [0] to
    [n_threads st - 1]. *)

val runnable_bits : state -> int -> int
(** [runnable_bits st k] is the part of {!runnable} in tids [63k] to
    [63k + 62] as a bitset, tid [63k + i] in bit [i]: a word of a thread
    bitset, without building the list. *)

val runnable_into : state -> int array -> int
(** [runnable_into st buf] writes {!runnable} into [buf]'s first slots and
    returns how many it wrote: a run loop that keeps one buffer allocates
    nothing when the set changes. Raises [Invalid_argument] when [buf] is
    shorter than {!n_threads}. *)

val all_quiescent : state -> bool
(** No thread can ever run again (all finished or faulted). *)

val deadlocked : state -> bool
(** [runnable] is empty but some thread is still blocked. *)

val step : yields:Loc.Set.t -> state -> int -> sink:Trace.Sink.t -> bool
(** [step ~yields st tid ~sink] executes one instruction of [tid] in
    place, feeding the produced events to [sink], and returns whether it
    emitted a [Yield] event (an explicit yield, a [wait], or an injected
    yield — what the cooperative scheduler switches on). If [tid]'s next
    instruction sits at a location in [yields], a [Yield] event is emitted
    before it executes, as a step of its own (the mechanism used by
    inferred yields — no recompilation needed; pass [Loc.Set.empty] for
    none). [yields] is not optional because an optional argument would
    box on every step. An instruction that faults leaves the thread's pc
    and operand stack exactly as they were before the step and marks it
    [Faulted]. Raises [Invalid_argument] if [tid] cannot run. *)

val runnable_changed : state -> bool
(** Whether the last {!step} on this state wrote what {!runnable} reads:
    a thread status (a park, a wake, a finish, a fault, a monitor
    reacquire), a lock owner or the thread count. That happens on
    acquire, release, wait, notify, spawn, join, a return at depth 0,
    halt, a fault and a reacquire. When it is [false], {!runnable} is
    what it was before the step, so a run loop that caches the runnable
    set refreshes it only when this is [true]. (A step may report a
    change that leaves the set as it was.) *)

(** {2 Running ahead}

    An {e invisible} instruction — [Const], [Load_local], [Store_local],
    [Array_len], [Binop], [Unop], [Jump], [Jump_if_zero], [Assert], [Pop]
    — reads and writes only its thread's top frame: it emits no event,
    touches no shared state and changes no status. By the paper's
    reduction argument it is a both-mover: executing it earlier, up to
    the thread's next visible instruction, changes nothing any other
    thread or any analysis can observe. These functions execute such
    instructions in a tight loop, without a scheduler. They stop before
    the first instruction that is visible, would fault (division or
    modulo by zero, a failing assert, a short operand stack, a bad array
    id), or sits at a location in [yields] (pending yield or not); they
    execute nothing for a thread that is not [Runnable] or has not taken
    its first {!step}. *)

val run_local : yields:Loc.Set.t -> state -> int -> limit:int -> int
(** [run_local ~yields st tid ~limit] executes up to [limit] invisible
    instructions of [tid] in place and returns how many it executed.
    Each is exactly what {!step} would have done, minus the scheduling.
    Deterministic: from equal frames it executes the same instructions. *)

type mark
(** A reusable record of one thread's top frame (pc, operand stack,
    locals), taken before it runs ahead. Its buffers grow to the largest
    frame saved and are reused, so saving allocates nothing in the
    steady state. A mark belongs to one domain. *)

val new_mark : unit -> mark
(** An empty mark: {!rewind} on it does nothing. *)

val run_ahead : yields:Loc.Set.t -> state -> int -> limit:int -> mark -> int
(** {!run_local}, but when it executes anything it first saves [tid]'s
    top frame in the mark (otherwise the mark is untouched). A run loop
    runs a thread ahead after each real step and charges the executed
    instructions to that thread's later scheduler draws; a thread still
    ahead when the loop stops is put back with {!rewind} plus a
    {!run_local} of the draws it did consume. *)

val rewind : mark -> unit
(** Restores the frame saved by the last {!run_ahead} that used the mark
    — pc, operand stack (contents and array) and locals — in whichever
    state owns that frame. Sound only while that frame has run nothing
    but invisible instructions since the save. *)

val transition : yields:Loc.Set.t -> state -> int -> fuel:int -> sink:Trace.Sink.t -> bool
(** One explorer transition of [tid] in place: its invisible prefix (run
    with {!run_local}, plus the calls, returns, atomic markers and halts,
    which emit events about their own thread only) and then one visible
    instruction — a shared-memory access, a lock or monitor operation,
    spawn, join, print or explicit yield — or a park on it. A monitor
    reacquire, an injected yield, the instruction right after an injected
    yield, a fault and thread completion each end a transition too.
    Returns [false] when [fuel] instructions ran without ending it; the
    state is then half-stepped and must be discarded. Allocates nothing
    beyond what the executed instructions themselves allocate. *)

val global_value : state -> int -> int
(** Current value of a global slot. *)

val output : state -> int list
(** [print] outputs so far, in emission order. *)

val failures : state -> (int * string) list
(** [(tid, message)] for each faulted thread, in fault order. *)

val approx_words : state -> int
(** The heap words of the configuration, excluding the program and its
    tables, which every copy shares: exact for the state's own blocks,
    frames kept for reuse included, and at most a few words over for its
    scratch event and for the status values its parked threads share.
    O(threads + frames). Used to budget the checkpoint cache; copies
    share only immutable output and failure lists, which each counts in
    full, so summing it over cached states never under-counts what the
    cache pins. *)

val key : state -> string
(** A canonical serialization of the configuration, equal for semantically
    identical states — used for memoization during schedule exploration. *)
