(** Schedulers.

    A scheduler picks which runnable thread executes the next instruction.
    The preemptive schedulers (round-robin, random) may switch threads at
    any instruction boundary — the paper's adversarial environment. The
    cooperative scheduler switches only when the running thread yields,
    blocks or terminates — the semantics the programmer is supposed to
    reason about. *)

type context = {
  mutable runnable : int array;
      (** The runnable tids, ascending, in slots [0 .. n_runnable-1]; the
          slots past them are garbage. A buffer owned by the run loop,
          which rewrites it in place when the set changes (see
          {!Vm.runnable_into}): read-only for the scheduler. *)
  mutable n_runnable : int;  (** How many tids [runnable] holds, at least one. *)
  mutable last : int;
      (** Thread that executed the previous step, [-1] before the first
          one (an [int], not an option, so a thread switch allocates
          nothing). *)
  mutable last_yielded : bool;  (** Whether the previous step emitted a yield. *)
}
(** What a scheduler sees at one draw. A run loop reuses one record for
    the whole run and rewrites its fields between draws, so a scheduler
    reads it during [pick] and never keeps it. It carries no machine
    state: a run loop may execute a thread's invisible instructions
    ahead of the draws that account for them ({!Vm.run_ahead}), so the
    state at a draw can be ahead of the step count; the fields above are
    exactly what a one-instruction-per-draw loop would show. *)

type ledger = {
  mutable credit : int array;
      (** Per tid, how many of its coming draws the run loop has already
          executed (by running it ahead); tids past the end have none. *)
  mutable draws : int;  (** Draws taken so far in the run. *)
  budget : int;  (** The run's step budget: no draw is taken past it. *)
}
(** The run loop's account of the draws it owes, read and written by
    {!skip}. *)

type skipper
(** A scheduler's many-draw entry point, built together with its [pick]
    by the constructors below. *)

type t = {
  name : string;  (** For reports. *)
  pick : context -> int;  (** Chooses one of [context]'s runnable tids. *)
  skipper : skipper;
      (** Draws like [pick]. A record update that replaces [pick] ([{ s
          with pick = p }], e.g. to count or log the draws) leaves it
          stale; {!skip} notices and calls the new [pick] once per draw. *)
}

val skip : t -> context -> ledger -> int
(** [skip s ctx l] takes the draws [s.pick ctx] would take one at a
    time, from [l.draws < l.budget]. Each draw counts in [l.draws]; one
    that lands on a thread with credit decrements that credit and leaves
    [ctx.last] at that thread and [ctx.last_yielded] false, as the run
    loop would. It stops at the first draw of a thread with no credit and
    returns that thread, leaving [ctx] as it was before the draw: the
    caller executes its step and records [last] and [last_yielded]. It
    returns [-1] when [l.draws] reaches [l.budget] with every draw
    credited. The runnable set must not be empty, and stays unchanged
    throughout (credited draws execute nothing).

    The draws, the returned thread, the credits, [ctx] and the
    scheduler's state afterwards are exactly those of calling [pick] per
    draw, but the built-in schedulers skip runs of credited draws without
    a call each: [random] in one allocation-free loop over its generator,
    [sequential] and [cooperative] in O(1), [round_robin] in O(threads),
    [pct] in O(1) up to its next change point. [pinned], [recorded] and any
    [s] whose [pick] was replaced by record update go draw by draw
    through [pick]. *)

val round_robin : quantum:int -> unit -> t
(** Preemptive round-robin: runs each thread for up to [quantum] consecutive
    instructions, then rotates to the next runnable thread. A fresh mutable
    instance per call. *)

val random : seed:int -> unit -> t
(** Uniformly random preemptive scheduling, reproducible from [seed]. *)

val cooperative : unit -> t
(** Cooperative scheduling: keeps running the current thread until it
    yields, blocks or finishes; then rotates fairly (first runnable tid
    strictly greater than the current one, wrapping around). *)

val sequential : t
(** Always picks the lowest runnable tid. Deterministic and stateless; the
    reference for single-threaded semantics tests. *)

val pct : seed:int -> depth:int -> change_span:int -> unit -> t
(** Probabilistic Concurrency Testing (Burckhardt et al.): every thread gets
    a distinct random high priority; the highest-priority runnable thread
    always runs; at [depth - 1] step indices drawn uniformly from
    [\[0, change_span)], the currently running thread is demoted below all
    initial priorities. PCT finds bugs of preemption depth [d] with
    probability >= 1/(n·k^(d-1)) per run, which makes it a strong addition
    to the yield-inference portfolio. *)

val pinned : int list -> t
(** Replays a fixed decision list; falls back to the lowest runnable tid
    when the list is exhausted or the choice is not runnable. Together with
    {!recorded} this gives exact schedule replay: a violation found under
    any scheduler can be reproduced deterministically. *)

val recorded : t -> (unit -> int list) * t
(** [recorded s] wraps [s] so every decision is logged. Returns the
    accessor for the decisions so far (in order) and the wrapped scheduler.
    Replaying them through {!pinned} on the same program reproduces the
    execution exactly (the VM is deterministic given the schedule). *)
