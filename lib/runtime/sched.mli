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

type t = {
  name : string;  (** For reports. *)
  pick : context -> int;  (** Chooses one of [context]'s runnable tids. *)
}

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
