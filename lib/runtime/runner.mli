(** Driving a program to completion under a scheduler.

    This is the "RoadRunner" of the reproduction: it executes the program,
    streams every event to the given sink (race detector, cooperability
    automaton, a recording trace, or nothing at all for baseline timing),
    and reports how the run ended. *)

open Coop_trace

(** How a run terminated. *)
type termination =
  | Completed  (** Every thread finished or faulted. *)
  | Deadlock  (** Some thread is blocked forever. *)
  | Step_limit  (** The step budget ran out. *)

type outcome = {
  final : Vm.state;  (** The last machine state. *)
  termination : termination;
  steps : int;  (** Steps taken, one per scheduler draw. *)
}

val run :
  ?yields:Loc.Set.t ->
  ?max_steps:int ->
  sched:Sched.t ->
  sink:Trace.Sink.t ->
  Coop_lang.Bytecode.program ->
  outcome
(** [run ?yields ?max_steps ~sched ~sink prog] executes [prog] from its
    initial state. [yields] injects extra yield points (see {!Vm.step}).
    [max_steps] defaults to 10 million. *)

val resume :
  ?yields:Loc.Set.t ->
  ?max_steps:int ->
  sched:Sched.t ->
  sink:Trace.Sink.t ->
  last:int ->
  last_yielded:bool ->
  steps:int ->
  Vm.state ->
  outcome
(** [resume ~sched ~sink ~last ~last_yielded ~steps st] continues a run
    from [st], stepping it in place: [steps] draws were already taken
    (they count against [max_steps] and in [outcome.steps]), the last by
    thread [last] ([-1] for none), and [last_yielded] tells whether that
    step yielded. [sched] must be in the state those draws left it in.
    {!run} is [resume] from the initial state with [steps = 0]; a run
    split into a prefix and a [resume] takes the same steps and emits the
    same events as the whole run.

    The loop executes a thread's invisible instructions
    ({!Vm.run_ahead}) right after its real steps and charges them to its
    later draws, which [sched] takes in bulk ({!Sched.skip}): one call
    per real step, however many draws it covers. The draws, events,
    steps, termination and final state ({!Vm.key} included, also at the
    step limit) are exactly those of asking [sched.pick] once per draw
    and executing one instruction each. *)

val record :
  ?yields:Loc.Set.t ->
  ?max_steps:int ->
  sched:Sched.t ->
  Coop_lang.Bytecode.program ->
  outcome * Trace.t
(** Like {!run} with a recording sink; returns the trace. *)

val analyze :
  ?yields:Loc.Set.t ->
  ?max_steps:int ->
  sched:Sched.t ->
  'r Analysis.t ->
  Coop_lang.Bytecode.program ->
  outcome * 'r
(** No-materialization mode: execute once, feeding every event straight
    from the VM into the analysis — no trace is recorded — and finalize.
    The single-pass analogue of {!record}+offline checking. *)

val source :
  ?yields:Loc.Set.t ->
  ?max_steps:int ->
  sched:(unit -> Sched.t) ->
  Coop_lang.Bytecode.program ->
  Source.t
(** The program-as-a-stream: each invocation of the source re-executes the
    program and streams its events. [sched] must build a fresh,
    identically seeded scheduler per call — the VM is deterministic given
    the schedule, so every replay then yields the identical event
    sequence, which is what multi-phase analyses (e.g.
    [Coop_pipeline.run ~two_pass:true]) require. *)

val behavior_of : outcome -> Behavior.t
(** The observable behaviour of an outcome. *)

val pp_termination : Format.formatter -> termination -> unit
(** "completed", "deadlock" or "step-limit". *)
