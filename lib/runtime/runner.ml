open Coop_trace

type termination =
  | Completed
  | Deadlock
  | Step_limit

type outcome = {
  final : Vm.state;
  termination : termination;
  steps : int;
}

(* Draws whose instructions a thread has already executed are at most
   this many per real step: it bounds what a step limit can make a run
   undo, and is otherwise never reached by a thread that touches shared
   state now and then. *)
let run_ahead_cap = 1024

(* Steps [st] in place from a point reached after [steps] draws, [last]
   and [last_yielded] describing the previous one. After each real
   [Vm.step] the thread runs ahead through its invisible instructions,
   and [l.credit.(tid)] of its later draws cost nothing but a
   decrement: the scheduler takes those inside {!Sched.skip}, which
   returns the first thread it draws with no credit, so the loop calls
   the scheduler once per real step. Those instructions touch nothing
   another thread, the runnable set or the sink can see, so each draw
   sees the context a one-instruction-per-draw loop would show it. A
   step limit can stop the run while a thread is ahead: its frame goes
   back to its mark and replays the draws it consumed. The runnable set
   is recomputed only after a step that reports writing what it depends
   on ({!Vm.runnable_changed}); most steps are reads and writes of
   shared memory, which leave it as it was. The context record, its
   runnable buffer, the ledger and the per-thread tables are reused, so
   a draw allocates nothing. *)
let resume_raw ~yields ~max_steps ~sched ~sink ~last ~last_yielded ~steps st =
  let ctx =
    { Sched.runnable = Array.make (max 8 (Vm.n_threads st)) 0; n_runnable = 0;
      last; last_yielded }
  in
  let refresh () =
    let n = Vm.n_threads st in
    if n > Array.length ctx.runnable then ctx.runnable <- Array.make (2 * n) 0;
    ctx.n_runnable <- Vm.runnable_into st ctx.runnable
  in
  refresh ();
  let l = { Sched.credit = [||]; draws = steps; budget = max_steps } in
  let ran = ref [||] and marks = ref [||] in
  let grow tid =
    let n = max 8 (2 * (tid + 1)) in
    let extend a fill =
      Array.init n (fun i -> if i < Array.length a then a.(i) else fill ())
    in
    l.credit <- extend l.credit (fun () -> 0);
    ran := extend !ran (fun () -> 0);
    marks := extend !marks Vm.new_mark
  in
  let rec loop () =
    if l.draws >= max_steps then begin
      Array.iteri
        (fun tid k ->
          if k > 0 then begin
            Vm.rewind !marks.(tid);
            let consumed = !ran.(tid) - k in
            let n = Vm.run_local ~yields st tid ~limit:consumed in
            assert (n = consumed)
          end)
        l.credit;
      { final = st; termination = Step_limit; steps = l.draws }
    end
    else if ctx.n_runnable = 0 then
      let termination = if Vm.all_quiescent st then Completed else Deadlock in
      { final = st; termination; steps = l.draws }
    else begin
      let tid = Sched.skip sched ctx l in
      if tid >= 0 then begin
        if tid >= Array.length l.credit then grow tid;
        ctx.last <- tid;
        ctx.last_yielded <- Vm.step ~yields st tid ~sink;
        if Vm.runnable_changed st then refresh ();
        let limit = min run_ahead_cap (max_steps - l.draws) in
        let n = Vm.run_ahead ~yields st tid ~limit !marks.(tid) in
        l.credit.(tid) <- n;
        !ran.(tid) <- n
      end;
      loop ()
    end
  in
  loop ()

let resume ?(yields = Loc.Set.empty) ?(max_steps = 10_000_000) ~sched ~sink
    ~last ~last_yielded ~steps st =
  let raw sink =
    resume_raw ~yields ~max_steps ~sched ~sink ~last ~last_yielded ~steps st
  in
  if not (Coop_obs.enabled ()) then raw sink
  else
    (* Telemetry path: one span per VM run, plus step and event-dispatch
       counters accumulated locally and flushed once — the checked-per-run
       branch above is the uninstrumented hot path's entire cost. *)
    Coop_obs.span ("vm/run:" ^ sched.Sched.name) (fun () ->
        let events = ref 0 in
        let outcome = raw (fun e -> incr events; sink e) in
        Coop_obs.count "vm/steps" (outcome.steps - steps);
        Coop_obs.count "vm/events" !events;
        outcome)

let run ?yields ?max_steps ~sched ~sink prog =
  resume ?yields ?max_steps ~sched ~sink ~last:(-1) ~last_yielded:false
    ~steps:0 (Vm.init prog)

let record ?yields ?max_steps ~sched prog =
  let trace = Trace.create () in
  let outcome =
    run ?yields ?max_steps ~sched ~sink:(Trace.Sink.recording trace) prog
  in
  (outcome, trace)

let analyze ?yields ?max_steps ~sched analysis prog =
  let outcome =
    run ?yields ?max_steps ~sched ~sink:(Analysis.sink analysis) prog
  in
  (outcome, Analysis.finalize analysis)

let source ?yields ?max_steps ~sched prog : Source.t =
 fun sink -> ignore (run ?yields ?max_steps ~sched:(sched ()) ~sink prog)

let behavior_of outcome = Behavior.of_state outcome.final

let pp_termination ppf = function
  | Completed -> Format.pp_print_string ppf "completed"
  | Deadlock -> Format.pp_print_string ppf "deadlock"
  | Step_limit -> Format.pp_print_string ppf "step-limit"
