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

(* Steps one private state in place. The runnable array and the [last]
   option are reused while unchanged, so a step allocates only the
   scheduler's context record. *)
let run_raw ~yields ~max_steps ~sched ~sink prog =
  let st = Vm.init prog in
  let rec loop runnable last steps =
    if steps >= max_steps then { final = st; termination = Step_limit; steps }
    else begin
      let runnable = Vm.runnable_array st runnable in
      if Array.length runnable = 0 then
        let termination = if Vm.all_quiescent st then Completed else Deadlock in
        { final = st; termination; steps }
      else begin
        let ctx =
          { Sched.state = st; runnable; last;
            last_yielded = Vm.last_step_yielded st }
        in
        let tid = sched.Sched.pick ctx in
        Vm.step ~yields st tid ~sink;
        let last = match last with Some l when l = tid -> last | _ -> Some tid in
        loop runnable last (steps + 1)
      end
    end
  in
  loop [||] None 0

let run ?(yields = Loc.Set.empty) ?(max_steps = 10_000_000) ~sched ~sink prog =
  if not (Coop_obs.enabled ()) then run_raw ~yields ~max_steps ~sched ~sink prog
  else
    (* Telemetry path: one span per VM run, plus step and event-dispatch
       counters accumulated locally and flushed once — the checked-per-run
       branch above is the uninstrumented hot path's entire cost. *)
    Coop_obs.span ("vm/run:" ^ sched.Sched.name) (fun () ->
        let events = ref 0 in
        let counting e = incr events; sink e in
        let outcome = run_raw ~yields ~max_steps ~sched ~sink:counting prog in
        Coop_obs.count "vm/steps" outcome.steps;
        Coop_obs.count "vm/events" !events;
        outcome)

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
