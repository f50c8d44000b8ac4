open Coop_trace

type mode =
  | Preemptive
  | Cooperative

type granularity =
  | Every_instruction
  | Visible_only

type result = {
  behaviors : Behavior.Set.t;
  complete : bool;
  states : int;
  deadlocks : int;
  novel_steps : int;
}

(* One scheduling decision in preemptive mode: execute [tid]'s invisible
   prefix eagerly, then one visible instruction (or park). *)
let macro_step ~yields ~max_segment st tid =
  Vm.transition ~yields st tid ~fuel:max_segment ~sink:Trace.Sink.ignore

(* One scheduling decision in cooperative mode: run [tid] until it yields,
   blocks, faults or finishes. Its invisible instructions run in one go. *)
let coop_segment ~yields ~max_segment st tid =
  let sink = Trace.Sink.ignore in
  let rec go fuel =
    let fuel = fuel - Vm.run_local ~yields st tid ~limit:fuel in
    fuel > 0
    && (Vm.step ~yields st tid ~sink
       || match Vm.thread_status st tid with
          | Vm.Runnable -> go (fuel - 1)
          | Vm.Finished | Vm.Faulted _ | Vm.Blocked_on_lock _
          | Vm.Blocked_on_join _ | Vm.Waiting _ | Vm.Reacquiring _ ->
              true)
  in
  go max_segment

(* One scheduling decision at instruction granularity: a single step. *)
let single_step ~yields st tid =
  ignore (Vm.step ~yields st tid ~sink:Trace.Sink.ignore);
  true

(* A segment runs one scheduling decision of [tid] on [st] in place and
   returns [false] when the segment budget ran out (the state is then
   half-stepped and must be discarded). *)
let segment_of ~yields ~max_segment mode granularity =
  match (mode, granularity) with
  | Preemptive, Visible_only -> macro_step ~yields ~max_segment
  | Preemptive, Every_instruction -> single_step ~yields
  | Cooperative, _ -> coop_segment ~yields ~max_segment

(* The memoized DFS. Each state is visited once, so a terminal deadlock
   is counted once. *)
let run ?(yields = Loc.Set.empty) ?(max_states = 200_000)
    ?(max_segment = 100_000) ?(granularity = Visible_only) mode prog =
  let segment = segment_of ~yields ~max_segment mode granularity in
  let seen = Hashtbl.create 1024 in
  let behaviors = ref Behavior.Set.empty in
  let deadlocks = ref 0 in
  let complete = ref true in
  let states = ref 0 in
  let novel = ref 0 in
  let rec visit st =
    if !states >= max_states then complete := false
    else begin
      let k = Vm.key st in
      if not (Hashtbl.mem seen k) then begin
        Hashtbl.add seen k ();
        incr states;
        match Vm.runnable st with
        | [] ->
            if Vm.deadlocked st then incr deadlocks;
            behaviors := Behavior.Set.add (Behavior.of_state st) !behaviors
        | runnable ->
            (* Each successor steps its own copy; the last one may step
               [st] itself, which nothing reads afterwards. *)
            let rec successors = function
              | [] -> ()
              | tid :: rest ->
                  let st' = match rest with [] -> st | _ -> Vm.copy st in
                  if segment st' tid then begin
                    incr novel;
                    visit st'
                  end
                  else complete := false;
                  successors rest
            in
            successors runnable
      end
    end
  in
  visit (Vm.init prog);
  {
    behaviors = !behaviors;
    complete = !complete;
    states = !states;
    deadlocks = !deadlocks;
    novel_steps = !novel;
  }

let behaviors_equal a b =
  a.complete && b.complete && Behavior.Set.equal a.behaviors b.behaviors
