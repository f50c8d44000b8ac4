open Coop_trace
module Key_set = Set.Make (String)

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

(* Partial exploration results, mergeable across shards. Terminal deadlock
   states are tracked as a key set (not a counter) so that the same state
   reached from two shards is still counted once in the merge — this keeps
   the [deadlocks] field identical to the sequential run's. *)
type partial = {
  p_behaviors : Behavior.Set.t;
  p_dead : Key_set.t;
  p_states : int;
  p_complete : bool;
  p_novel : int;  (* segments executed on the exploration frontier *)
}

let merge_partial a b =
  {
    p_behaviors = Behavior.Set.union a.p_behaviors b.p_behaviors;
    p_dead = Key_set.union a.p_dead b.p_dead;
    p_states = a.p_states + b.p_states;
    p_complete = a.p_complete && b.p_complete;
    p_novel = a.p_novel + b.p_novel;
  }

(* The memoized DFS, from an arbitrary start state. *)
let explore_from ~segment ~max_states st0 =
  let seen = Hashtbl.create 1024 in
  let behaviors = ref Behavior.Set.empty in
  let dead = ref Key_set.empty in
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
            if Vm.deadlocked st then dead := Key_set.add k !dead;
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
  visit st0;
  {
    p_behaviors = !behaviors;
    p_dead = !dead;
    p_states = !states;
    p_complete = !complete;
    p_novel = !novel;
  }

(* Breadth-first expansion of the top-level branch frontier until it is
   wide enough to keep every worker busy. Terminal states met on the way
   are recorded; interior states are deduplicated by {!Vm.key}. Returns
   the frontier plus the partial result of the expansion itself. *)
let expand_frontier ~segment ~target st0 =
  let seen = Hashtbl.create 256 in
  let behaviors = ref Behavior.Set.empty in
  let dead = ref Key_set.empty in
  let states = ref 0 in
  let novel = ref 0 in
  let complete = ref true in
  Hashtbl.add seen (Vm.key st0) ();
  let frontier = ref [ st0 ] in
  let levels = ref 0 in
  let continue_ = ref true in
  while !continue_ && List.length !frontier < target && !levels < 8 do
    incr levels;
    let next = ref [] in
    let grew = ref false in
    List.iter
      (fun st ->
        incr states;
        match Vm.runnable st with
        | [] ->
            let k = Vm.key st in
            if Vm.deadlocked st then dead := Key_set.add k !dead;
            behaviors := Behavior.Set.add (Behavior.of_state st) !behaviors
        | runnable ->
            List.iter
              (fun tid ->
                let st' = Vm.copy st in
                if not (segment st' tid) then complete := false
                else begin
                  incr novel;
                  let k = Vm.key st' in
                  if not (Hashtbl.mem seen k) then begin
                    Hashtbl.add seen k ();
                    grew := true;
                    next := st' :: !next
                  end
                end)
              runnable)
      !frontier;
    frontier := List.rev !next;
    if not !grew then continue_ := false
  done;
  ( !frontier,
    {
      p_behaviors = !behaviors;
      p_dead = !dead;
      p_states = !states;
      p_complete = !complete;
      p_novel = !novel;
    } )

let result_of_partial p =
  {
    behaviors = p.p_behaviors;
    complete = p.p_complete;
    states = p.p_states;
    deadlocks = Key_set.cardinal p.p_dead;
    novel_steps = p.p_novel;
  }

let run ?pool ?(yields = Loc.Set.empty) ?(max_states = 200_000)
    ?(max_segment = 100_000) ?(granularity = Visible_only) mode prog =
  let segment = segment_of ~yields ~max_segment mode granularity in
  let jobs = match pool with Some p -> Coop_util.Pool.jobs p | None -> 1 in
  let init = Vm.init prog in
  if jobs <= 1 then result_of_partial (explore_from ~segment ~max_states init)
  else begin
    let pool = Option.get pool in
    let frontier, expansion =
      expand_frontier ~segment ~target:(4 * jobs) init
    in
    (* Every frontier node becomes its own pool task, capturing its start
       state, so a node owning a disproportionate subtree re-balances
       onto idle domains via work stealing instead of serializing its
       static shard. Each task explores with its own memo table and the
       full state budget; cross-shard duplicates cost extra visits but
       never change the behaviour set. Awaiting in frontier order keeps
       the merge deterministic. *)
    let promises =
      List.map
        (fun st ->
          Coop_util.Pool.spawn pool (fun () ->
              explore_from ~segment ~max_states st))
        frontier
    in
    let shards = List.map (Coop_util.Pool.await pool) promises in
    result_of_partial (List.fold_left merge_partial expansion shards)
  end

let behaviors_equal a b =
  a.complete && b.complete && Behavior.Set.equal a.behaviors b.behaviors
