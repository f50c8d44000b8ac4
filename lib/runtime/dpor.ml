open Coop_trace
module Iset = Set.Make (Int)

type result = {
  behaviors : Behavior.Set.t;
  executions : int;
  steps : int;  (* always novel_steps + replayed_steps *)
  novel_steps : int;
  replayed_steps : int;
  cache_hits : int;
  complete : bool;
}

(* The object a transition touches, for the dependency relation. *)
type obj =
  | Ovar of Event.var
  | Olock of int
  | Othread of int  (* fork/join of, or park-on-join for, this thread *)
  | Oout  (* print: globally ordered because output order is observable *)
  | Onone

type step_info = {
  tid : int;
  obj : obj;
  is_write : bool;
}

let dependent a b =
  if a.tid = b.tid then false  (* program order needs no backtracking *)
  else begin
    match (a.obj, b.obj) with
    | Ovar v, Ovar w ->
        Event.equal_var v w && (a.is_write || b.is_write)
    | Olock l, Olock m -> l = m
    | Oout, Oout -> true
    | Othread t, _ -> t = b.tid
    | _, Othread t -> t = a.tid
    | _ -> false
  end

(* Execute one transition of [tid] in place ({!Vm.transition}: the
   invisible prefix, then one visible instruction or a park). Returns the
   step summary, or [None] when the prefix budget runs out. The visible
   operation is recovered from the event the step emits. *)
let exec_transition ~yields ~max_segment st tid =
  let captured = ref Onone in
  let wrote = ref false in
  let sink (e : Event.t) =
    match e.op with
    | Event.Read v -> captured := Ovar v
    | Event.Write v ->
        captured := Ovar v;
        wrote := true
    | Event.Acquire l | Event.Release l -> captured := Olock l
    | Event.Fork t | Event.Join t -> captured := Othread t
    | Event.Out _ -> captured := Oout
    | Event.Yield -> ()  (* leaves a Wait's Release capture in place *)
    | Event.Enter _ | Event.Exit _ | Event.Atomic_begin | Event.Atomic_end ->
        ()
  in
  if not (Vm.transition ~yields st tid ~fuel:max_segment ~sink) then None
  else
    let obj =
      match Vm.thread_status st tid with
      | Vm.Blocked_on_lock h | Vm.Waiting h | Vm.Reacquiring h ->
          Olock h  (* parked or waiting: depends on the monitor *)
      | Vm.Blocked_on_join u -> Othread u
      | _ -> !captured
    in
    Some { tid; obj; is_write = !wrote }

(* Frames no longer pin a [Vm.state]: a frame holds only the choice
   bookkeeping plus the checkpoint [key] of its pre-choice state — the
   run's nonce and a per-run frame counter, since every frame is a
   distinct node of the execution tree. The state before the choice is
   fetched (copied) from the shared checkpoint store and, on a miss,
   re-derived by replaying the recorded path from the deepest cached
   ancestor — so peak memory is the cache cap, not stack-depth states,
   and backtracked executions skip re-running their shared prefix. *)
type frame = {
  key : string;  (* checkpoint key of the pre-choice state; "" if unparked *)
  enabled : Iset.t;
  mutable backtrack : Iset.t;
  mutable tried : Iset.t;
  mutable taken : step_info option;  (* the step executed from this frame *)
  mutable sleep : (int * step_info) list;
      (* threads whose next transition was fully explored in a sibling
         subtree; skipped here, woken by dependent steps (sleep sets) *)
}

(* Distinguishes checkpoint keys of concurrent/successive runs sharing
   one store; replay only ever hits keys written by the same run. *)
let run_nonce = Atomic.make 0

(* Checkpoint spacing: only every [ckpt_spacing]-th stack depth is parked
   in the store (the root always is). Parking copies the state, so parking
   every level would pay a full copy on every novel step, eating most of
   what elision saves; with spacing, a backtracked choice at an unparked
   depth replays at most [ckpt_spacing - 1] transitions from its nearest
   parked ancestor. Must be a power of two. *)
let ckpt_spacing = 4

let parked_depth i = i land (ckpt_spacing - 1) = 0

(* Removed checkpoints a run keeps for reuse as copy destinations. *)
let max_spares = 16

(* One DPOR exploration. [root_only = Some p] restricts the root frame to
   the single first choice [p]: its siblings are pre-marked tried, so a
   shard explores exactly the subtree rooted at first step [p]. Lazy
   backtrack additions at the root — the persistent-set requests DPOR
   discovers while exploring that subtree — are reported through
   [root_notify] instead of being mutated into the (already restricted)
   root frame: [run] turns each newly requested root choice into a fresh
   pool task, so shards are spawned on demand rather than pre-sharded
   over every enabled tid. The spawned set is a deterministic fixpoint (a
   superset of the sequential root persistent set, hence sound); the
   shards lose the root-level sleep sets, so they may re-explore
   executions a sequential run would have pruned (counted in
   [executions]/[steps]), but the behaviour set is exact either way. *)
let run_seq ?root_only ?root_notify ?cache ?(sleep_sets = true)
    ?(yields = Loc.Set.empty) ?(max_executions = 50_000)
    ?(max_depth = 10_000) ?(max_segment = 100_000) prog =
  let behaviors = ref Behavior.Set.empty in
  let executions = ref 0 in
  let novel = ref 0 in
  let replayed = ref 0 in
  let cache_hits = ref 0 in
  let complete = ref true in
  let record st =
    incr executions;
    behaviors := Behavior.Set.add (Behavior.of_state st) !behaviors
  in
  (* The execution stack; index 0 is the initial state. *)
  let stack : frame array ref = ref [||] in
  let depth = ref 0 in
  let push frame =
    if !depth >= Array.length !stack then begin
      let bigger =
        Array.make (max 64 (2 * Array.length !stack)) frame
      in
      Array.blit !stack 0 bigger 0 (Array.length !stack);
      stack := bigger
    end;
    !stack.(!depth) <- frame;
    incr depth
  in
  (* Checkpoint keys: the run's nonce plus a per-run frame counter, its
     8 bytes appended raw (formatting it as decimal cost about as much as
     the store insert). [park] stores a copy of a frame's pre-choice state
     and returns its key ([""] without a store); [drop] removes it when
     the frame pops. Only this run names its keys, and it copies a
     fetched state at once, so a removed checkpoint is referenced by
     nothing else: it becomes a spare that a later copy is written into
     ({!Vm.copy_into}) instead of a fresh allocation. The end of an
     execution pops its parked frames in a row and the next descent parks
     about as many, so a few spares serve most copies; [max_spares]
     bounds what the run holds outside the store's cap. *)
  let key_base = "dpor" ^ string_of_int (Atomic.fetch_and_add run_nonce 1) ^ ":" in
  let parked = ref 0 in
  let spares = ref [] and n_spares = ref 0 in
  let private_copy st =
    match !spares with
    | dst :: rest ->
        spares := rest;
        decr n_spares;
        Vm.copy_into ~dst st;
        dst
    | [] -> Vm.copy st
  in
  let park st =
    match cache with
    | Some c ->
        incr parked;
        let n = String.length key_base in
        let key = Bytes.create (n + 8) in
        Bytes.blit_string key_base 0 key 0 n;
        Bytes.set_int64_le key n (Int64.of_int !parked);
        let key = Bytes.unsafe_to_string key in
        Coop_util.Ckpt_cache.add c key (private_copy st);
        key
    | None -> ""
  in
  let drop key =
    match cache with
    | Some c when key <> "" -> (
        match Coop_util.Ckpt_cache.remove c key with
        | Some st when !n_spares < max_spares ->
            spares := st :: !spares;
            incr n_spares
        | _ -> ())
    | _ -> ()
  in
  (* A frame at a parked depth gets a checkpoint unless its backtrack set
     starts empty — nothing enabled, or all of it asleep — since such a
     frame takes no step and has no descendants to re-derive. *)
  let make_frame ?(sleep = []) ~parked st =
    let enabled = Iset.of_list (Vm.runnable st) in
    let awake =
      Iset.filter (fun p -> not (List.mem_assoc p sleep)) enabled
    in
    let backtrack =
      (* Textbook sleep sets: a frame whose every enabled transition is
         asleep is sleep-blocked — each continuation was fully covered in
         an earlier sibling subtree, so exploring any of them here would
         only re-derive known behaviours. Leave the backtrack set empty
         and the frame records nothing. *)
      match Iset.min_elt_opt awake with
      | Some p -> Iset.singleton p
      | None -> Iset.empty
    in
    let key = if parked && not (Iset.is_empty backtrack) then park st else "" in
    { key; enabled; backtrack; tried = Iset.empty; taken = None; sleep }
  in
  (* State before the choice at depth [i], private to the caller: a copy
     of the cached checkpoint if present, else re-derived by replaying the
     recorded step of the parent frame onto the parent's state
     (recursively, from the deepest cached ancestor). Replay is
     deterministic — same yields, same fuel — so a transition that
     succeeded when first executed succeeds again. Cached states are
     never stepped: a re-derived state goes back in as a copy. *)
  let rec state_at i =
    let fr = !stack.(i) in
    let rederive () =
      if i = 0 then Vm.init prog
      else begin
        let st = state_at (i - 1) in
        let info =
          match !stack.(i - 1).taken with
          | Some info -> info
          | None -> assert false  (* ancestors always have a taken step *)
        in
        match exec_transition ~yields ~max_segment st info.tid with
        | Some _ ->
            incr replayed;
            st
        | None -> assert false  (* succeeded when first executed *)
      end
    in
    match cache with
    | Some c when fr.key <> "" -> (
        match Coop_util.Ckpt_cache.find c fr.key with
        | Some st ->
            incr cache_hits;
            private_copy st
        | None ->
            let st = rederive () in
            Coop_util.Ckpt_cache.add c fr.key (private_copy st);
            st)
    | _ -> rederive ()
  in
  (* After taking step [info] at depth d (from frame d), add backtrack
     points at the last earlier frame whose taken step is dependent. *)
  let add_backtracks info upto =
    let rec find i =
      if i < 0 then ()
      else begin
        match !stack.(i).taken with
        | Some prior when dependent prior info ->
            let fr = !stack.(i) in
            let additions =
              if Iset.mem info.tid fr.enabled then Iset.singleton info.tid
              else fr.enabled
            in
            (match (i, root_notify) with
            | 0, Some notify -> notify additions
            | _ -> fr.backtrack <- Iset.union fr.backtrack additions)
        | _ -> find (i - 1)
      end
    in
    find upto
  in
  (* [explore st_here] explores from the frame just pushed, whose
     pre-choice state [st_here] the caller hands over — the first choice
     steps it in place at no lookup; later (backtracked) choices re-fetch
     the frame's state through [state_at]. *)
  let rec explore st_here =
    if !executions >= max_executions then complete := false
    else begin
      let fr = !stack.(!depth - 1) in
      if Iset.is_empty fr.enabled then record st_here
      else if !depth > max_depth then complete := false
      else begin
        let fresh = ref (Some st_here) in
        let frame_state () =
          match !fresh with
          | Some st ->
              fresh := None;
              st
          | None -> state_at (!depth - 1)
        in
        let continue_ = ref true in
        while !continue_ do
          match Iset.min_elt_opt (Iset.diff fr.backtrack fr.tried) with
          | None -> continue_ := false
          | Some p when List.mem_assoc p fr.sleep ->
              (* Asleep: this transition's subtree was covered in a sibling
                 and nothing dependent has happened since. *)
              fr.tried <- Iset.add p fr.tried
          | Some p -> (
              fr.tried <- Iset.add p fr.tried;
              let st = frame_state () in
              match exec_transition ~yields ~max_segment st p with
              | None -> complete := false
              | Some info ->
                  incr novel;
                  fr.taken <- Some info;
                  add_backtracks info (!depth - 2);
                  let child_sleep =
                    if not sleep_sets then []
                    else
                      List.filter
                        (fun (_, i) -> not (dependent i info))
                        fr.sleep
                  in
                  (* The child frame lands at stack index [!depth]. Its
                     checkpoint serves only its own backtracked choices
                     and its descendants' replays, so it is dropped when
                     the frame pops. *)
                  let child =
                    make_frame ~sleep:child_sleep ~parked:(parked_depth !depth) st
                  in
                  push child;
                  explore st;
                  decr depth;
                  drop child.key;
                  if sleep_sets then fr.sleep <- (p, info) :: fr.sleep;
                  if !executions >= max_executions then begin
                    (* Budget exhausted mid-frame: the remaining backtrack
                       choices stay unexplored. *)
                    if not (Iset.is_empty (Iset.diff fr.backtrack fr.tried))
                    then complete := false;
                    continue_ := false
                  end)
        done
      end
    end
  in
  let st0 = Vm.init prog in
  let root = make_frame ~parked:true st0 in
  (match root_only with
  | Some p ->
      root.backtrack <- Iset.singleton p;
      root.tried <- Iset.remove p root.enabled
  | None -> ());
  push root;
  explore st0;
  drop root.key;
  {
    behaviors = !behaviors;
    executions = !executions;
    steps = !novel + !replayed;
    novel_steps = !novel;
    replayed_steps = !replayed;
    cache_hits = !cache_hits;
    complete = !complete;
  }

(* Flush the store's counter deltas attributable to one [run] into the
   telemetry registers (the store itself has no Coop_obs dependency and
   may be shared across runs, hence deltas). *)
let flush_obs c (before : Coop_util.Ckpt_cache.stats) =
  if Coop_obs.enabled () then begin
    let open Coop_util.Ckpt_cache in
    let s = stats c in
    Coop_obs.count "ckpt/hits" (s.hits - before.hits);
    Coop_obs.count "ckpt/misses" (s.misses - before.misses);
    Coop_obs.count "ckpt/evictions" (s.evictions - before.evictions);
    Coop_obs.gauge "ckpt/bytes" (float_of_int s.bytes);
    Coop_obs.gauge "ckpt/peak_bytes" (float_of_int s.peak_bytes)
  end

let default_cache () =
  Coop_util.Ckpt_cache.create
    ~weight:(fun st -> 8 * Vm.approx_words st)
    ()

let run ?pool ?yields ?max_executions ?max_depth ?max_segment
    ?(no_cache = false) ?(sleep_sets = true) ?ckpt prog =
  let cache =
    if no_cache then None
    else Some (match ckpt with Some c -> c | None -> default_cache ())
  in
  let before = Option.map Coop_util.Ckpt_cache.stats cache in
  let finish r =
    (match (cache, before) with
    | Some c, Some b -> flush_obs c b
    | _ -> ());
    r
  in
  let jobs = match pool with Some p -> Coop_util.Pool.jobs p | None -> 1 in
  let roots = Vm.runnable (Vm.init prog) in
  if jobs <= 1 || List.length roots <= 1 then
    finish
      (run_seq ?cache ~sleep_sets ?yields ?max_executions ?max_depth
         ?max_segment prog)
  else begin
    let pool = Option.get pool in
    (* Dynamic root sharding: start from the root choice the sequential
       run would take first, and spawn a task for every further root
       choice the shards' persistent-set requests discover, exactly
       once each. The set so spawned is the least fixpoint of those
       (deterministic) requests, so it does not depend on pool size or
       on which domain ran which shard — the determinism suites rely on
       this. Tasks spawn from inside tasks, which is what the
       work-stealing pool is for. *)
    let mutex = Mutex.create () in
    let spawned = ref Iset.empty in
    let promises : (int * result Coop_util.Pool.promise) list ref =
      ref []
    in
    let rec launch p =
      if not (Iset.mem p !spawned) then begin
        spawned := Iset.add p !spawned;
        let promise =
          Coop_util.Pool.spawn pool (fun () ->
              (* Shards share the one store: checkpoint keys carry a
                 per-run nonce, and the store is mutex-protected. *)
              run_seq ~root_only:p ~root_notify ?cache ~sleep_sets ?yields
                ?max_executions ?max_depth ?max_segment prog)
        in
        promises := (p, promise) :: !promises
      end
    and root_notify tids =
      Mutex.lock mutex;
      Iset.iter launch tids;
      Mutex.unlock mutex
    in
    root_notify (Iset.singleton (List.fold_left min (List.hd roots) roots));
    (* Await until no shard has requested anything new: results are
       keyed by root tid and merged in tid order below, so the fold is
       deterministic whatever order the shards finished in. *)
    let collected = ref [] in
    let awaited = ref Iset.empty in
    let rec drain () =
      let todo =
        Mutex.lock mutex;
        let l =
          List.filter (fun (t, _) -> not (Iset.mem t !awaited)) !promises
        in
        Mutex.unlock mutex;
        l
      in
      if todo <> [] then begin
        List.iter
          (fun (t, promise) ->
            awaited := Iset.add t !awaited;
            collected := (t, Coop_util.Pool.await pool promise) :: !collected)
          todo;
        drain ()
      end
    in
    drain ();
    let shards =
      List.sort (fun (a, _) (b, _) -> compare a b) !collected
      |> List.map snd
    in
    finish
      (List.fold_left
         (fun acc r ->
           {
             behaviors = Behavior.Set.union acc.behaviors r.behaviors;
             executions = acc.executions + r.executions;
             steps = acc.steps + r.steps;
             novel_steps = acc.novel_steps + r.novel_steps;
             replayed_steps = acc.replayed_steps + r.replayed_steps;
             cache_hits = acc.cache_hits + r.cache_hits;
             complete = acc.complete && r.complete;
           })
         { behaviors = Behavior.Set.empty; executions = 0; steps = 0;
           novel_steps = 0; replayed_steps = 0; cache_hits = 0;
           complete = true }
         shards)
  end
