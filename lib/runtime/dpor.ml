open Coop_trace

type result = {
  behaviors : Behavior.Set.t;
  executions : int;
  steps : int;  (* always novel_steps + replayed_steps *)
  novel_steps : int;
  replayed_steps : int;
  cache_hits : int;
  complete : bool;
}

(* A transition's footprint for the dependency relation, as four ints in
   a row of a flat array: the thread, its kind with bit 0 set for a
   write, and two operands. Kinds: 0 none; [k_var] a variable (a global's
   slot and -1, or an array id and index); [k_lock] a lock handle;
   [k_thread] a thread (fork/join of, or park-on-join for, it); [k_out]
   output (prints are globally ordered because output order is
   observable). *)
let k_var = 2 and k_lock = 4 and k_thread = 6 and k_out = 8

(* Whether rows [s.(i ..)] and [u.(j ..)] are dependent. Rows are in
   bounds by construction. *)
let dependent (s : int array) i (u : int array) j =
  let ta = Array.unsafe_get s i and tb = Array.unsafe_get u j in
  ta <> tb  (* program order needs no backtracking *)
  &&
  let ka = Array.unsafe_get s (i + 1) land -2
  and kb = Array.unsafe_get u (j + 1) land -2 in
  if ka = k_thread then Array.unsafe_get s (i + 2) = tb
  else if kb = k_thread then Array.unsafe_get u (j + 2) = ta
  else
    ka = kb
    && (ka = k_out
       || ka <> 0
          && Array.unsafe_get s (i + 2) = Array.unsafe_get u (j + 2)
          && (ka = k_lock
             || Array.unsafe_get s (i + 3) = Array.unsafe_get u (j + 3)
                && (Array.unsafe_get s (i + 1) lor Array.unsafe_get u (j + 1))
                   land 1
                   = 1))

(* Sets kind and operands of the footprint row [fp], keeping the
   written bit: a write stays a write whatever the step captures after. *)
let capture (fp : int array) kind a b =
  fp.(1) <- kind lor (fp.(1) land 1);
  fp.(2) <- a;
  fp.(3) <- b

(* One sink per run fills [fp] from the events of the transition being
   executed: the visible operation is recovered from the event it emits. *)
let footprint_sink fp (e : Event.t) =
  match e.op with
  | Event.Read (Event.Global g) -> capture fp k_var g (-1)
  | Event.Read (Event.Cell (x, i)) -> capture fp k_var x i
  | Event.Write (Event.Global g) -> capture fp (k_var + 1) g (-1)
  | Event.Write (Event.Cell (x, i)) -> capture fp (k_var + 1) x i
  | Event.Acquire l | Event.Release l -> capture fp k_lock l 0
  | Event.Fork t | Event.Join t -> capture fp k_thread t 0
  | Event.Out _ -> capture fp k_out 0 0
  | Event.Yield (* leaves a Wait's Release capture in place *)
  | Event.Enter _ | Event.Exit _ | Event.Atomic_begin | Event.Atomic_end -> ()

(* Execute one transition of [tid] in place ({!Vm.transition}: the
   invisible prefix, then one visible instruction or a park) and leave
   its footprint in [fp]; [false] when the prefix budget runs out. *)
let exec_transition ~yields ~max_segment fp sink st tid =
  fp.(0) <- tid;
  fp.(1) <- 0;
  capture fp 0 0 0;
  Vm.transition ~yields st tid ~fuel:max_segment ~sink
  && begin
    (match Vm.thread_status st tid with
    | Vm.Blocked_on_lock h | Vm.Waiting h | Vm.Reacquiring h ->
        capture fp k_lock h 0  (* parked or waiting: depends on the monitor *)
    | Vm.Blocked_on_join u -> capture fp k_thread u 0
    | _ -> ());
    true
  end

(* The DFS stack, flat and owned by one run: row [d] of each array
   belongs to the frame at depth [d] (0 is the initial state). A frame
   has four thread bitsets of [nw] words, 63 threads a word — enabled,
   backtrack, tried and sleep — the footprint of the step it last took,
   and its sleep entries: for each sleeping thread the footprint of the
   step it would take, whose subtree a sibling covered. Sleep entries
   live in one stack-ordered arena: a frame's start at [sleep_lo], its
   child's after its end, so the top frame may append. A parked frame
   holds its own pre-choice state in [slot], charged to the store's
   budget. When it pops, the charge goes but the state stays, as the copy
   destination of the next park at that depth: a run keeps one spare per
   parked depth it reached, each the last state charged there. *)
type frames = {
  mutable nw : int;
  mutable bits : int array;  (* (depth * 4 + set) * nw + word *)
  mutable taken : int array;  (* depth * 4: footprint row *)
  mutable slot : Vm.state array;
  mutable charged : int array;  (* 0 unparked, -1 refused by the budget *)
  mutable sleep_lo : int array;
  mutable arena : int array;  (* footprint rows *)
  mutable top : int;  (* end of the top frame's sleep entries *)
  root : Vm.state;  (* the initial state, never stepped; also "no slot" *)
  work : Vm.state;  (* the one state the run steps *)
}

let enabled = 0 and backtrack = 1 and tried = 2 and asleep = 3

let word f d set t = (((d * 4) + set) * f.nw) + (t / 63)
let mem f d set t = f.bits.(word f d set t) land (1 lsl (t mod 63)) <> 0

let add f d set t =
  let i = word f d set t in
  f.bits.(i) <- f.bits.(i) lor (1 lsl (t mod 63))

let rec lowest w n = if w land 1 = 1 then n else lowest (w lsr 1) (n + 1)

(* The least thread in [set] and not in [minus] at depth [d] from word
   [k] on, or -1. *)
let rec least f d set minus k =
  if k = f.nw then -1
  else
    let w = f.bits.(word f d set 0 + k) in
    let w =
      if minus < 0 then w else w land lnot f.bits.(word f d minus 0 + k)
    in
    if w = 0 then least f d set minus (k + 1) else (k * 63) + lowest w 0

(* Room for a frame at depth [d] over [n] threads: depth capacity grows
   by doubling, bitsets widen by whole words, rows keep their contents. *)
let reserve f d n =
  let cap = Array.length f.charged in
  let nw = max f.nw ((n + 62) / 63) in
  if d >= cap || nw > f.nw then begin
    let more = if d >= cap then cap else 0 in
    let cap' = cap + more in
    let bits = Array.make (cap' * 4 * nw) 0 in
    for row = 0 to (cap * 4) - 1 do
      Array.blit f.bits (row * f.nw) bits (row * nw) f.nw
    done;
    f.bits <- bits;
    f.nw <- nw;
    f.taken <- Array.append f.taken (Array.make (4 * more) 0);
    f.slot <- Array.append f.slot (Array.make more f.root);
    f.charged <- Array.append f.charged (Array.make more 0);
    f.sleep_lo <- Array.append f.sleep_lo (Array.make more 0)
  end

let push_sleep f (src : int array) i =
  if f.top + 4 > Array.length f.arena then
    f.arena <- Array.append f.arena (Array.make (Array.length f.arena) 0);
  for k = 0 to 3 do
    f.arena.(f.top + k) <- src.(i + k)
  done;
  f.top <- f.top + 4

(* Only every [ckpt_spacing]-th depth parks (the root always does).
   Parking copies the state, so parking every level would pay a copy on
   every novel step, eating most of what elision saves; a backtrack at an
   unparked depth replays at most [ckpt_spacing - 1] transitions from its
   nearest parked ancestor. Must be a power of two. *)
let ckpt_spacing = 4

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

let run ?(yields = Loc.Set.empty) ?(max_executions = 50_000)
    ?(max_depth = 10_000) ?(max_segment = 100_000) ?(no_cache = false)
    ?(sleep_sets = true) ?ckpt prog =
  let cache =
    if no_cache then None
    else Some (match ckpt with Some c -> c | None -> default_cache ())
  in
  let before = Option.map Coop_util.Ckpt_cache.stats cache in
  let behaviors = ref Behavior.Set.empty in
  let executions = ref 0 in
  let novel = ref 0 and replayed = ref 0 in
  let hits = ref 0 and misses = ref 0 in
  let complete = ref true in
  let root = Vm.init prog in
  let f =
    { nw = 1; bits = Array.make 256 0; taken = Array.make 256 0;
      slot = Array.make 64 root; charged = Array.make 64 0;
      sleep_lo = Array.make 64 0; arena = Array.make 64 0; top = 0; root;
      work = Vm.copy root }
  in
  let fp = Array.make 4 0 in
  let sink = footprint_sink fp in
  let step st tid = exec_transition ~yields ~max_segment fp sink st tid in
  (* Parks [st] at depth [d] if the budget has room for a copy. *)
  let park d st =
    match cache with
    | None -> ()
    | Some c ->
        (* The copy is weighed, not [st]: a stepped state's thread
           array may be longer than a copy's. *)
        if f.slot.(d) == root then f.slot.(d) <- Vm.copy st
        else Vm.copy_into ~dst:f.slot.(d) st;
        let w = Coop_util.Ckpt_cache.charge c f.slot.(d) in
        if w = 0 then f.slot.(d) <- root;  (* refused: keep no copy *)
        f.charged.(d) <- (if w = 0 then -1 else w)
  in
  let unpark d =
    (match cache with
    | Some c when f.charged.(d) > 0 ->
        Coop_util.Ckpt_cache.release c f.charged.(d)
    | _ -> ());
    f.charged.(d) <- 0
  in
  (* The frame at depth [d] over [st]: its sleep entries are the parent's
     minus those the parent's step [d - 1] woke. A frame whose every
     enabled transition is asleep is sleep-blocked — each continuation
     was covered in an earlier sibling subtree — so its backtrack set
     stays empty and it records nothing; otherwise it starts at the least
     awake thread. A frame at a parked depth parks unless its backtrack
     set starts empty, since such a frame has no descendants to
     re-derive. *)
  let make_frame d st =
    let n = Vm.n_threads st in
    if d >= Array.length f.charged || n > 63 * f.nw then reserve f d n;
    for k = 0 to f.nw - 1 do
      f.bits.(word f d enabled 0 + k) <- Vm.runnable_bits st k;
      f.bits.(word f d backtrack 0 + k) <- 0;
      f.bits.(word f d tried 0 + k) <- 0;
      f.bits.(word f d asleep 0 + k) <- 0
    done;
    f.sleep_lo.(d) <- f.top;
    if sleep_sets && d > 0 then
      for e = 0 to ((f.top - f.sleep_lo.(d - 1)) / 4) - 1 do
        let j = f.sleep_lo.(d - 1) + (4 * e) in
        if not (dependent f.arena j f.taken (4 * (d - 1))) then begin
          add f d asleep f.arena.(j);
          push_sleep f f.arena j
        end
      done;
    let first = least f d enabled asleep 0 in
    if first >= 0 then begin
      add f d backtrack first;
      if d land (ckpt_spacing - 1) = 0 then park d st
    end
  in
  (* Makes [f.work] the state before the choice at depth [i]: a copy of
     the parked state if there is one, else re-derived by replaying the
     parent's taken step onto the parent's state (recursively, from the
     deepest parked ancestor, or the root). Replay is deterministic —
     same yields, same fuel — so a transition that succeeded when first
     executed succeeds again. A frame refused by the budget tries to park
     the re-derived state. *)
  let rec state_at i =
    let w = f.charged.(i) in
    if w > 0 then begin
      incr hits;
      Vm.copy_into ~dst:f.work f.slot.(i)
    end
    else begin
      if i = 0 then Vm.copy_into ~dst:f.work root
      else begin
        state_at (i - 1);
        if not (step f.work f.taken.(4 * (i - 1))) then assert false;
        incr replayed
      end;
      if w < 0 then begin
        incr misses;
        park i f.work
      end
    end
  in
  (* After thread [tb] took the step at depth [d], add backtrack points
     at the last earlier frame whose taken step is dependent. *)
  let rec add_backtracks d i tb =
    if i >= 0 then
      if not (dependent f.taken (4 * i) f.taken (4 * d)) then
        add_backtracks d (i - 1) tb
      else if mem f i enabled tb then add f i backtrack tb
      else
        for k = 0 to f.nw - 1 do
          let b = word f i backtrack 0 + k in
          f.bits.(b) <- f.bits.(b) lor f.bits.(word f i enabled 0 + k)
        done
  in
  (* Explores from the frame at depth [d], whose pre-choice state is in
     [f.work]: the first choice steps it in place, later (backtracked)
     choices re-fetch it through [state_at]. *)
  let rec explore d =
    if !executions >= max_executions then complete := false
    else if least f d enabled (-1) 0 < 0 then begin
      incr executions;
      behaviors := Behavior.Set.add (Behavior.of_state f.work) !behaviors
    end
    else if d >= max_depth then complete := false
    else choose d true
  and choose d fresh =
    let p = least f d backtrack tried 0 in
    if p >= 0 then begin
      add f d tried p;
      if mem f d asleep p then
        (* Asleep: this transition's subtree was covered in a sibling and
           nothing dependent has happened since. *)
        choose d fresh
      else begin
        if not fresh then state_at d;
        if not (step f.work p) then begin
          complete := false;
          choose d false
        end
        else begin
          incr novel;
          for k = 0 to 3 do
            f.taken.((4 * d) + k) <- fp.(k)
          done;
          add_backtracks d (d - 1) p;
          (* The child's checkpoint serves only its own backtracked
             choices and its descendants' replays: it goes when the child
             pops. *)
          make_frame (d + 1) f.work;
          explore (d + 1);
          unpark (d + 1);
          f.top <- f.sleep_lo.(d + 1);
          if sleep_sets then begin
            add f d asleep p;
            push_sleep f f.taken (4 * d)
          end;
          if !executions < max_executions then choose d false
          else if least f d backtrack tried 0 >= 0 then
            (* Budget exhausted mid-frame: the remaining backtrack
               choices stay unexplored. *)
            complete := false
        end
      end
    end
  in
  make_frame 0 f.work;
  explore 0;
  unpark 0;
  Option.iter
    (fun c -> Coop_util.Ckpt_cache.tally c ~hits:!hits ~misses:!misses)
    cache;
  (match (cache, before) with
  | Some c, Some b -> flush_obs c b
  | _ -> ());
  {
    behaviors = !behaviors;
    executions = !executions;
    steps = !novel + !replayed;
    novel_steps = !novel;
    replayed_steps = !replayed;
    cache_hits = !hits;
    complete = !complete;
  }
