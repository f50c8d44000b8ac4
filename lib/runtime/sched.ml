type context = {
  mutable runnable : int array;
  mutable n_runnable : int;
  mutable last : int;
  mutable last_yielded : bool;
}

type ledger = {
  mutable credit : int array;
  mutable draws : int;
  budget : int;
}

(* [run] is the many-draw loop that stands for [owner], the [pick] it
   was built with: a record update that replaces [pick] leaves the two
   physically different, and [skip] then draws through the new [pick]. *)
type skipper = {
  owner : context -> int;
  run : context -> ledger -> int;
}

type t = {
  name : string;
  pick : context -> int;
  skipper : skipper;
}

let credit_of l tid = if tid < Array.length l.credit then l.credit.(tid) else 0
  [@@inline]

(* Spends one credit of [tid], as the run loop's credited draw would. *)
let credited ctx l tid =
  l.credit.(tid) <- l.credit.(tid) - 1;
  ctx.last <- tid;
  ctx.last_yielded <- false
  [@@inline]

(* The reference skip: one [pick] per draw. *)
let per_draw pick ctx l =
  let result = ref (-2) in
  while !result = -2 do
    let tid = pick ctx in
    l.draws <- l.draws + 1;
    if credit_of l tid = 0 then result := tid
    else begin
      credited ctx l tid;
      if l.draws >= l.budget then result := -1
    end
  done;
  !result

(* For a scheduler that keeps drawing the thread that ran last while it
   neither yields nor leaves the runnable set: after one [pick], the
   rest of the thread's credit and one more draw of it. *)
let sticky pick ctx l =
  let tid = pick ctx in
  l.draws <- l.draws + 1;
  let c = credit_of l tid in
  if c = 0 then tid
  else begin
    let m = min c (l.budget - l.draws + 1) in
    l.credit.(tid) <- c - m;
    l.draws <- l.draws + m - 1;
    ctx.last <- tid;
    ctx.last_yielded <- false;
    if l.draws >= l.budget then -1
    else begin
      l.draws <- l.draws + 1;
      tid
    end
  end

let with_skip ~name pick run = { name; pick; skipper = { owner = pick; run } }

let make ~name pick = with_skip ~name pick (per_draw pick)

let skip s ctx l =
  if s.skipper.owner == s.pick then s.skipper.run ctx l else per_draw s.pick ctx l

let lowest ctx =
  if ctx.n_runnable = 0 then invalid_arg "Sched: empty runnable set";
  ctx.runnable.(0)

let rec mem_from (tid : int) ctx i =
  i < ctx.n_runnable && (ctx.runnable.(i) = tid || mem_from tid ctx (i + 1))

let mem tid ctx = mem_from tid ctx 0

(* First runnable tid strictly greater than [cur], wrapping. *)
let rec next_from (cur : int) ctx i =
  if i = ctx.n_runnable then lowest ctx
  else if ctx.runnable.(i) > cur then ctx.runnable.(i)
  else next_from cur ctx (i + 1)

let next_after cur ctx = next_from cur ctx 0

let round_robin ~quantum () =
  if quantum <= 0 then invalid_arg "Sched.round_robin: quantum must be positive";
  let used = ref 0 in
  let pick ctx =
    let cur = ctx.last in
    if cur >= 0 && mem cur ctx && !used < quantum then begin
      incr used;
      cur
    end
    else begin
      used := 1;
      if cur >= 0 then next_after cur ctx else lowest ctx
    end
  in
  (* After one [pick], the draws rotate through the runnable slots in
     order: a thread stays for the rest of its quantum and the next slot
     follows. A thread with credit for a whole quantum takes it; the
     first one short of that ends the skip. At the first rotation, the
     whole rounds every runnable thread can pay for go at once. *)
  let run ctx l =
    let tid = ref (pick ctx) in
    l.draws <- l.draws + 1;
    if credit_of l !tid = 0 then !tid
    else begin
      let n = ctx.n_runnable in
      let slot = ref 0 in
      while ctx.runnable.(!slot) <> !tid do incr slot done;
      let result = ref (-2) and rounds_done = ref false in
      while !result = -2 do
        credited ctx l !tid;
        let c = l.credit.(!tid) and room = l.budget - l.draws in
        let stay = min (quantum - !used) room in
        if c < stay then begin
          (* Its credit, then one more draw of it. *)
          l.credit.(!tid) <- 0;
          used := !used + c + 1;
          l.draws <- l.draws + c + 1;
          result := !tid
        end
        else begin
          l.credit.(!tid) <- c - stay;
          used := !used + stay;
          l.draws <- l.draws + stay;
          if l.draws >= l.budget then result := -1
          else begin
            if not !rounds_done then begin
              rounds_done := true;
              let rounds = ref ((l.budget - l.draws) / (n * quantum)) in
              for i = 0 to n - 1 do
                rounds := min !rounds (credit_of l ctx.runnable.(i) / quantum)
              done;
              if !rounds > 0 then begin
                for i = 0 to n - 1 do
                  let t = ctx.runnable.(i) in
                  l.credit.(t) <- l.credit.(t) - (!rounds * quantum)
                done;
                l.draws <- l.draws + (!rounds * n * quantum)
              end
            end;
            if l.draws >= l.budget then result := -1
            else begin
              slot := if !slot + 1 = n then 0 else !slot + 1;
              tid := ctx.runnable.(!slot);
              used := 1;
              l.draws <- l.draws + 1;
              if credit_of l !tid = 0 then result := !tid
            end
          end
        end
      done;
      !result
    end
  in
  with_skip ~name:(Printf.sprintf "round-robin(q=%d)" quantum) pick run

let random ~seed () =
  let rng = Coop_util.Rng.create seed in
  let pick ctx =
    if ctx.n_runnable = 0 then invalid_arg "Sched: empty runnable set";
    ctx.runnable.(Coop_util.Rng.int rng ctx.n_runnable)
  in
  let run ctx l =
    let n = ctx.n_runnable in
    if n = 0 then invalid_arg "Sched: empty runnable set";
    let k =
      Coop_util.Rng.draw_while rng n ~keys:ctx.runnable ~counts:l.credit
        ~max:(l.budget - l.draws)
    in
    l.draws <- l.draws + k;
    if k > 0 then begin
      ctx.last <- ctx.runnable.(Coop_util.Rng.last_int rng n);
      ctx.last_yielded <- false
    end;
    if l.draws >= l.budget then -1
    else begin
      l.draws <- l.draws + 1;
      ctx.runnable.(Coop_util.Rng.int rng n)
    end
  in
  with_skip ~name:(Printf.sprintf "random(seed=%d)" seed) pick run

let cooperative () =
  let pick ctx =
    let cur = ctx.last in
    if cur < 0 then lowest ctx
    else if mem cur ctx && not ctx.last_yielded then cur
    else next_after cur ctx
  in
  with_skip ~name:"cooperative" pick (sticky pick)

let sequential = with_skip ~name:"sequential" lowest (sticky lowest)

let pct ~seed ~depth ~change_span () =
  if depth < 1 then invalid_arg "Sched.pct: depth must be >= 1";
  let rng = Coop_util.Rng.create seed in
  (* Distinct initial priorities, all above the demotion range [0, depth),
     by tid; -1 for a thread not seen yet. *)
  let priorities = ref (Array.make 8 (-1)) in
  let next_initial = ref depth in
  let room tid =
    if tid >= Array.length !priorities then begin
      let a = Array.make (2 * (tid + 1)) (-1) in
      Array.blit !priorities 0 a 0 (Array.length !priorities);
      priorities := a
    end
  in
  let priority_of tid =
    room tid;
    let p = !priorities.(tid) in
    if p >= 0 then p
    else begin
      (* Insert at a random rank among the existing initial priorities by
         drawing a fresh value; collisions resolved by tid for
         determinism. *)
      let p = !next_initial + Coop_util.Rng.int rng 1000 in
      incr next_initial;
      !priorities.(tid) <- p;
      p
    end
  in
  let change_points =
    List.init (depth - 1) (fun _ -> Coop_util.Rng.int rng (max 1 change_span))
    |> List.sort_uniq Int.compare
  in
  let remaining = ref change_points in
  let next_demotion = ref 0 in
  let step = ref 0 in
  let pick ctx =
    (* Demote the thread that ran the previous step when we crossed a
       change point. *)
    (match !remaining with
    | cp :: rest when ctx.last >= 0 && !step > cp ->
        remaining := rest;
        room ctx.last;
        !priorities.(ctx.last) <- !next_demotion;
        incr next_demotion
    | _ -> ());
    incr step;
    let best = ref (lowest ctx) in
    let best_p = ref (priority_of !best) in
    for i = 1 to ctx.n_runnable - 1 do
      let tid = ctx.runnable.(i) in
      let p = priority_of tid in
      if p > !best_p then begin
        best := tid;
        best_p := p
      end
    done;
    !best
  in
  (* Until a pick demotes someone, the priorities and the runnable set
     stay as they are, so every pick returns the same thread: after a
     credited draw, the ones up to the next change point cost one
     subtraction. *)
  let run ctx l =
    let tid = ref (pick ctx) in
    l.draws <- l.draws + 1;
    let result = ref (-2) in
    while !result = -2 do
      if credit_of l !tid = 0 then result := !tid
      else begin
        credited ctx l !tid;
        let quiet =
          match !remaining with cp :: _ -> max 0 (cp + 1 - !step) | [] -> max_int
        in
        let m = min quiet (min l.credit.(!tid) (l.budget - l.draws)) in
        l.credit.(!tid) <- l.credit.(!tid) - m;
        step := !step + m;
        l.draws <- l.draws + m;
        if l.draws >= l.budget then result := -1
        else begin
          tid := pick ctx;
          l.draws <- l.draws + 1
        end
      end
    done;
    !result
  in
  with_skip ~name:(Printf.sprintf "pct(seed=%d,d=%d)" seed depth) pick run

let recorded inner =
  let log = ref [] in
  let pick ctx =
    let t = inner.pick ctx in
    log := t :: !log;
    t
  in
  ((fun () -> List.rev !log), make ~name:(inner.name ^ "+recorded") pick)

let pinned decisions =
  let rest = ref decisions in
  let pick ctx =
    match !rest with
    | d :: tl when mem d ctx ->
        rest := tl;
        d
    | _ :: tl ->
        rest := tl;
        lowest ctx
    | [] -> lowest ctx
  in
  make ~name:"pinned" pick
