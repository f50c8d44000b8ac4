type context = {
  mutable runnable : int array;
  mutable n_runnable : int;
  mutable last : int;
  mutable last_yielded : bool;
}

type t = {
  name : string;
  pick : context -> int;
}

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
  { name = Printf.sprintf "round-robin(q=%d)" quantum; pick }

let random ~seed () =
  let rng = Coop_util.Rng.create seed in
  let pick ctx =
    if ctx.n_runnable = 0 then invalid_arg "Sched: empty runnable set";
    ctx.runnable.(Coop_util.Rng.int rng ctx.n_runnable)
  in
  { name = Printf.sprintf "random(seed=%d)" seed; pick }

let cooperative () =
  let pick ctx =
    let cur = ctx.last in
    if cur < 0 then lowest ctx
    else if mem cur ctx && not ctx.last_yielded then cur
    else next_after cur ctx
  in
  { name = "cooperative"; pick }

let sequential = { name = "sequential"; pick = lowest }

let pct ~seed ~depth ~change_span () =
  if depth < 1 then invalid_arg "Sched.pct: depth must be >= 1";
  let rng = Coop_util.Rng.create seed in
  (* Distinct initial priorities, all above the demotion range [0, depth). *)
  let priorities : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let next_initial = ref depth in
  let priority_of tid =
    match Hashtbl.find priorities tid with
    | p -> p
    | exception Not_found ->
        (* Insert at a random rank among the existing initial priorities by
           drawing a fresh value; collisions resolved by tid for
           determinism. *)
        let p = !next_initial + Coop_util.Rng.int rng 1000 in
        incr next_initial;
        Hashtbl.add priorities tid p;
        p
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
        Hashtbl.replace priorities ctx.last !next_demotion;
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
  { name = Printf.sprintf "pct(seed=%d,d=%d)" seed depth; pick }

let recorded inner =
  let log = ref [] in
  let pick ctx =
    let t = inner.pick ctx in
    log := t :: !log;
    t
  in
  ((fun () -> List.rev !log), { name = inner.name ^ "+recorded"; pick })

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
  { name = "pinned"; pick }
