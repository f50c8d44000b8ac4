type context = {
  mutable runnable : int array;
  mutable last : int;
  mutable last_yielded : bool;
}

type t = {
  name : string;
  pick : context -> int;
}

let lowest (runnable : int array) =
  if Array.length runnable = 0 then invalid_arg "Sched: empty runnable set";
  runnable.(0)

let rec mem_from (tid : int) runnable i =
  i < Array.length runnable && (runnable.(i) = tid || mem_from tid runnable (i + 1))

let mem tid runnable = mem_from tid runnable 0

(* First runnable tid strictly greater than [cur], wrapping. *)
let rec next_from (cur : int) runnable i =
  if i = Array.length runnable then lowest runnable
  else if runnable.(i) > cur then runnable.(i)
  else next_from cur runnable (i + 1)

let next_after cur runnable = next_from cur runnable 0

let round_robin ~quantum () =
  if quantum <= 0 then invalid_arg "Sched.round_robin: quantum must be positive";
  let used = ref 0 in
  let pick ctx =
    let cur = ctx.last in
    if cur >= 0 && mem cur ctx.runnable && !used < quantum then begin
      incr used;
      cur
    end
    else begin
      used := 1;
      if cur >= 0 then next_after cur ctx.runnable else lowest ctx.runnable
    end
  in
  { name = Printf.sprintf "round-robin(q=%d)" quantum; pick }

let random ~seed () =
  let rng = Coop_util.Rng.create seed in
  let pick ctx = Coop_util.Rng.pick rng ctx.runnable in
  { name = Printf.sprintf "random(seed=%d)" seed; pick }

let cooperative () =
  let pick ctx =
    let cur = ctx.last in
    if cur < 0 then lowest ctx.runnable
    else if mem cur ctx.runnable && not ctx.last_yielded then cur
    else next_after cur ctx.runnable
  in
  { name = "cooperative"; pick }

let sequential = { name = "sequential"; pick = (fun ctx -> lowest ctx.runnable) }

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
    let best = ref (lowest ctx.runnable) in
    let best_p = ref (priority_of !best) in
    for i = 1 to Array.length ctx.runnable - 1 do
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
    | d :: tl when mem d ctx.runnable ->
        rest := tl;
        d
    | _ :: tl ->
        rest := tl;
        lowest ctx.runnable
    | [] -> lowest ctx.runnable
  in
  { name = "pinned"; pick }
