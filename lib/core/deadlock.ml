open Coop_trace

type edge = {
  from_lock : int;
  to_lock : int;
  tid : int;
  loc : Loc.t;
}

type result = {
  edges : edge list;
  cycles : int list list;
}

module Itbl = Hashtbl.Make (Int)

(* A thread's held locks, oldest first in [locks.(0 .. n-1)]. *)
type held = { mutable locks : int array; mutable n : int }

(* Collect lock-order edges: for each acquire, one edge from every lock the
   thread already holds, newest first. Reentrant acquires do not appear in
   the event stream, so self-edges cannot arise. State is
   O(threads·locks). A lock op is a large share of the events and this
   runs on each, so the steady state allocates nothing: held locks are a
   per-thread int stack, and the edges seen so far an int-keyed table
   from the held lock to the set of locks acquired under it. *)
let edges_analysis () =
  let held : held Itbl.t = Itbl.create 8 in
  let seen : unit Itbl.t Itbl.t = Itbl.create 8 in
  let edges = ref [] in
  let held_by tid =
    match Itbl.find held tid with
    | hs -> hs
    | exception Not_found ->
        let hs = { locks = Array.make 4 0; n = 0 } in
        Itbl.replace held tid hs;
        hs
  in
  let fresh h l =
    match Itbl.find seen h with
    | under -> not (Itbl.mem under l)
    | exception Not_found -> true
  in
  let mark h l =
    match Itbl.find seen h with
    | under -> Itbl.replace under l ()
    | exception Not_found ->
        let under = Itbl.create 4 in
        Itbl.replace under l ();
        Itbl.replace seen h under
  in
  let acquire (e : Event.t) l =
    let hs = held_by e.tid in
    for i = hs.n - 1 downto 0 do
      let h = hs.locks.(i) in
      if fresh h l then begin
        mark h l;
        let edge = { from_lock = h; to_lock = l; tid = e.tid; loc = e.loc } in
        edges := edge :: !edges
      end
    done;
    if hs.n = Array.length hs.locks then begin
      let a = Array.make (2 * hs.n) 0 in
      Array.blit hs.locks 0 a 0 hs.n;
      hs.locks <- a
    end;
    hs.locks.(hs.n) <- l;
    hs.n <- hs.n + 1
  in
  let release tid l =
    let hs = held_by tid in
    let k = ref 0 in
    for i = 0 to hs.n - 1 do
      let h = hs.locks.(i) in
      if h <> l then begin
        hs.locks.(!k) <- h;
        incr k
      end
    done;
    hs.n <- !k
  in
  Analysis.make
    ~step:(fun (e : Event.t) ->
      match e.op with
      | Event.Acquire l -> acquire e l
      | Event.Release l -> release e.tid l
      | _ -> ())
    ~finalize:(fun () -> List.rev !edges)

(* Enumerate simple cycles over the edge set; a cycle is a potential
   deadlock only if its edges come from >= 2 threads (one thread acquiring
   in a cycle with itself is just nesting). Cycles are canonicalized by
   rotating the smallest lock first. *)
let cycles_of edges =
  let succs : (int, (int * int) list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let cur = match Hashtbl.find_opt succs e.from_lock with Some l -> l | None -> [] in
      Hashtbl.replace succs e.from_lock ((e.to_lock, e.tid) :: cur))
    edges;
  let canon cycle =
    (* rotate so the smallest element leads *)
    let m = List.fold_left min (List.hd cycle) cycle in
    let rec rot = function
      | x :: rest when x = m -> x :: rest
      | x :: rest -> rot (rest @ [ x ])
      | [] -> []
    in
    rot cycle
  in
  let found = ref [] in
  let add_cycle locks tids =
    let module Is = Set.Make (Int) in
    if Is.cardinal (Is.of_list tids) >= 2 then begin
      let c = canon locks in
      if not (List.mem c !found) then found := c :: !found
    end
  in
  let rec dfs start path tids lock =
    match Hashtbl.find_opt succs lock with
    | None -> ()
    | Some nexts ->
        List.iter
          (fun (next, tid) ->
            if next = start then add_cycle (List.rev (lock :: path)) (tid :: tids)
            else if not (List.mem next path) && next > start then
              (* only explore locks > start to canonicalize start as min *)
              dfs start (lock :: path) (tid :: tids) next)
          nexts
  in
  let starts =
    List.sort_uniq Int.compare (List.map (fun e -> e.from_lock) edges)
  in
  List.iter (fun s -> dfs s [] [] s) starts;
  List.rev !found

let analysis () =
  Analysis.map
    (fun edges -> { edges; cycles = cycles_of edges })
    (edges_analysis ())

let analyze trace = Analysis.run (analysis ()) trace

let deadlock_free r = r.cycles = []

let pp_cycle ppf cycle =
  match cycle with
  | [] -> ()
  | first :: _ ->
      List.iter (fun l -> Format.fprintf ppf "l%d -> " l) cycle;
      Format.fprintf ppf "l%d" first
