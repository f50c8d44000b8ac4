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

module Pair = struct
  type t = int * int

  let compare = compare
end

module Pair_map = Map.Make (Pair)

(* Collect lock-order edges: for each acquire, one edge from every lock the
   thread already holds. Reentrant acquires do not appear in the event
   stream, so self-edges cannot arise. State is O(threads·locks). *)
let edges_analysis () =
  let held : (int, int list) Hashtbl.t = Hashtbl.create 8 in
  let seen = ref Pair_map.empty in
  let edges = ref [] in
  (* Lookups and removal that allocate nothing on the common paths: a
     lock op is a large share of the events, and this runs on each. *)
  let held_by tid = match Hashtbl.find held tid with hs -> hs | exception Not_found -> [] in
  let rec without l = function
    | [] -> []
    | x :: rest -> if x = l then without l rest else x :: without l rest
  in
  let rec add_edges (e : Event.t) l = function
    | [] -> ()
    | h :: hs ->
        if not (Pair_map.mem (h, l) !seen) then begin
          seen := Pair_map.add (h, l) () !seen;
          edges := { from_lock = h; to_lock = l; tid = e.tid; loc = e.loc } :: !edges
        end;
        add_edges e l hs
  in
  Analysis.make
    ~step:(fun (e : Event.t) ->
      match e.op with
      | Event.Acquire l ->
          let hs = held_by e.tid in
          add_edges e l hs;
          Hashtbl.replace held e.tid (l :: hs)
      | Event.Release l -> Hashtbl.replace held e.tid (without l (held_by e.tid))
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
