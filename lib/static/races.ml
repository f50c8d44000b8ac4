open Coop_lang
module Iset = Flow.Iset

type region =
  | Rglobal of int
  | Rarray of int

let region_compare a b =
  match (a, b) with
  | Rglobal x, Rglobal y -> Int.compare x y
  | Rglobal _, Rarray _ -> -1
  | Rarray _, Rglobal _ -> 1
  | Rarray x, Rarray y -> Int.compare x y

let pp_region (prog : Bytecode.program) ppf = function
  | Rglobal g -> Format.pp_print_string ppf prog.Bytecode.global_names.(g)
  | Rarray a -> Format.fprintf ppf "%s[]" prog.Bytecode.array_names.(a)

type result = {
  racy : region list;
  shared_groups : int list;
  roots : int list;
}

(* One static access site. *)
type site = {
  root : int;  (** The thread-root context this site runs under. *)
  region : region;
  is_write : bool;
  held : Iset.t;  (** Lock handles must-held. *)
  pre_fork : bool;  (** In [main], before any possible spawn. *)
}

(* Call-graph edges via Call instructions (Spawn targets start new
   contexts, not calls). *)
let callees (prog : Bytecode.program) f =
  Array.fold_left
    (fun acc instr ->
      match instr with Bytecode.Call (g, _) -> Iset.add g acc | _ -> acc)
    Iset.empty prog.Bytecode.funcs.(f).Bytecode.code

let spawn_targets (prog : Bytecode.program) =
  Array.fold_left
    (fun acc (f : Bytecode.func) ->
      Array.fold_left
        (fun acc instr ->
          match instr with Bytecode.Spawn (g, _) -> Iset.add g acc | _ -> acc)
        acc f.Bytecode.code)
    Iset.empty prog.Bytecode.funcs

(* Functions call-reachable from [root], including itself. *)
let reach prog root =
  let rec go seen frontier =
    match frontier with
    | [] -> seen
    | f :: rest ->
        if Iset.mem f seen then go seen rest
        else begin
          let seen = Iset.add f seen in
          go seen (Iset.elements (callees prog f) @ rest)
        end
  in
  go Iset.empty [ root ]

let analyze (prog : Bytecode.program) flow_of =
  let main = prog.Bytecode.main in
  let spawned = spawn_targets prog in
  let roots = Iset.add main spawned in
  (* Map function -> the roots it can run under. *)
  let contexts : (int, Iset.t) Hashtbl.t = Hashtbl.create 8 in
  Iset.iter
    (fun root ->
      Iset.iter
        (fun f ->
          let cur =
            match Hashtbl.find_opt contexts f with
            | Some s -> s
            | None -> Iset.empty
          in
          Hashtbl.replace contexts f (Iset.add root cur))
        (reach prog root))
    roots;
  (* Quiescence in main is only meaningful when main is the only spawner
     (otherwise grandchildren escape its join counting). *)
  let only_main_spawns =
    let spawns_elsewhere = ref false in
    Array.iteri
      (fun f (fn : Bytecode.func) ->
        if f <> main then
          Array.iter
            (fun i ->
              match i with Bytecode.Spawn _ -> spawns_elsewhere := true | _ -> ())
            fn.Bytecode.code)
      prog.Bytecode.funcs;
    not !spawns_elsewhere
  in
  (* Collect access sites and lock-acquire sites. *)
  let sites = ref [] in
  let acquires = ref [] in
  Array.iteri
    (fun f (fn : Bytecode.func) ->
      match Hashtbl.find_opt contexts f with
      | None -> ()  (* dead code *)
      | Some roots_of_f ->
          let infos = flow_of f in
          Array.iteri
            (fun pc instr ->
              let info = infos.(pc) in
              if info.Flow.reachable then begin
                let add_site region is_write =
                  Iset.iter
                    (fun root ->
                      let pre_fork =
                        root = main && f = main
                        && (not info.Flow.spawned_before
                           || (only_main_spawns
                              && info.Flow.joins_must >= info.Flow.spawns_may))
                      in
                      sites :=
                        { root; region; is_write; held = info.Flow.held;
                          pre_fork }
                        :: !sites)
                    roots_of_f
                in
                match instr with
                | Bytecode.Load_global g -> add_site (Rglobal g) false
                | Bytecode.Store_global g -> add_site (Rglobal g) true
                | Bytecode.Load_elem a -> add_site (Rarray a) false
                | Bytecode.Store_elem a -> add_site (Rarray a) true
                | Bytecode.Acquire -> (
                    match Flow.lock_at prog infos pc with
                    | Some (Absval.Group g) ->
                        Iset.iter
                          (fun root -> acquires := (root, Absval.Group g) :: !acquires)
                          roots_of_f
                    | Some Absval.Any_lock ->
                        Iset.iter
                          (fun root -> acquires := (root, Absval.Any_lock) :: !acquires)
                          roots_of_f
                    | None -> ())
                | _ -> ()
              end)
            fn.Bytecode.code)
    prog.Bytecode.funcs;
  let sites = !sites in
  (* Two contexts are concurrent unless both are the (single-instance)
     main, and pre-fork main code is concurrent with nothing. *)
  let concurrent a b =
    (not (a.pre_fork || b.pre_fork))
    && not (a.root = prog.Bytecode.main && b.root = prog.Bytecode.main)
  in
  let conflicting a b =
    region_compare a.region b.region = 0 && (a.is_write || b.is_write)
  in
  let protected_ a b = not (Iset.is_empty (Iset.inter a.held b.held)) in
  let racy = ref [] in
  let add_racy r = if not (List.exists (fun x -> region_compare x r = 0) !racy) then racy := r :: !racy in
  let arr = Array.of_list sites in
  let n = Array.length arr in
  for i = 0 to n - 1 do
    for j = i to n - 1 do
      let a = arr.(i) and b = arr.(j) in
      if conflicting a b && concurrent a b && not (protected_ a b) then
        add_racy a.region
    done
  done;
  (* Shared lock groups: acquired under two concurrent contexts. An
     Any_lock acquire conservatively shares every group. *)
  let acqs = !acquires in
  let any_pair p =
    List.exists
      (fun (r1, l1) ->
        List.exists
          (fun (r2, l2) ->
            (not (r1 = prog.Bytecode.main && r2 = prog.Bytecode.main))
            && p l1 l2)
          acqs)
      acqs
  in
  let shared_groups = ref Iset.empty in
  (* Enumerate the distinct groups seen. *)
  let groups =
    List.fold_left
      (fun s (_, l) -> match l with Absval.Group g -> Iset.add g s | _ -> s)
      Iset.empty acqs
  in
  Iset.iter
    (fun g ->
      let matches l = match l with Absval.Group h -> h = g | Absval.Any_lock -> true in
      if any_pair (fun l1 l2 -> matches l1 && matches l2) then
        shared_groups := Iset.add g !shared_groups)
    groups;
  {
    racy = List.sort region_compare !racy;
    shared_groups = Iset.elements !shared_groups;
    roots = Iset.elements roots;
  }

let is_racy_region result (v : Coop_trace.Event.var) =
  let region =
    match v with
    | Coop_trace.Event.Global g -> Rglobal g
    | Coop_trace.Event.Cell (a, _) -> Rarray a
  in
  List.exists (fun r -> region_compare r region = 0) result.racy
