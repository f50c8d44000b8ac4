open Coop_lang
module Iset = Set.Make (Int)
module Imap = Map.Make (Int)

type info = {
  reachable : bool;
  stack : Absval.t list;
  locals : Absval.t Imap.t;
  held : Iset.t;
  spawned_before : bool;
  spawns_may : int;
  joins_must : int;
}

(* Saturation point for the spawn/join counters. *)
let count_cap = 1024

let bottom =
  { reachable = false; stack = []; locals = Imap.empty; held = Iset.empty;
    spawned_before = false; spawns_may = 0; joins_must = 0 }

let join_state a b =
  if not a.reachable then b
  else if not b.reachable then a
  else begin
    let stack =
      if List.length a.stack = List.length b.stack then
        List.map2 Absval.join a.stack b.stack
      else
        (* Stack depths should agree for structured code; degrade
           gracefully by collapsing to all-Top of the shorter depth. *)
        List.map (fun _ -> Absval.Top)
          (if List.length a.stack < List.length b.stack then a.stack else b.stack)
    in
    let locals =
      Imap.merge
        (fun _ x y ->
          match (x, y) with
          | Some x, Some y -> Some (Absval.join x y)
          | _ -> Some Absval.Top)
        a.locals b.locals
    in
    {
      reachable = true;
      stack;
      locals;
      held = Iset.inter a.held b.held;
      spawned_before = a.spawned_before || b.spawned_before;
      spawns_may = max a.spawns_may b.spawns_may;
      joins_must = min a.joins_must b.joins_must;
    }
  end

let state_equal a b =
  a.reachable = b.reachable
  && List.length a.stack = List.length b.stack
  && List.for_all2 Absval.equal a.stack b.stack
  && Imap.equal Absval.equal a.locals b.locals
  && Iset.equal a.held b.held
  && a.spawned_before = b.spawned_before
  && a.spawns_may = b.spawns_may
  && a.joins_must = b.joins_must

let pop = function _ :: rest -> rest | [] -> []

let top = function v :: _ -> Some v | [] -> None

(* Transfer of one instruction: returns the out-state and its successor
   pcs. *)
let transfer prog st pc instr =
  let push v st = { st with stack = v :: st.stack } in
  let pop1 st = { st with stack = pop st.stack } in
  let next st = ([ pc + 1 ], st) in
  match instr with
  | Bytecode.Const n -> next (push (Absval.Const n) st)
  | Bytecode.Load_local l ->
      let v =
        match Imap.find_opt l st.locals with Some v -> v | None -> Absval.Top
      in
      next (push v st)
  | Bytecode.Store_local l ->
      let v = match top st.stack with Some v -> v | None -> Absval.Top in
      next (pop1 { st with locals = Imap.add l v st.locals })
  | Bytecode.Load_global _ | Bytecode.Array_len _ -> next (push Absval.Top st)
  | Bytecode.Store_global _ -> next (pop1 st)
  | Bytecode.Load_elem _ ->
      (* pops the index, pushes the value *)
      next (push Absval.Top (pop1 st))
  | Bytecode.Store_elem _ -> next (pop1 (pop1 st))
  | Bytecode.Binop op ->
      let b = top st.stack and a = top (pop st.stack) in
      let v =
        match (a, b) with
        | Some a, Some b -> Absval.binop op a b
        | _ -> Absval.Top
      in
      next (push v (pop1 (pop1 st)))
  | Bytecode.Unop op ->
      let v = match top st.stack with Some a -> Absval.unop op a | None -> Absval.Top in
      next (push v (pop1 st))
  | Bytecode.Jump t -> ([ t ], st)
  | Bytecode.Jump_if_zero t ->
      let st = pop1 st in
      ([ t; pc + 1 ], st)
  | Bytecode.Acquire ->
      (* Must-held locks are tracked by handle: only an exactly known
         handle is surely held. An array element known only up to its
         group ([ls[id % 2]]) adds nothing — two threads holding [ls[0]]
         and [ls[1]] share no lock. *)
      let held =
        match top st.stack with
        | Some (Absval.Const h) when h >= 0 && h < prog.Bytecode.n_locks ->
            Iset.add h st.held
        | _ -> st.held
      in
      next (pop1 { st with held })
  | Bytecode.Release ->
      let held =
        match top st.stack with
        | Some (Absval.Const h) -> Iset.remove h st.held
        | Some v -> (
            match Absval.lock_of_handle prog v with
            | Absval.Group g ->
                (* Some element of group [g]: none of its handles is
                   surely held any more. *)
                Iset.filter
                  (fun h ->
                    Absval.lock_of_handle prog (Absval.Const h)
                    <> Absval.Group g)
                  st.held
            | Absval.Any_lock ->
                (* Unknown release: lose all certainty. *)
                Iset.empty)
        | None -> st.held
      in
      next (pop1 { st with held })
  | Bytecode.Yield_instr | Bytecode.Atomic_begin | Bytecode.Atomic_end ->
      next st
  | Bytecode.Spawn (_, nargs) ->
      let st =
        { st with spawned_before = true;
          spawns_may = min count_cap (st.spawns_may + 1) }
      in
      let rec popn n st = if n = 0 then st else popn (n - 1) (pop1 st) in
      next (push Absval.Top (popn nargs st))
  | Bytecode.Join ->
      next (pop1 { st with joins_must = min count_cap (st.joins_must + 1) })
  | Bytecode.Call (_, nargs) ->
      let rec popn n st = if n = 0 then st else popn (n - 1) (pop1 st) in
      next (push Absval.Top (popn nargs st))
  | Bytecode.Wait | Bytecode.Notify _ ->
      (* wait releases and reacquires its monitor, so the held set is
         unchanged at the next instruction; notify holds throughout. *)
      next (pop1 st)
  | Bytecode.Print | Bytecode.Assert | Bytecode.Pop -> next (pop1 st)
  | Bytecode.Ret | Bytecode.Halt -> ([], st)

let analyze prog f =
  let code = prog.Bytecode.funcs.(f).Bytecode.code in
  let n = Array.length code in
  let facts = Array.make n bottom in
  if n = 0 then facts
  else begin
    facts.(0) <-
      { reachable = true; stack = []; locals = Imap.empty; held = Iset.empty;
        spawned_before = false; spawns_may = 0; joins_must = 0 };
    let worklist = Queue.create () in
    Queue.add 0 worklist;
    while not (Queue.is_empty worklist) do
      let pc = Queue.pop worklist in
      let st = facts.(pc) in
      if st.reachable then begin
        let succs, out = transfer prog st pc code.(pc) in
        List.iter
          (fun s ->
            if s >= 0 && s < n then begin
              let merged = join_state facts.(s) out in
              if not (state_equal merged facts.(s)) then begin
                facts.(s) <- merged;
                Queue.add s worklist
              end
            end)
          succs
      end
    done;
    facts
  end

let lock_at prog infos pc =
  if pc < 0 || pc >= Array.length infos then None
  else begin
    let st = infos.(pc) in
    if not st.reachable then None
    else
      match top st.stack with
      | Some v -> Some (Absval.lock_of_handle prog v)
      | None -> None
  end
