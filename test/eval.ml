open Coop_lang

exception Unsupported of string

exception Fault of string

type outcome = {
  output : int list;
  globals : int list;
  fault : string option;
}

(* The evaluator carries its own mutable world; locals are association
   lists, rebuilt per scope, which keeps shadowing semantics obvious. *)
type world = {
  env : Resolve.env;
  prog : Ast.program;
  globals : int array;
  arrays : int array array;
  mutable output_rev : int list;
  mutable fuel : int;
}

exception Returned of int

let spend w =
  if w.fuel <= 0 then raise (Fault "out of fuel");
  w.fuel <- w.fuel - 1

let func_of w name =
  let rec go = function
    | [] -> raise (Fault ("no such function " ^ name))
    | (f : Ast.func) :: rest -> if f.fname = name then f else go rest
  in
  go w.prog.Ast.funcs

let rec eval_expr w locals (e : Ast.expr) =
  match e with
  | Ast.Int n -> n
  | Ast.Bool b -> if b then 1 else 0
  | Ast.Var x -> (
      match List.assoc_opt x !locals with
      | Some v -> v
      | None -> (
          match Resolve.global_slot w.env x with
          | Some g -> w.globals.(g)
          | None -> raise (Fault ("unknown variable " ^ x))))
  | Ast.Index (a, i) -> (
      match Resolve.array_id w.env a with
      | Some id ->
          let idx = eval_expr w locals i in
          if idx < 0 || idx >= Array.length w.arrays.(id) then
            raise (Fault "array index out of bounds");
          w.arrays.(id).(idx)
      | None -> raise (Fault ("unknown array " ^ a)))
  | Ast.Unary (op, e) -> (
      let v = eval_expr w locals e in
      match op with Ast.Neg -> -v | Ast.Not -> if v = 0 then 1 else 0)
  | Ast.Binary (op, a, b) -> (
      let x = eval_expr w locals a in
      let y = eval_expr w locals b in
      let bool_ c = if c then 1 else 0 in
      match op with
      | Ast.Add -> x + y
      | Ast.Sub -> x - y
      | Ast.Mul -> x * y
      | Ast.Div -> if y = 0 then raise (Fault "division by zero") else x / y
      | Ast.Mod -> if y = 0 then raise (Fault "modulo by zero") else x mod y
      | Ast.Lt -> bool_ (x < y)
      | Ast.Le -> bool_ (x <= y)
      | Ast.Gt -> bool_ (x > y)
      | Ast.Ge -> bool_ (x >= y)
      | Ast.Eq -> bool_ (x = y)
      | Ast.Ne -> bool_ (x <> y)
      | Ast.And -> bool_ (x <> 0 && y <> 0)
      | Ast.Or -> bool_ (x <> 0 || y <> 0))
  | Ast.Call (f, args) ->
      let vals = List.map (eval_expr w locals) args in
      call w f vals
  | Ast.Spawn _ -> raise (Unsupported "spawn")

and call w fname args =
  let f = func_of w fname in
  if List.length f.Ast.params <> List.length args then
    raise (Fault ("arity mismatch calling " ^ fname));
  let locals = ref (List.combine f.Ast.params args) in
  match exec_block w locals f.Ast.body with
  | () -> 0
  | exception Returned v -> v

and exec_block w locals stmts =
  (* Locals declared inside the block vanish afterwards. *)
  let saved = !locals in
  List.iter (exec_stmt w locals) stmts;
  locals := saved

and exec_stmt w locals (s : Ast.stmt) =
  spend w;
  match s.kind with
  | Ast.Local (x, e) ->
      let v = eval_expr w locals e in
      locals := (x, v) :: !locals
  | Ast.Assign (x, e) -> (
      let v = eval_expr w locals e in
      if List.mem_assoc x !locals then begin
        (* Replace the innermost binding. *)
        let rec replace = function
          | [] -> []
          | (y, _) :: rest when y = x -> (y, v) :: rest
          | b :: rest -> b :: replace rest
        in
        locals := replace !locals
      end
      else begin
        match Resolve.global_slot w.env x with
        | Some g -> w.globals.(g) <- v
        | None -> raise (Fault ("unknown variable " ^ x))
      end)
  | Ast.Store (a, i, e) -> (
      match Resolve.array_id w.env a with
      | Some id ->
          let idx = eval_expr w locals i in
          let v = eval_expr w locals e in
          if idx < 0 || idx >= Array.length w.arrays.(id) then
            raise (Fault "array index out of bounds");
          w.arrays.(id).(idx) <- v
      | None -> raise (Fault ("unknown array " ^ a)))
  | Ast.If (c, t, e) ->
      if eval_expr w locals c <> 0 then exec_block w locals t
      else exec_block w locals e
  | Ast.While (c, b) ->
      let rec loop () =
        spend w;
        if eval_expr w locals c <> 0 then begin
          exec_block w locals b;
          loop ()
        end
      in
      loop ()
  | Ast.Print e ->
      (* Evaluated first: a call in [e] may print. *)
      let v = eval_expr w locals e in
      w.output_rev <- v :: w.output_rev
  | Ast.Assert e ->
      if eval_expr w locals e = 0 then raise (Fault "assertion failed")
  | Ast.Return None -> raise (Returned 0)
  | Ast.Return (Some e) -> raise (Returned (eval_expr w locals e))
  | Ast.Expr_stmt e -> ignore (eval_expr w locals e)
  | Ast.Block b -> exec_block w locals b
  | Ast.Yield -> raise (Unsupported "yield")
  | Ast.Sync _ -> raise (Unsupported "sync")
  | Ast.Atomic _ -> raise (Unsupported "atomic")
  | Ast.Acquire_stmt _ -> raise (Unsupported "acquire")
  | Ast.Release_stmt _ -> raise (Unsupported "release")
  | Ast.Wait_stmt _ -> raise (Unsupported "wait")
  | Ast.Notify_stmt _ -> raise (Unsupported "notify")
  | Ast.Join_stmt _ -> raise (Unsupported "join")

let run ?(fuel = 1_000_000) (p : Ast.program) =
  let env = Resolve.program p in
  let globals = Array.copy env.Resolve.global_init in
  let arrays = Array.map (fun n -> Array.make n 0) env.Resolve.array_sizes in
  let w = { env; prog = p; globals; arrays; output_rev = []; fuel } in
  let fault =
    match call w "main" [] with
    | _ -> None
    | exception Fault msg -> Some msg
  in
  {
    output = List.rev w.output_rev;
    globals = Array.to_list w.globals;
    fault;
  }
