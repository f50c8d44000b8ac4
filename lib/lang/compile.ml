exception Error of string

type fctx = {
  env : Resolve.env;
  mutable code : Bytecode.instr list;  (* reversed *)
  mutable lines : int list;  (* reversed, parallel to code *)
  mutable next_pc : int;
  mutable next_slot : int;
  mutable max_slot : int;
}

let emit ctx line ins =
  ctx.code <- ins :: ctx.code;
  ctx.lines <- line :: ctx.lines;
  ctx.next_pc <- ctx.next_pc + 1

(* Reserve an instruction slot for a jump to be patched later; returns its
   pc. *)
let emit_patch ctx line =
  let pc = ctx.next_pc in
  emit ctx line (Bytecode.Jump (-1));
  pc

let patch ctx pc target =
  let len = ctx.next_pc in
  let arr = Array.of_list (List.rev ctx.code) in
  (match arr.(pc) with
  | Bytecode.Jump -1 -> arr.(pc) <- Bytecode.Jump target
  | Bytecode.Jump_if_zero -1 -> arr.(pc) <- Bytecode.Jump_if_zero target
  | _ -> raise (Error "patch: slot is not a pending jump"));
  ctx.code <- List.rev (Array.to_list arr);
  ignore len

let fresh_slot ctx =
  let s = ctx.next_slot in
  ctx.next_slot <- s + 1;
  if ctx.next_slot > ctx.max_slot then ctx.max_slot <- ctx.next_slot;
  s

let rec compile_expr ctx scope line (e : Ast.expr) =
  match e with
  | Ast.Int n -> emit ctx line (Bytecode.Const n)
  | Ast.Bool b -> emit ctx line (Bytecode.Const (if b then 1 else 0))
  | Ast.Var x -> (
      match List.assoc_opt x scope with
      | Some slot -> emit ctx line (Bytecode.Load_local slot)
      | None -> (
          match Resolve.global_slot ctx.env x with
          | Some g -> emit ctx line (Bytecode.Load_global g)
          | None -> raise (Error ("compile: unresolved variable " ^ x))))
  | Ast.Index (a, i) -> (
      match Resolve.array_id ctx.env a with
      | Some id ->
          compile_expr ctx scope line i;
          emit ctx line (Bytecode.Load_elem id)
      | None -> raise (Error ("compile: unresolved array " ^ a)))
  | Ast.Unary (op, e) ->
      compile_expr ctx scope line e;
      emit ctx line (Bytecode.Unop op)
  | Ast.Binary (op, a, b) ->
      compile_expr ctx scope line a;
      compile_expr ctx scope line b;
      emit ctx line (Bytecode.Binop op)
  | Ast.Call (f, args) -> (
      match Resolve.func_index ctx.env f with
      | Some fi ->
          List.iter (compile_expr ctx scope line) args;
          emit ctx line (Bytecode.Call (fi, List.length args))
      | None -> raise (Error ("compile: unresolved function " ^ f)))
  | Ast.Spawn (f, args) -> (
      match Resolve.func_index ctx.env f with
      | Some fi ->
          List.iter (compile_expr ctx scope line) args;
          emit ctx line (Bytecode.Spawn (fi, List.length args))
      | None -> raise (Error ("compile: unresolved function " ^ f)))

let compile_lock_handle ctx scope line (l : Ast.lock_ref) =
  match Resolve.lock_group ctx.env l.lock with
  | None -> raise (Error ("compile: unresolved lock " ^ l.lock))
  | Some g -> (
      let base = ctx.env.Resolve.lock_bases.(g) in
      match l.index with
      | None -> emit ctx line (Bytecode.Const base)
      | Some i ->
          emit ctx line (Bytecode.Const base);
          compile_expr ctx scope line i;
          emit ctx line (Bytecode.Binop Ast.Add))

let rec compile_block ctx scope stmts =
  match stmts with
  | [] -> ()
  | s :: rest ->
      let scope = compile_stmt ctx scope s in
      compile_block ctx scope rest

and compile_stmt ctx scope (s : Ast.stmt) =
  let line = s.line in
  match s.kind with
  | Ast.Local (x, e) ->
      compile_expr ctx scope line e;
      let slot = fresh_slot ctx in
      emit ctx line (Bytecode.Store_local slot);
      (x, slot) :: scope
  | Ast.Assign (x, e) ->
      compile_expr ctx scope line e;
      (match List.assoc_opt x scope with
      | Some slot -> emit ctx line (Bytecode.Store_local slot)
      | None -> (
          match Resolve.global_slot ctx.env x with
          | Some g -> emit ctx line (Bytecode.Store_global g)
          | None -> raise (Error ("compile: unresolved variable " ^ x))));
      scope
  | Ast.Store (a, i, e) ->
      (match Resolve.array_id ctx.env a with
      | Some id ->
          compile_expr ctx scope line i;
          compile_expr ctx scope line e;
          emit ctx line (Bytecode.Store_elem id)
      | None -> raise (Error ("compile: unresolved array " ^ a)));
      scope
  | Ast.If (c, t, []) ->
      compile_expr ctx scope line c;
      let jz = ctx.next_pc in
      emit ctx line (Bytecode.Jump_if_zero (-1));
      compile_block ctx scope t;
      patch ctx jz ctx.next_pc;
      scope
  | Ast.If (c, t, e) ->
      compile_expr ctx scope line c;
      let jz = ctx.next_pc in
      emit ctx line (Bytecode.Jump_if_zero (-1));
      compile_block ctx scope t;
      let jend = emit_patch ctx line in
      patch ctx jz ctx.next_pc;
      compile_block ctx scope e;
      patch ctx jend ctx.next_pc;
      scope
  | Ast.While (c, b) ->
      let top = ctx.next_pc in
      compile_expr ctx scope line c;
      let jz = ctx.next_pc in
      emit ctx line (Bytecode.Jump_if_zero (-1));
      compile_block ctx scope b;
      emit ctx line (Bytecode.Jump top);
      patch ctx jz ctx.next_pc;
      scope
  | Ast.Sync (l, b) ->
      (* The handle is computed once and stashed in a temp so the release
         always unlocks the lock that was acquired, even if the index
         expression would evaluate differently afterwards. *)
      compile_lock_handle ctx scope line l;
      let tmp = fresh_slot ctx in
      emit ctx line (Bytecode.Store_local tmp);
      emit ctx line (Bytecode.Load_local tmp);
      emit ctx line Bytecode.Acquire;
      compile_block ctx scope b;
      emit ctx line (Bytecode.Load_local tmp);
      emit ctx line Bytecode.Release;
      scope
  | Ast.Atomic b ->
      emit ctx line Bytecode.Atomic_begin;
      compile_block ctx scope b;
      emit ctx line Bytecode.Atomic_end;
      scope
  | Ast.Yield ->
      emit ctx line Bytecode.Yield_instr;
      scope
  | Ast.Acquire_stmt l ->
      compile_lock_handle ctx scope line l;
      emit ctx line Bytecode.Acquire;
      scope
  | Ast.Release_stmt l ->
      compile_lock_handle ctx scope line l;
      emit ctx line Bytecode.Release;
      scope
  | Ast.Wait_stmt l ->
      compile_lock_handle ctx scope line l;
      emit ctx line Bytecode.Wait;
      scope
  | Ast.Notify_stmt (l, all) ->
      compile_lock_handle ctx scope line l;
      emit ctx line (Bytecode.Notify all);
      scope
  | Ast.Join_stmt e ->
      compile_expr ctx scope line e;
      emit ctx line Bytecode.Join;
      scope
  | Ast.Print e ->
      compile_expr ctx scope line e;
      emit ctx line Bytecode.Print;
      scope
  | Ast.Assert e ->
      compile_expr ctx scope line e;
      emit ctx line Bytecode.Assert;
      scope
  | Ast.Return eo ->
      (match eo with
      | Some e -> compile_expr ctx scope line e
      | None -> emit ctx line (Bytecode.Const 0));
      emit ctx line Bytecode.Ret;
      scope
  | Ast.Expr_stmt e ->
      compile_expr ctx scope line e;
      emit ctx line Bytecode.Pop;
      scope
  | Ast.Block b ->
      compile_block ctx scope b;
      scope

let compile_func env (f : Ast.func) =
  let ctx =
    {
      env;
      code = [];
      lines = [];
      next_pc = 0;
      next_slot = List.length f.params;
      max_slot = List.length f.params;
    }
  in
  let scope = List.mapi (fun i p -> (p, i)) f.params in
  compile_block ctx scope f.body;
  (* Implicit return 0 falls out at the end of every function body. *)
  emit ctx f.fline (Bytecode.Const 0);
  emit ctx f.fline Bytecode.Ret;
  {
    Bytecode.name = f.fname;
    arity = List.length f.params;
    n_locals = ctx.max_slot;
    code = Array.of_list (List.rev ctx.code);
    lines = Array.of_list (List.rev ctx.lines);
  }

let program (p : Ast.program) =
  let env = Resolve.program p in
  let funcs = Array.of_list (List.map (compile_func env) p.funcs) in
  let lock_names =
    Array.make env.Resolve.n_locks ""
  in
  Array.iteri
    (fun g name ->
      let base = env.Resolve.lock_bases.(g) in
      let count = env.Resolve.lock_counts.(g) in
      for k = 0 to count - 1 do
        lock_names.(base + k) <-
          (if count = 1 then name else Printf.sprintf "%s[%d]" name k)
      done)
    env.Resolve.lock_names;
  let n_globals = env.Resolve.n_globals and array_sizes = env.Resolve.array_sizes in
  {
    Bytecode.funcs;
    main = env.Resolve.main;
    n_globals;
    global_init = env.Resolve.global_init;
    global_names = env.Resolve.global_names;
    array_sizes;
    array_names = env.Resolve.array_names;
    n_locks = env.Resolve.n_locks;
    lock_names;
    tables = Bytecode.tables funcs ~n_globals ~array_sizes ~n_locks:env.Resolve.n_locks;
  }

let source src = program (Parser.program src)
