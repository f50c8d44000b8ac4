type instr =
  | Const of int
  | Load_global of int
  | Store_global of int
  | Load_local of int
  | Store_local of int
  | Load_elem of int
  | Store_elem of int
  | Array_len of int
  | Binop of Ast.binop
  | Unop of Ast.unop
  | Jump of int
  | Jump_if_zero of int
  | Acquire
  | Release
  | Wait
  | Notify of bool
  | Yield_instr
  | Atomic_begin
  | Atomic_end
  | Spawn of int * int
  | Join
  | Call of int * int
  | Ret
  | Print
  | Assert
  | Pop
  | Halt

type func = {
  name : string;
  arity : int;
  n_locals : int;
  code : instr array;
  lines : int array;
}

open Coop_trace

type tables = {
  locs : Loc.t array array;
  enter_ops : Event.op array;
  exit_ops : Event.op array;
  acquire_ops : Event.op array;
  release_ops : Event.op array;
  read_global_ops : Event.op array;
  write_global_ops : Event.op array;
  read_cell_ops : Event.op array array;
  write_cell_ops : Event.op array array;
}

type program = {
  funcs : func array;
  main : int;
  n_globals : int;
  global_init : int array;
  global_names : string array;
  array_sizes : int array;
  array_names : string array;
  n_locks : int;
  lock_names : string array;
  tables : tables;
}

let make_loc f ~func ~pc =
  let line = if pc >= 0 && pc < Array.length f.lines then f.lines.(pc) else 0 in
  Loc.make ~func ~pc ~line

(* A payload depends on nothing but the ids it names, so programs share
   them: a [shared] table is a prefix of [make 0, make 1, ...], grown when
   a program names a larger id and held weakly, so it lives exactly as
   long as some program that uses it. Built only at compile time, under
   its lock; published arrays are never mutated. *)
type 'a shared = { make : int -> 'a; lock : Mutex.t; prefix : 'a array Weak.t }

let shared make = { make; lock = Mutex.create (); prefix = Weak.create 1 }

let upto s n =
  Mutex.protect s.lock (fun () ->
      let a = Option.value (Weak.get s.prefix 0) ~default:[||] in
      if Array.length a >= n then a
      else begin
        let b = Array.init n (fun i -> if i < Array.length a then a.(i) else s.make i) in
        Weak.set s.prefix 0 (Some b);
        b
      end)

let enter_ops = shared (fun f -> Event.Enter f)
let exit_ops = shared (fun f -> Event.Exit f)
let acquire_ops = shared (fun h -> Event.Acquire h)
let release_ops = shared (fun h -> Event.Release h)
let read_global_ops = shared (fun g -> Event.Read (Event.Global g))
let write_global_ops = shared (fun g -> Event.Write (Event.Global g))

(* Array id -> its cells' read and write payload tables. *)
let cell_ops =
  Coop_util.Id_table.create (fun aid ->
      ( shared (fun i -> Event.Read (Event.Cell (aid, i))),
        shared (fun i -> Event.Write (Event.Cell (aid, i))) ))

let tables funcs ~n_globals ~array_sizes ~n_locks =
  let n_funcs = Array.length funcs in
  let cell_table pick =
    Array.mapi
      (fun aid size -> upto (pick (Coop_util.Id_table.get cell_ops aid)) size)
      array_sizes
  in
  {
    locs =
      Array.mapi
        (fun func f -> Array.init (Array.length f.code) (fun pc -> make_loc f ~func ~pc))
        funcs;
    enter_ops = upto enter_ops n_funcs;
    exit_ops = upto exit_ops n_funcs;
    acquire_ops = upto acquire_ops n_locks;
    release_ops = upto release_ops n_locks;
    read_global_ops = upto read_global_ops n_globals;
    write_global_ops = upto write_global_ops n_globals;
    read_cell_ops = cell_table fst;
    write_cell_ops = cell_table snd;
  }

let loc prog ~func ~pc =
  let table = prog.tables.locs.(func) in
  if pc >= 0 && pc < Array.length table then table.(pc)
  else make_loc prog.funcs.(func) ~func ~pc

let pp_instr ppf = function
  | Const n -> Format.fprintf ppf "const %d" n
  | Load_global g -> Format.fprintf ppf "load_g %d" g
  | Store_global g -> Format.fprintf ppf "store_g %d" g
  | Load_local l -> Format.fprintf ppf "load_l %d" l
  | Store_local l -> Format.fprintf ppf "store_l %d" l
  | Load_elem a -> Format.fprintf ppf "load_e a%d" a
  | Store_elem a -> Format.fprintf ppf "store_e a%d" a
  | Array_len a -> Format.fprintf ppf "len a%d" a
  | Binop op -> Format.fprintf ppf "binop %s" (Pretty.binop op)
  | Unop op -> Format.fprintf ppf "unop %s" (Pretty.unop op)
  | Jump t -> Format.fprintf ppf "jump %d" t
  | Jump_if_zero t -> Format.fprintf ppf "jz %d" t
  | Acquire -> Format.pp_print_string ppf "acquire"
  | Release -> Format.pp_print_string ppf "release"
  | Wait -> Format.pp_print_string ppf "wait"
  | Notify all -> Format.pp_print_string ppf (if all then "notifyall" else "notify")
  | Yield_instr -> Format.pp_print_string ppf "yield"
  | Atomic_begin -> Format.pp_print_string ppf "atomic_begin"
  | Atomic_end -> Format.pp_print_string ppf "atomic_end"
  | Spawn (f, n) -> Format.fprintf ppf "spawn f%d/%d" f n
  | Join -> Format.pp_print_string ppf "join"
  | Call (f, n) -> Format.fprintf ppf "call f%d/%d" f n
  | Ret -> Format.pp_print_string ppf "ret"
  | Print -> Format.pp_print_string ppf "print"
  | Assert -> Format.pp_print_string ppf "assert"
  | Pop -> Format.pp_print_string ppf "pop"
  | Halt -> Format.pp_print_string ppf "halt"

let disassemble prog =
  let buf = Buffer.create 1024 in
  Array.iteri
    (fun fi f ->
      Buffer.add_string buf
        (Printf.sprintf "fn %s (f%d, arity %d, locals %d):\n" f.name fi f.arity
           f.n_locals);
      Array.iteri
        (fun pc ins ->
          Buffer.add_string buf
            (Format.asprintf "  %4d: %a   ; line %d\n" pc pp_instr ins
               f.lines.(pc)))
        f.code)
    prog.funcs;
  Buffer.contents buf

let code_size prog =
  Array.fold_left (fun n f -> n + Array.length f.code) 0 prog.funcs
