(** The stack bytecode CoopLang compiles to.

    One instruction performs at most one shared-memory or synchronization
    operation, which fixes the interleaving granularity of the VM: this is
    the analogue of the paper's JVM-bytecode-level instrumentation.
    Operands travel on a per-frame operand stack; locals (including
    parameters) live in per-frame slots. *)

(** Instructions. Jump targets are absolute offsets within the enclosing
    function's code array. *)
type instr =
  | Const of int  (** Push a literal. *)
  | Load_global of int  (** Push a global slot (emits a read event). *)
  | Store_global of int  (** Pop into a global slot (emits a write event). *)
  | Load_local of int  (** Push a local slot (thread-private, no event). *)
  | Store_local of int  (** Pop into a local slot. *)
  | Load_elem of int  (** Pop index, push [array.(index)] (read event). *)
  | Store_elem of int  (** Pop value then index, store (write event). *)
  | Array_len of int  (** Push the declared size of an array. *)
  | Binop of Ast.binop  (** Pop two, push result. *)
  | Unop of Ast.unop  (** Pop one, push result. *)
  | Jump of int  (** Unconditional branch. *)
  | Jump_if_zero of int  (** Pop; branch when zero. *)
  | Acquire  (** Pop a lock handle; may block (acquire event). *)
  | Release  (** Pop a lock handle (release event). *)
  | Wait
      (** Pop a held lock handle: release it, park on its condition, emit
          [Release] then [Yield]; the later reacquire emits [Acquire]. *)
  | Notify of bool  (** Pop a held lock handle; wake one ([false]) or all. *)
  | Yield_instr  (** A static yield annotation (yield event). *)
  | Atomic_begin  (** Atomicity-spec marker (event). *)
  | Atomic_end  (** Atomicity-spec marker (event). *)
  | Spawn of int * int  (** [(func, nargs)]: pop args, push child tid. *)
  | Join  (** Pop a tid; blocks until that thread finishes. *)
  | Call of int * int  (** [(func, nargs)]: pop args, push frame. *)
  | Ret  (** Pop return value, pop frame, push value at caller. *)
  | Print  (** Pop and record observable output (out event). *)
  | Assert  (** Pop; zero is a runtime fault. *)
  | Pop  (** Discard the stack top. *)
  | Halt  (** Finish the current thread. *)

type func = {
  name : string;
  arity : int;  (** Parameters occupy local slots [0 .. arity-1]. *)
  n_locals : int;  (** Total local slots, parameters included. *)
  code : instr array;
  lines : int array;  (** Source line of each instruction (same length). *)
}

(** The event payloads and locations a program can emit, tabulated by
    {!Compile} so that a VM emitting an event allocates neither a [Loc.t]
    nor an operation. The locations are the program's own; a payload
    depends only on the function, lock, global or array id and index it
    names, so the programs alive at one time share one table of each
    kind, and a program's arrays may run past its own ids. Immutable:
    every state, copy and domain running the program shares them. Fork,
    join and output payloads carry run-time values and are not
    tabulated. *)
type tables = {
  locs : Coop_trace.Loc.t array array;  (** func -> pc -> location *)
  enter_ops : Coop_trace.Event.op array;  (** func -> [Enter] *)
  exit_ops : Coop_trace.Event.op array;  (** func -> [Exit] *)
  acquire_ops : Coop_trace.Event.op array;  (** handle -> [Acquire] *)
  release_ops : Coop_trace.Event.op array;  (** handle -> [Release] *)
  read_global_ops : Coop_trace.Event.op array;  (** slot -> [Read (Global _)] *)
  write_global_ops : Coop_trace.Event.op array;  (** slot -> [Write (Global _)] *)
  read_cell_ops : Coop_trace.Event.op array array;
      (** array id -> index -> [Read (Cell _)] *)
  write_cell_ops : Coop_trace.Event.op array array;
      (** array id -> index -> [Write (Cell _)] *)
}

type program = {
  funcs : func array;
  main : int;  (** Entry function index. *)
  n_globals : int;
  global_init : int array;
  global_names : string array;
  array_sizes : int array;  (** Indexed by array id. *)
  array_names : string array;
  n_locks : int;
  lock_names : string array;  (** Lock handle -> display name. *)
  tables : tables;  (** Built by {!tables} from the fields above. *)
}

val tables :
  func array -> n_globals:int -> array_sizes:int array -> n_locks:int -> tables
(** The tables of a program with these functions, globals, arrays and
    locks. Its locations cost five words per instruction; the shared
    payloads ten words per array cell, paid once for the largest array
    any live program declared under an array id. *)

val loc : program -> func:int -> pc:int -> Coop_trace.Loc.t
(** The source location of an instruction: the tabulated (shared) value
    for a [pc] inside the function's code. *)

val disassemble : program -> string
(** Full program listing, one instruction per line, for debugging. *)

val code_size : program -> int
(** Total instruction count over all functions. *)
