open Coop_trace
open Coop_lang

type status =
  | Runnable
  | Blocked_on_lock of int
  | Blocked_on_join of int
  | Waiting of int
  | Reacquiring of int
  | Finished
  | Faulted of string

(* The operand stack is [stack.(0 .. sp-1)], top at [sp-1]; it doubles
   when full. Popping only moves [sp], so the slots a faulting
   instruction popped still hold their values and restoring [sp] undoes
   the pops. *)
type frame = {
  mutable func : int;
  mutable pc : int;
  locals : int array;
      (* at least [n_locals] slots, parameters first; the slots past
         [n_locals] hold 0 *)
  mutable stack : int array;
  mutable sp : int;
}

(* Call frames are indexed by depth, outermost first: [frames.(0 ..
   depth-1)] are live, the top frame at [depth-1]. A slot past them holds
   the frame a return left there, which the next call at that depth
   reuses when its locals are large enough, or [dummy_frame]. A finished
   thread drops its frames. *)
type thread = {
  mutable frames : frame array;
  mutable depth : int;
  mutable status : status;
  mutable entered : bool;  (* Enter event for the root frame already emitted *)
  mutable pending_yield : bool;  (* injected yield at current pc already emitted *)
  mutable wait_depth : int;  (* reentrancy depth to restore after a wait *)
}

(* The event payloads and locations come from the program's tables
   ([Bytecode.tables], built once by the compiler and shared by every
   state, copy and domain), so emitting an event allocates nothing but
   the rare Fork, Join and Out payloads. *)
type state = {
  prog : Bytecode.program;
  scratch : Event.t;
      (* reused for every emission: sinks receive the same record with
         fields rewritten (the [Trace.Sink] contract — a sink that retains
         events must [Event.copy]). Per state, so states stepped on
         different domains never share it. *)
  globals : int array;
  arrays : int array array;  (* array id -> index -> value *)
  lock_owner : int array;  (* handle -> owning tid, [-1] when free *)
  lock_depth : int array;  (* handle -> reentrancy depth while held *)
  conditions : int list array;  (* handle -> waiting tids, FIFO *)
  mutable threads : thread array;  (* tid -> thread, first [n_threads] live *)
  mutable n_threads : int;  (* also the next tid to allocate *)
  mutable output_rev : int list;
  mutable n_output : int;
  mutable failures_rev : (int * string) list;
  mutable report : int;
      (* scratch, written while [step] runs: [yielded_bit] when it emitted
         a yield, [changed_bit] when it wrote a thread status, a lock
         owner or the thread count *)
}

let yielded_bit = 1
let changed_bit = 2

exception Fault of string

(* The status values naming a lock handle or a thread, shared by every
   state: parking a thread stores one of them rather than boxing a new
   one. *)
module Ids = Coop_util.Id_table

let blocked_on_lock = Ids.create (fun h -> Blocked_on_lock h)
let blocked_on_join = Ids.create (fun u -> Blocked_on_join u)
let waiting = Ids.create (fun h -> Waiting h)
let reacquiring = Ids.create (fun h -> Reacquiring h)

let new_scratch () = Event.make ~tid:(-1) ~op:Event.Yield ~loc:Loc.none

(* A fresh frame of [func] whose first locals are [args.(base ..
   base+nargs-1)]. *)
let new_frame (prog : Bytecode.program) func args base nargs =
  let locals = Array.make (max nargs prog.funcs.(func).Bytecode.n_locals) 0 in
  Array.blit args base locals 0 nargs;
  { func; pc = 0; locals; stack = Array.make 8 0; sp = 0 }

(* Stands for "no frame" where an option would allocate. Never mutated. *)
let dummy_frame = { func = 0; pc = 0; locals = [||]; stack = [||]; sp = 0 }

let new_thread frame =
  { frames = [| frame |]; depth = 1; status = Runnable; entered = false;
    pending_yield = false; wait_depth = 0 }

let top_frame t = Array.unsafe_get t.frames (t.depth - 1) [@@inline]

(* Enters [func] at [t]'s next depth with [args.(base .. base+nargs-1)]
   as its first locals, reusing the frame a return left at that depth
   when its locals are large enough — whichever function it ran. *)
let push_frame (prog : Bytecode.program) t func (args : int array) base nargs =
  let d = t.depth in
  let n_locals = max nargs prog.Bytecode.funcs.(func).Bytecode.n_locals in
  let spare = if d < Array.length t.frames then t.frames.(d) else dummy_frame in
  if spare != dummy_frame && Array.length spare.locals >= n_locals then begin
    let locals = spare.locals in
    for i = 0 to nargs - 1 do
      Array.unsafe_set locals i (Array.unsafe_get args (base + i))
    done;
    for i = nargs to Array.length locals - 1 do
      Array.unsafe_set locals i 0
    done;
    spare.func <- func;
    spare.pc <- 0;
    spare.sp <- 0
  end
  else begin
    if d = Array.length t.frames then begin
      let bigger = Array.make (max 4 (2 * d)) dummy_frame in
      Array.blit t.frames 0 bigger 0 d;
      t.frames <- bigger
    end;
    t.frames.(d) <- new_frame prog func args base nargs
  end;
  t.depth <- d + 1

let init prog =
  let main = new_thread (new_frame prog prog.Bytecode.main [||] 0 0) in
  {
    prog;
    scratch = new_scratch ();
    globals = Array.copy prog.Bytecode.global_init;
    arrays = Array.map (fun size -> Array.make size 0) prog.array_sizes;
    lock_owner = Array.make prog.n_locks (-1);
    lock_depth = Array.make prog.n_locks 0;
    conditions = Array.make prog.n_locks [];
    threads = [| main |];
    n_threads = 1;
    output_rev = [];
    n_output = 0;
    failures_rev = [];
    report = 0;
  }

let copy_frame f =
  { f with locals = Array.copy f.locals; stack = Array.copy f.stack }

(* The live frames only: a copy has no spare frame. *)
let copy_thread t =
  { t with frames = Array.init t.depth (fun i -> copy_frame t.frames.(i)) }

let copy st =
  {
    st with
    scratch = new_scratch ();
    globals = Array.copy st.globals;
    arrays = Array.map Array.copy st.arrays;
    lock_owner = Array.copy st.lock_owner;
    lock_depth = Array.copy st.lock_depth;
    conditions = Array.copy st.conditions;
    threads = Array.init st.n_threads (fun i -> copy_thread st.threads.(i));
  }

(* [copy], writing into [dst]'s own blocks wherever they have the right
   sizes, which they do when [dst] is an earlier state of the same run.
   Int arrays are typed as such so the loops store without a write
   barrier. *)
let blit_ints (src : int array) (dst : int array) =
  for i = 0 to Array.length src - 1 do
    Array.unsafe_set dst i (Array.unsafe_get src i)
  done

let frame_fits d f =
  d != dummy_frame
  && Array.length d.locals = Array.length f.locals
  && Array.length d.stack = Array.length f.stack

(* Makes [d]'s live frames those of [t], in [d]'s own frames wherever
   they fit. [d]'s frames past [t]'s depth stay as its spares. *)
let frames_into d t =
  let n = t.depth in
  if Array.length d.frames < n then begin
    let bigger = Array.make n dummy_frame in
    Array.blit d.frames 0 bigger 0 (Array.length d.frames);
    d.frames <- bigger
  end;
  for k = 0 to n - 1 do
    let f = t.frames.(k) and g = d.frames.(k) in
    if frame_fits g f then begin
      g.func <- f.func;
      g.pc <- f.pc;
      g.sp <- f.sp;
      blit_ints f.locals g.locals;
      blit_ints f.stack g.stack
    end
    else d.frames.(k) <- copy_frame f
  done;
  d.depth <- n

let copy_into ~dst src =
  if dst.prog != src.prog then invalid_arg "Vm.copy_into: different programs";
  if dst != src then begin
    blit_ints src.globals dst.globals;
    for i = 0 to Array.length src.arrays - 1 do
      blit_ints src.arrays.(i) dst.arrays.(i)
    done;
    blit_ints src.lock_owner dst.lock_owner;
    blit_ints src.lock_depth dst.lock_depth;
    Array.blit src.conditions 0 dst.conditions 0 (Array.length src.conditions);
    (* Only [dst]'s first [n_threads] records are its own: the spare
       slots of a stepped state alias a live one. The thread array has
       [copy]'s length, [n_threads]. *)
    let n = src.n_threads and old = dst.threads in
    let own = min dst.n_threads n in
    if Array.length old <> n then dst.threads <- Array.make n old.(0);
    for i = 0 to n - 1 do
      let t = src.threads.(i) in
      if i < own then begin
        let d = old.(i) in
        frames_into d t;
        d.status <- t.status;
        d.entered <- t.entered;
        d.pending_yield <- t.pending_yield;
        d.wait_depth <- t.wait_depth;
        if dst.threads != old then dst.threads.(i) <- d
      end
      else dst.threads.(i) <- copy_thread t
    done;
    dst.n_threads <- n;
    dst.output_rev <- src.output_rev;
    dst.n_output <- src.n_output;
    dst.failures_rev <- src.failures_rev;
    dst.report <- src.report
  end

let program st = st.prog

let thread_status st tid =
  if tid < 0 || tid >= st.n_threads then raise Not_found;
  st.threads.(tid).status

let join_target_done st target =
  target >= 0 && target < st.n_threads
  && match st.threads.(target).status with Finished | Faulted _ -> true | _ -> false

let can_run st tid t =
  match t.status with
  | Runnable -> true
  | Blocked_on_lock h | Reacquiring h ->
      let owner = st.lock_owner.(h) in
      owner < 0 || owner = tid
  | Blocked_on_join u -> join_target_done st u
  | Waiting _ | Finished | Faulted _ -> false

let runnable_into st (buf : int array) =
  if Array.length buf < st.n_threads then invalid_arg "Vm.runnable_into: buffer too short";
  let count = ref 0 in
  for tid = 0 to st.n_threads - 1 do
    if can_run st tid st.threads.(tid) then begin
      Array.unsafe_set buf !count tid;
      incr count
    end
  done;
  !count

let runnable st =
  let buf = Array.make st.n_threads 0 in
  List.init (runnable_into st buf) (Array.get buf)

let n_threads st = st.n_threads

let runnable_bits st k =
  let bits = ref 0 in
  for tid = 63 * k to min st.n_threads ((63 * k) + 63) - 1 do
    if can_run st tid st.threads.(tid) then
      bits := !bits lor (1 lsl (tid - (63 * k)))
  done;
  !bits

let all_quiescent st =
  let rec go tid =
    tid >= st.n_threads
    || (match st.threads.(tid).status with Finished | Faulted _ -> true | _ -> false)
       && go (tid + 1)
  in
  go 0

let deadlocked st = runnable st = [] && not (all_quiescent st)

let global_value st slot = st.globals.(slot)

let output st = List.rev st.output_rev

let failures st = List.rev st.failures_rev

(* Exact heap words of the configuration, counted per block as header
   plus fields, excluding the program and its tables, which every copy
   shares. Spare frames count with the live ones, and [dummy_frame] with
   its empty arrays once when some frame slot holds it. The scratch event
   is priced with a dynamic [op] and its own [Loc.t]; a parked status is
   priced per thread although threads share it; a failure message is
   priced once, under the faulted thread's status, which holds the same
   string. Immutable output/failure lists shared between copies are
   counted in full by each — summed over a cache's entries this
   over-counts, never under-counts. *)
let approx_words st =
  let arr a = 1 + Array.length a in
  let string_words s = 1 + ((String.length s + 8) / 8) in
  let status_words = function
    | Runnable | Finished -> 0
    | Blocked_on_lock _ | Blocked_on_join _ | Waiting _ | Reacquiring _ -> 2
    | Faulted msg -> 2 + string_words msg
  in
  (* Loops rather than iterators: this runs on every checkpoint park. *)
  let words = ref (14 + 10 + arr st.globals + arr st.arrays) in
  for i = 0 to Array.length st.arrays - 1 do
    words := !words + arr st.arrays.(i)
  done;
  words := !words + arr st.lock_owner + arr st.lock_depth + arr st.conditions;
  for i = 0 to Array.length st.conditions - 1 do
    words := !words + (3 * List.length st.conditions.(i))
  done;
  words := !words + arr st.threads;
  let dummy = ref false in
  for tid = 0 to st.n_threads - 1 do
    let t = st.threads.(tid) in
    words := !words + 7 + status_words t.status + arr t.frames;
    for k = 0 to Array.length t.frames - 1 do
      let f = t.frames.(k) in
      if f == dummy_frame then dummy := true
      else words := !words + 6 + arr f.locals + arr f.stack
    done
  done;
  (if !dummy then 7 else 0) + !words + (3 * st.n_output) + (6 * List.length st.failures_rev)

(* --- Arithmetic -------------------------------------------------------- *)

let apply_binop op a b =
  let bool_ v = if v then 1 else 0 in
  match op with
  | Ast.Add -> a + b
  | Ast.Sub -> a - b
  | Ast.Mul -> a * b
  | Ast.Div -> if b = 0 then raise (Fault "division by zero") else a / b
  | Ast.Mod -> if b = 0 then raise (Fault "modulo by zero") else a mod b
  | Ast.Lt -> bool_ (a < b)
  | Ast.Le -> bool_ (a <= b)
  | Ast.Gt -> bool_ (a > b)
  | Ast.Ge -> bool_ (a >= b)
  | Ast.Eq -> bool_ (a = b)
  | Ast.Ne -> bool_ (a <> b)
  | Ast.And -> bool_ (a <> 0 && b <> 0)
  | Ast.Or -> bool_ (a <> 0 || b <> 0)

let apply_unop op a =
  match op with Ast.Neg -> -a | Ast.Not -> if a = 0 then 1 else 0

(* --- Stepping ---------------------------------------------------------- *)

let underflow () = raise (Fault "operand stack underflow")

let pop f =
  let sp = f.sp - 1 in
  if sp < 0 then underflow ();
  f.sp <- sp;
  Array.unsafe_get f.stack sp

let top f = if f.sp = 0 then underflow () else Array.unsafe_get f.stack (f.sp - 1)

(* [frame]'s operand array [stack], with room for a push at [sp]. *)
let room frame stack sp =
  if sp < Array.length stack then stack
  else begin
    let bigger = Array.make (2 * sp) 0 in
    Array.blit stack 0 bigger 0 sp;
    frame.stack <- bigger;
    bigger
  end
  [@@inline]

let push f v =
  let sp = f.sp in
  Array.unsafe_set (room f f.stack sp) sp v;
  f.sp <- sp + 1

(* Pops [nargs] arguments; returns the index of the first (deepest) one,
   whose slots stay intact until the next push. *)
let pop_args f nargs =
  if f.sp < nargs then underflow ();
  f.sp <- f.sp - nargs;
  f.sp

let check_array st aid idx =
  let n = Array.length st.prog.Bytecode.array_sizes in
  if aid < 0 || aid >= n then raise (Fault "invalid array id");
  let size = st.prog.Bytecode.array_sizes.(aid) in
  if idx < 0 || idx >= size then
    raise
      (Fault
         (Printf.sprintf "array index %d out of bounds for %s[%d]" idx
            st.prog.Bytecode.array_names.(aid) size))

let check_lock st handle =
  if handle < 0 || handle >= st.prog.Bytecode.n_locks then
    raise (Fault (Printf.sprintf "invalid lock handle %d" handle))

(* Faults unless [tid] holds [handle]; returns its reentrancy depth. *)
let held_depth st tid handle what =
  check_lock st handle;
  if st.lock_owner.(handle) <> tid then
    raise
      (Fault
         (Printf.sprintf "%s lock %s not held" what
            st.prog.Bytecode.lock_names.(handle)));
  st.lock_depth.(handle)

let emit_to sink (scratch : Event.t) tid loc op =
  scratch.Event.tid <- tid;
  scratch.Event.op <- op;
  scratch.Event.loc <- loc;
  sink scratch
  [@@inline]

(* Only a thread that can run is stepped, and it can run afterwards
   too, so this write never changes the runnable set. *)
let set_runnable t = if t.status != Runnable then t.status <- Runnable
  [@@inline]

(* Reports a write to what [can_run] reads — a thread status, a lock
   owner, the thread count: the runnable set may have changed. *)
let changed st = st.report <- st.report lor changed_bit [@@inline]

let yielded st = st.report <- st.report lor yielded_bit [@@inline]

(* Completion of a straight-line instruction at [pc]. *)
let advance frame t pc =
  frame.pc <- pc + 1;
  set_runnable t
  [@@inline]

let rec wake st handle = function
  | [] -> ()
  | w :: rest ->
      st.threads.(w).status <- Ids.get reacquiring handle;
      wake st handle rest

(* Execute the instruction at [frame.pc] of [t], the top frame of [tid].
   Every [Fault] is raised before the instruction writes anything but
   [frame.sp], so the caller can undo a faulting step by restoring
   [sp]. *)
let exec st t tid frame loc sink =
  let tables = st.prog.Bytecode.tables and scratch = st.scratch in
  let pc = frame.pc in
  match st.prog.Bytecode.funcs.(frame.func).code.(pc) with
  | Bytecode.Const n ->
      push frame n;
      advance frame t pc
  | Bytecode.Load_global g ->
      emit_to sink scratch tid loc tables.read_global_ops.(g);
      push frame st.globals.(g);
      advance frame t pc
  | Bytecode.Store_global g ->
      let v = pop frame in
      emit_to sink scratch tid loc tables.write_global_ops.(g);
      st.globals.(g) <- v;
      advance frame t pc
  | Bytecode.Load_local l ->
      push frame frame.locals.(l);
      advance frame t pc
  | Bytecode.Store_local l ->
      frame.locals.(l) <- pop frame;
      advance frame t pc
  | Bytecode.Load_elem aid ->
      let idx = pop frame in
      check_array st aid idx;
      emit_to sink scratch tid loc tables.read_cell_ops.(aid).(idx);
      push frame st.arrays.(aid).(idx);
      advance frame t pc
  | Bytecode.Store_elem aid ->
      let v = pop frame in
      let idx = pop frame in
      check_array st aid idx;
      emit_to sink scratch tid loc tables.write_cell_ops.(aid).(idx);
      st.arrays.(aid).(idx) <- v;
      advance frame t pc
  | Bytecode.Array_len aid ->
      if aid < 0 || aid >= Array.length st.prog.Bytecode.array_sizes then
        raise (Fault "invalid array id");
      push frame st.prog.Bytecode.array_sizes.(aid);
      advance frame t pc
  | Bytecode.Binop op ->
      let b = pop frame in
      let a = pop frame in
      push frame (apply_binop op a b);
      advance frame t pc
  | Bytecode.Unop op ->
      push frame (apply_unop op (pop frame));
      advance frame t pc
  | Bytecode.Jump target ->
      frame.pc <- target;
      set_runnable t
  | Bytecode.Jump_if_zero target ->
      frame.pc <- (if pop frame = 0 then target else pc + 1);
      set_runnable t
  | Bytecode.Acquire ->
      (* The handle stays on the stack until the acquire succeeds, so a
         parked thread re-executes the same instruction. *)
      let handle = top frame in
      check_lock st handle;
      let owner = st.lock_owner.(handle) in
      if owner = tid then begin
        (* Reentrant acquire: no event. *)
        st.lock_depth.(handle) <- st.lock_depth.(handle) + 1;
        frame.sp <- frame.sp - 1;
        advance frame t pc
      end
      else if owner >= 0 then begin
        t.status <- Ids.get blocked_on_lock handle;
        changed st
      end
      else begin
        emit_to sink scratch tid loc tables.acquire_ops.(handle);
        st.lock_owner.(handle) <- tid;
        st.lock_depth.(handle) <- 1;
        frame.sp <- frame.sp - 1;
        advance frame t pc;
        changed st
      end
  | Bytecode.Release ->
      let handle = pop frame in
      let depth = held_depth st tid handle "release of" in
      if depth = 1 then begin
        emit_to sink scratch tid loc tables.release_ops.(handle);
        st.lock_owner.(handle) <- -1;
        st.lock_depth.(handle) <- 0;
        changed st
      end
      else st.lock_depth.(handle) <- depth - 1;
      advance frame t pc
  | Bytecode.Wait ->
      let handle = pop frame in
      let depth = held_depth st tid handle "wait on" in
      (* Release the monitor fully and park on its condition. The event
         encoding is Release;Yield now and Acquire at resume, which makes
         wait a scheduling point for the cooperative semantics and gives
         the analyses the right happens-before edges with no new event
         kinds. *)
      emit_to sink scratch tid loc tables.release_ops.(handle);
      emit_to sink scratch tid loc Event.Yield;
      st.lock_owner.(handle) <- -1;
      st.lock_depth.(handle) <- 0;
      st.conditions.(handle) <- st.conditions.(handle) @ [ tid ];
      frame.pc <- pc + 1;
      t.status <- Ids.get waiting handle;
      t.wait_depth <- depth;
      changed st;
      yielded st
  | Bytecode.Notify all ->
      let handle = pop frame in
      ignore (held_depth st tid handle "notify on");
      (match st.conditions.(handle) with
      | [] -> ()
      | waiters when all ->
          st.conditions.(handle) <- [];
          wake st handle waiters;
          changed st
      | w :: rest ->
          st.conditions.(handle) <- rest;
          wake st handle [ w ];
          changed st);
      advance frame t pc
  | Bytecode.Yield_instr ->
      emit_to sink scratch tid loc Event.Yield;
      advance frame t pc;
      yielded st
  | Bytecode.Atomic_begin ->
      emit_to sink scratch tid loc Event.Atomic_begin;
      advance frame t pc
  | Bytecode.Atomic_end ->
      emit_to sink scratch tid loc Event.Atomic_end;
      advance frame t pc
  | Bytecode.Spawn (fi, nargs) ->
      let base = pop_args frame nargs in
      let child = st.n_threads in
      emit_to sink scratch tid loc (Event.Fork child);
      let thread = new_thread (new_frame st.prog fi frame.stack base nargs) in
      if child = Array.length st.threads then begin
        let bigger = Array.make (2 * child) thread in
        Array.blit st.threads 0 bigger 0 child;
        st.threads <- bigger
      end;
      st.threads.(child) <- thread;
      st.n_threads <- child + 1;
      push frame child;
      advance frame t pc;
      changed st
  | Bytecode.Join ->
      let target = top frame in
      if target < 0 || target >= st.n_threads then
        raise (Fault (Printf.sprintf "join on unknown thread %d" target));
      if join_target_done st target then begin
        emit_to sink scratch tid loc (Event.Join target);
        frame.sp <- frame.sp - 1;
        advance frame t pc
      end
      else begin
        t.status <- Ids.get blocked_on_join target;
        changed st
      end
  | Bytecode.Call (fi, nargs) ->
      let base = pop_args frame nargs in
      emit_to sink scratch tid loc tables.enter_ops.(fi);
      frame.pc <- pc + 1;
      push_frame st.prog t fi frame.stack base nargs;
      set_runnable t
  | Bytecode.Ret ->
      let v = pop frame in
      emit_to sink scratch tid loc tables.exit_ops.(frame.func);
      let d = t.depth - 1 in
      t.depth <- d;
      if d > 0 then begin
        push (Array.unsafe_get t.frames (d - 1)) v;
        set_runnable t
      end
      else begin
        t.frames <- [||];
        t.status <- Finished;
        changed st
      end
  | Bytecode.Print ->
      let v = pop frame in
      emit_to sink scratch tid loc (Event.Out v);
      st.output_rev <- v :: st.output_rev;
      st.n_output <- st.n_output + 1;
      advance frame t pc
  | Bytecode.Assert ->
      if pop frame = 0 then
        raise (Fault (Printf.sprintf "assertion failed at line %d" loc.Loc.line));
      advance frame t pc
  | Bytecode.Pop ->
      ignore (pop frame);
      advance frame t pc
  | Bytecode.Halt ->
      t.status <- Finished;
      changed st

(* Execute one instruction of [tid]. Precondition: the thread can run. *)
let step ~yields st tid ~sink =
  if tid < 0 || tid >= st.n_threads then invalid_arg "Vm.step: unknown thread";
  let t = st.threads.(tid) in
  if not (can_run st tid t) then invalid_arg "Vm.step: thread cannot run";
  if t.depth = 0 then invalid_arg "Vm.step: thread has no frame";
  let frame = top_frame t in
  let tables = st.prog.Bytecode.tables and scratch = st.scratch in
  let loc = Bytecode.loc st.prog ~func:frame.func ~pc:frame.pc in
  st.report <- 0;
  (* Root-frame Enter event, once per thread. *)
  if not t.entered then begin
    emit_to sink scratch tid loc tables.enter_ops.(frame.func);
    t.entered <- true
  end;
  (match t.status with
  | Reacquiring handle ->
      (* A woken waiter's next step reacquires its monitor at the saved
         reentrancy depth; no instruction executes this step. *)
      emit_to sink scratch tid loc tables.acquire_ops.(handle);
      st.lock_owner.(handle) <- tid;
      st.lock_depth.(handle) <- max 1 t.wait_depth;
      t.status <- Runnable;
      t.wait_depth <- 0;
      changed st
  | _ ->
      (* Injected yield: its own scheduling point, before the instruction. *)
      if (not t.pending_yield)
         && (not (Loc.Set.is_empty yields))
         && Loc.Set.mem loc yields
      then begin
        emit_to sink scratch tid loc Event.Yield;
        t.pending_yield <- true;
        set_runnable t;
        yielded st
      end
      else begin
        t.pending_yield <- false;
        let sp = frame.sp in
        try exec st t tid frame loc sink
        with Fault msg ->
          frame.sp <- sp;
          st.failures_rev <- (tid, msg) :: st.failures_rev;
          t.status <- Faulted msg;
          changed st
      end);
  st.report land yielded_bit <> 0

let runnable_changed st = st.report land changed_bit <> 0

(* --- Running ahead ----------------------------------------------------- *)

(* Stops [run_code]: writes its pc and operand count back to [frame]
   and returns the fuel left. *)
let stop frame pc sp fuel =
  frame.pc <- pc;
  frame.sp <- sp;
  fuel
  [@@inline]

(* Executes the invisible instructions of [frame], whose code is [code]
   and locations [locs], from [pc] with [sp] operands on [stack], while
   [fuel] lasts; returns the fuel left. It stops before an instruction
   that is visible, would fault (a short operand stack, a zero divisor, a
   failing assert, a bad array id) or, when [check], sits at a location
   in [yields] — an injected yield is a scheduling point whether or not
   it was already emitted. Each instruction is decoded once and does
   exactly what [exec] does with it, which a one-instruction-per-draw
   loop reaches through [step]. The frame's registers travel as
   arguments and are written back only at the stop; at top level, a call
   allocates nothing. *)
let rec run_code frame code locs yields check sizes stack pc sp fuel =
  if fuel <= 0 || pc < 0 || pc >= Array.length code
     || (check && Loc.Set.mem (Array.unsafe_get locs pc) yields)
  then stop frame pc sp fuel
  else
    match Array.unsafe_get code pc with
    | Bytecode.Const v ->
        let stack = room frame stack sp in
        Array.unsafe_set stack sp v;
        run_code frame code locs yields check sizes stack (pc + 1) (sp + 1) (fuel - 1)
    | Bytecode.Load_local l ->
        let v = frame.locals.(l) in
        let stack = room frame stack sp in
        Array.unsafe_set stack sp v;
        run_code frame code locs yields check sizes stack (pc + 1) (sp + 1) (fuel - 1)
    | Bytecode.Store_local l when sp >= 1 ->
        frame.locals.(l) <- Array.unsafe_get stack (sp - 1);
        run_code frame code locs yields check sizes stack (pc + 1) (sp - 1) (fuel - 1)
    | Bytecode.Jump target ->
        run_code frame code locs yields check sizes stack target sp (fuel - 1)
    | Bytecode.Jump_if_zero target when sp >= 1 ->
        let pc = if Array.unsafe_get stack (sp - 1) = 0 then target else pc + 1 in
        run_code frame code locs yields check sizes stack pc (sp - 1) (fuel - 1)
    | Bytecode.Binop op when sp >= 2 -> (
        let b = Array.unsafe_get stack (sp - 1) in
        match op with
        | (Ast.Div | Ast.Mod) when b = 0 -> stop frame pc sp fuel
        | _ ->
            let a = Array.unsafe_get stack (sp - 2) in
            Array.unsafe_set stack (sp - 2) (apply_binop op a b);
            run_code frame code locs yields check sizes stack (pc + 1) (sp - 1) (fuel - 1))
    | Bytecode.Unop op when sp >= 1 ->
        Array.unsafe_set stack (sp - 1) (apply_unop op (Array.unsafe_get stack (sp - 1)));
        run_code frame code locs yields check sizes stack (pc + 1) sp (fuel - 1)
    | Bytecode.Assert when sp >= 1 && Array.unsafe_get stack (sp - 1) <> 0 ->
        run_code frame code locs yields check sizes stack (pc + 1) (sp - 1) (fuel - 1)
    | Bytecode.Pop when sp >= 1 ->
        run_code frame code locs yields check sizes stack (pc + 1) (sp - 1) (fuel - 1)
    | Bytecode.Array_len aid when aid >= 0 && aid < Array.length sizes ->
        let stack = room frame stack sp in
        Array.unsafe_set stack sp (Array.unsafe_get sizes aid);
        run_code frame code locs yields check sizes stack (pc + 1) (sp + 1) (fuel - 1)
    | _ -> stop frame pc sp fuel

(* Runs [frame] ahead by up to [limit] invisible instructions; returns
   how many ran. *)
let run_frame ~yields st frame limit =
  let prog = st.prog in
  limit
  - run_code frame prog.Bytecode.funcs.(frame.func).Bytecode.code
      prog.Bytecode.tables.locs.(frame.func) yields
      (not (Loc.Set.is_empty yields))
      prog.Bytecode.array_sizes frame.stack frame.pc frame.sp limit

(* The top frame of [tid] when the thread may run ahead: it is live,
   [Runnable] (not parked, woken or finished) and already entered, so
   [step] would emit nothing before its next instruction. *)
let ahead_frame st tid =
  if tid < 0 || tid >= st.n_threads then invalid_arg "Vm.run_local: unknown thread";
  let t = st.threads.(tid) in
  if t.depth > 0 && t.status == Runnable && t.entered then top_frame t
  else dummy_frame

let run_local ~yields st tid ~limit =
  let frame = ahead_frame st tid in
  if frame == dummy_frame then 0 else run_frame ~yields st frame limit

type mark = {
  mutable m_frame : frame;  (* [dummy_frame] until the first save *)
  mutable m_pc : int;
  mutable m_sp : int;
  mutable m_stack : int array;  (* the frame's stack array when saved *)
  mutable m_stack_buf : int array;  (* its first [m_sp] slots *)
  mutable m_locals_buf : int array;  (* the frame's locals *)
}

let new_mark () =
  { m_frame = dummy_frame; m_pc = 0; m_sp = 0; m_stack = [||];
    m_stack_buf = [||]; m_locals_buf = [||] }

let save_frame m frame =
  let sp = frame.sp and locals = frame.locals in
  let n_locals = Array.length locals in
  if Array.length m.m_stack_buf < sp then
    m.m_stack_buf <- Array.make (Array.length frame.stack) 0;
  if Array.length m.m_locals_buf < n_locals then
    m.m_locals_buf <- Array.make n_locals 0;
  for i = 0 to sp - 1 do
    Array.unsafe_set m.m_stack_buf i (Array.unsafe_get frame.stack i)
  done;
  for i = 0 to n_locals - 1 do
    Array.unsafe_set m.m_locals_buf i (Array.unsafe_get locals i)
  done;
  m.m_frame <- frame;
  m.m_pc <- frame.pc;
  m.m_sp <- sp;
  m.m_stack <- frame.stack

let run_ahead ~yields st tid ~limit m =
  let frame = ahead_frame st tid in
  if frame == dummy_frame || limit <= 0 then 0
  else begin
    save_frame m frame;
    run_frame ~yields st frame limit
  end

(* Invisible instructions push no frame, so the saved frame is still the
   thread's top frame; restoring its stack array undoes a doubling. *)
let rewind m =
  let frame = m.m_frame in
  if frame != dummy_frame then begin
    let sp = m.m_sp and locals = frame.locals in
    frame.pc <- m.m_pc;
    frame.sp <- sp;
    frame.stack <- m.m_stack;
    for i = 0 to sp - 1 do
      Array.unsafe_set m.m_stack i (Array.unsafe_get m.m_stack_buf i)
    done;
    for i = 0 to Array.length locals - 1 do
      Array.unsafe_set locals i (Array.unsafe_get m.m_locals_buf i)
    done
  end

(* Instructions an explorer's transition ends on: shared memory, locks,
   monitors, thread creation and join, output, explicit yields. The
   others — invisible ones and the call/return/atomic-marker/halt
   instructions, whose events concern only their own thread — belong to
   the transition's prefix. *)
let ends_transition = function
  | Bytecode.Load_global _ | Bytecode.Store_global _ | Bytecode.Load_elem _
  | Bytecode.Store_elem _ | Bytecode.Acquire | Bytecode.Release
  | Bytecode.Wait | Bytecode.Notify _ | Bytecode.Yield_instr
  | Bytecode.Spawn _ | Bytecode.Join | Bytecode.Print ->
      true
  | Bytecode.Const _ | Bytecode.Load_local _ | Bytecode.Store_local _
  | Bytecode.Array_len _ | Bytecode.Binop _ | Bytecode.Unop _ | Bytecode.Jump _
  | Bytecode.Jump_if_zero _ | Bytecode.Atomic_begin | Bytecode.Atomic_end
  | Bytecode.Call _ | Bytecode.Ret | Bytecode.Assert | Bytecode.Pop
  | Bytecode.Halt ->
      false

(* The loop of [transition], at top level so that a call allocates no
   closure. The instruction the prefix stopped at is read in place — no
   option, no tuple: it is visible, a prefix instruction that emits an
   event, a fault, or an injected yield, which ends the transition either
   as the yield or as the instruction right after it. *)
let rec transition_from ~yields st t tid fuel ~sink =
  if fuel = 0 then false
  else
    match t.status with
    | Reacquiring _ ->
        (* A monitor reacquire is a visible transition of its own. *)
        ignore (step ~yields st tid ~sink);
        true
    | _ -> (
        let fuel = fuel - run_local ~yields st tid ~limit:fuel in
        if fuel = 0 then false
        else
          if t.depth = 0 then true
          else
              let frame = top_frame t in
              let code = st.prog.Bytecode.funcs.(frame.func).Bytecode.code in
              let pc = frame.pc in
              if pc < 0 || pc >= Array.length code then true
              else begin
                let ends = ends_transition (Array.unsafe_get code pc) in
                let injected =
                  (not (Loc.Set.is_empty yields))
                  && Loc.Set.mem st.prog.Bytecode.tables.locs.(frame.func).(pc) yields
                in
                ignore (step ~yields st tid ~sink);
                ends || injected
                || (match t.status with
                   | Finished | Faulted _ -> true
                   | _ -> transition_from ~yields st t tid (fuel - 1) ~sink)
              end)

let transition ~yields st tid ~fuel ~sink =
  transition_from ~yields st st.threads.(tid) tid fuel ~sink

(* --- Canonical serialization for memoization --------------------------- *)

(* Array cells and locals are dense, so an unwritten slot and a slot
   written 0 serialise alike: both read 0, so the states they belong to
   are indistinguishable to the program. Only non-zero cells are listed. *)
let key st =
  let buf = Buffer.create 256 in
  let add_int n =
    Buffer.add_string buf (string_of_int n);
    Buffer.add_char buf ','
  in
  let add_nonzero a =
    Array.iteri (fun i v -> if v <> 0 then begin add_int i; add_int v end) a
  in
  Buffer.add_char buf 'G';
  Array.iter add_int st.globals;
  Buffer.add_char buf 'A';
  Array.iter
    (fun a ->
      add_nonzero a;
      Buffer.add_char buf ';')
    st.arrays;
  Buffer.add_char buf 'L';
  Array.iteri
    (fun h o -> if o >= 0 then begin add_int h; add_int o; add_int st.lock_depth.(h) end)
    st.lock_owner;
  Buffer.add_char buf 'C';
  Array.iter
    (fun q ->
      List.iter add_int q;
      Buffer.add_char buf ';')
    st.conditions;
  Buffer.add_char buf 'T';
  for tid = 0 to st.n_threads - 1 do
    let t = st.threads.(tid) in
    (match t.status with
    | Runnable -> Buffer.add_char buf 'r'
    | Blocked_on_lock h -> Buffer.add_char buf 'l'; add_int h
    | Blocked_on_join u -> Buffer.add_char buf 'j'; add_int u
    | Waiting h -> Buffer.add_char buf 'w'; add_int h
    | Reacquiring h -> Buffer.add_char buf 'q'; add_int h
    | Finished -> Buffer.add_char buf 'f'
    | Faulted _ -> Buffer.add_char buf 'x');
    Buffer.add_char buf (if t.entered then 'e' else '.');
    Buffer.add_char buf (if t.pending_yield then 'y' else '.');
    add_int t.wait_depth;
    for k = t.depth - 1 downto 0 do
      let f = t.frames.(k) in
      add_int f.func;
      add_int f.pc;
      Buffer.add_char buf 's';
      for i = 0 to f.sp - 1 do add_int f.stack.(i) done;
      Buffer.add_char buf 'v';
      add_nonzero f.locals;
      Buffer.add_char buf '|'
    done;
    Buffer.add_char buf '!'
  done;
  Buffer.add_char buf 'O';
  List.iter add_int st.output_rev;
  Buffer.add_char buf 'F';
  List.iter (fun (tid, _) -> add_int tid) st.failures_rev;
  Buffer.contents buf
