(* Dense-id assignment with array fast paths.

   The forward maps exploit that VM-produced names are themselves small
   and dense: global slots, lock handles, thread ids and array ids all
   count up from 0, and cell indices are bounded by the declared array
   sizes. Each map is a direct-indexed [int array] (-1 = unassigned)
   grown on demand; names too large for a sane direct table (possible
   only in hand-written trace files) fall back to a hash table. *)

let direct_cap = 1 lsl 20

type t = {
  (* forward: name -> dense id *)
  mutable globals : int array;  (* global slot -> id *)
  mutable cells : int array array;  (* array id -> cell index -> id *)
  mutable locks : int array;  (* lock handle -> id *)
  mutable tids : int array;  (* thread id -> id *)
  odd_vars : (Event.var, int) Hashtbl.t;  (* out-of-range fallback *)
  odd_locks : (int, int) Hashtbl.t;
  odd_tids : (int, int) Hashtbl.t;
  (* reverse: dense id -> name *)
  mutable var_names : Event.var array;
  mutable n_vars : int;
  mutable lock_names : int array;
  mutable n_locks : int;
  mutable tid_names : int array;
  mutable n_tids : int;
  (* ids for the last noted event *)
  mutable cur_tid : int;
  mutable cur_operand : int;
}

let no_var = Event.Global min_int

let create () =
  {
    globals = Array.make 16 (-1);
    cells = [||];
    locks = Array.make 8 (-1);
    tids = Array.make 8 (-1);
    odd_vars = Hashtbl.create 4;
    odd_locks = Hashtbl.create 4;
    odd_tids = Hashtbl.create 4;
    var_names = Array.make 16 no_var;
    n_vars = 0;
    lock_names = Array.make 8 (-1);
    n_locks = 0;
    tid_names = Array.make 8 (-1);
    n_tids = 0;
    cur_tid = -1;
    cur_operand = -1;
  }

let grown a n ~fill =
  let bigger = Array.make (max n (2 * Array.length a)) fill in
  Array.blit a 0 bigger 0 (Array.length a);
  bigger

let push_var t v =
  let id = t.n_vars in
  if id = Array.length t.var_names then
    t.var_names <- grown t.var_names (id + 1) ~fill:no_var;
  t.var_names.(id) <- v;
  t.n_vars <- id + 1;
  id

let push_int names n x =
  let names =
    if n = Array.length names then grown names (n + 1) ~fill:(-1) else names
  in
  names.(n) <- x;
  names

let var_id t (v : Event.var) =
  match v with
  | Event.Global g when g >= 0 && g < direct_cap ->
      if g >= Array.length t.globals then
        t.globals <- grown t.globals (g + 1) ~fill:(-1);
      let id = t.globals.(g) in
      if id >= 0 then id
      else begin
        let id = push_var t v in
        t.globals.(g) <- id;
        id
      end
  | Event.Cell (a, i) when a >= 0 && a < 4096 && i >= 0 && i < direct_cap ->
      if a >= Array.length t.cells then begin
        let bigger = Array.make (max (a + 1) (2 * Array.length t.cells)) [||] in
        Array.blit t.cells 0 bigger 0 (Array.length t.cells);
        t.cells <- bigger
      end;
      if i >= Array.length t.cells.(a) then
        t.cells.(a) <-
          (let old = t.cells.(a) in
           grown (if Array.length old = 0 then Array.make 8 (-1) else old)
             (i + 1) ~fill:(-1));
      let id = t.cells.(a).(i) in
      if id >= 0 then id
      else begin
        let id = push_var t v in
        t.cells.(a).(i) <- id;
        id
      end
  | _ -> (
      match Hashtbl.find_opt t.odd_vars v with
      | Some id -> id
      | None ->
          let id = push_var t v in
          Hashtbl.add t.odd_vars v id;
          id)

let lock_id t l =
  if l >= 0 && l < direct_cap then begin
    if l >= Array.length t.locks then t.locks <- grown t.locks (l + 1) ~fill:(-1);
    let id = t.locks.(l) in
    if id >= 0 then id
    else begin
      let id = t.n_locks in
      t.lock_names <- push_int t.lock_names id l;
      t.n_locks <- id + 1;
      t.locks.(l) <- id;
      id
    end
  end
  else begin
    match Hashtbl.find_opt t.odd_locks l with
    | Some id -> id
    | None ->
        let id = t.n_locks in
        t.lock_names <- push_int t.lock_names id l;
        t.n_locks <- id + 1;
        Hashtbl.add t.odd_locks l id;
        id
  end

let find_lock t l =
  if l >= 0 && l < direct_cap then
    if l < Array.length t.locks then t.locks.(l) else -1
  else begin
    match Hashtbl.find_opt t.odd_locks l with Some id -> id | None -> -1
  end

let tid_id t u =
  if u >= 0 && u < direct_cap then begin
    if u >= Array.length t.tids then t.tids <- grown t.tids (u + 1) ~fill:(-1);
    let id = t.tids.(u) in
    if id >= 0 then id
    else begin
      let id = t.n_tids in
      t.tid_names <- push_int t.tid_names id u;
      t.n_tids <- id + 1;
      t.tids.(u) <- id;
      id
    end
  end
  else begin
    match Hashtbl.find_opt t.odd_tids u with
    | Some id -> id
    | None ->
        let id = t.n_tids in
        t.tid_names <- push_int t.tid_names id u;
        t.n_tids <- id + 1;
        Hashtbl.add t.odd_tids u id;
        id
  end

let note t (e : Event.t) =
  t.cur_tid <- tid_id t e.tid;
  t.cur_operand <-
    (match e.op with
    | Event.Read v | Event.Write v -> var_id t v
    | Event.Acquire l | Event.Release l -> lock_id t l
    | Event.Fork u | Event.Join u -> tid_id t u
    | Event.Yield | Event.Enter _ | Event.Exit _ | Event.Atomic_begin
    | Event.Atomic_end | Event.Out _ ->
        -1)

let cur_tid t = t.cur_tid
let cur_operand t = t.cur_operand

let analysis t = Analysis.make ~step:(note t) ~finalize:(fun () -> ())

let var_of_id t id =
  if id < 0 || id >= t.n_vars then invalid_arg "Interner.var_of_id";
  t.var_names.(id)

let lock_of_id t id =
  if id < 0 || id >= t.n_locks then invalid_arg "Interner.lock_of_id";
  t.lock_names.(id)

let tid_of_id t id =
  if id < 0 || id >= t.n_tids then invalid_arg "Interner.tid_of_id";
  t.tid_names.(id)

let n_vars t = t.n_vars
let n_locks t = t.n_locks
let n_tids t = t.n_tids
