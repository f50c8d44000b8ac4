open Coop_trace

module Iset = Set.Make (Int)

type var_state =
  | Virgin
  | Exclusive of int  (* dense tid of the owner *)
  | Shared
  | Shared_modified

type var_info = {
  mutable state : var_state;
  mutable candidates : Iset.t;  (* original lock handles *)
  mutable have_candidates : bool;
      (* false until the first access initializes the set; an explicit flag
         avoids conflating "all locks" with "no locks". *)
  mutable written : bool;  (* any write so far, by any thread *)
  mutable warned : bool;
}

(* Shared placeholder for unoccupied slots; never mutated. *)
let dummy_info =
  { state = Virgin; candidates = Iset.empty; have_candidates = false;
    written = false; warned = false }

type t = {
  itn : Interner.t;
  mutable held : Iset.t array;  (* dense tid -> locks currently held *)
  mutable vars : var_info array;  (* dense var id -> info *)
  mutable reports : Report.t list;  (* reversed *)
}

let create () =
  { itn = Interner.create ();
    held = Array.make 8 Iset.empty;
    vars = Array.make 64 dummy_info;
    reports = [] }

let grown_slots a n ~fill =
  let bigger = Array.make (max n (2 * Array.length a)) fill in
  Array.blit a 0 bigger 0 (Array.length a);
  bigger

let held_by t tid =
  if tid < Array.length t.held then t.held.(tid) else Iset.empty

let set_held t tid s =
  if tid >= Array.length t.held then
    t.held <- grown_slots t.held (tid + 1) ~fill:Iset.empty;
  t.held.(tid) <- s

let info_of t vid =
  if vid >= Array.length t.vars then
    t.vars <- grown_slots t.vars (vid + 1) ~fill:dummy_info;
  let i = t.vars.(vid) in
  if i != dummy_info then i
  else begin
    let i =
      { state = Virgin; candidates = Iset.empty; have_candidates = false;
        written = false; warned = false }
    in
    t.vars.(vid) <- i;
    i
  end

let warn t i tid v kind =
  if i.warned then []
  else begin
    i.warned <- true;
    let r =
      { Report.var = v; kind; first_tid = -1; second_tid = tid;
        second_loc = Loc.none; witness = None }
    in
    t.reports <- r :: t.reports;
    [ r ]
  end

(* Refine the candidate set with the lockset of the current access. Unlike
   textbook Eraser we refine during the Exclusive phase too, so the first
   thread's (possibly lock-free) accesses are not forgotten when the
   variable becomes shared — this keeps the detector a strict
   over-approximation of happens-before racy-ness (property-tested against
   FastTrack). *)
let refine i locks =
  if i.have_candidates then i.candidates <- Iset.inter i.candidates locks
  else begin
    i.have_candidates <- true;
    i.candidates <- locks
  end

let access t tid vid v ~orig_tid ~is_write =
  let i = info_of t vid in
  refine i (held_by t tid);
  if is_write then i.written <- true;
  match i.state with
  | Virgin ->
      i.state <- Exclusive tid;
      []
  | Exclusive owner when owner = tid -> []
  | Exclusive _ | Shared | Shared_modified ->
      i.state <-
        (if is_write || i.state = Shared_modified then Shared_modified
         else Shared);
      if i.written && Iset.is_empty i.candidates then
        warn t i orig_tid v
          (if is_write then Report.Write_write else Report.Write_read)
      else []

let handle t (e : Event.t) =
  Interner.note t.itn e;
  let tid = Interner.cur_tid t.itn in
  match e.op with
  | Event.Read v ->
      access t tid (Interner.cur_operand t.itn) v ~orig_tid:e.tid
        ~is_write:false
  | Event.Write v ->
      access t tid (Interner.cur_operand t.itn) v ~orig_tid:e.tid
        ~is_write:true
  | Event.Acquire l ->
      set_held t tid (Iset.add l (held_by t tid));
      []
  | Event.Release l ->
      set_held t tid (Iset.remove l (held_by t tid));
      []
  | Event.Fork _ | Event.Join _ | Event.Yield | Event.Enter _ | Event.Exit _
  | Event.Atomic_begin | Event.Atomic_end | Event.Out _ ->
      []

let state_of t v =
  let vid = Interner.var_id t.itn v in
  if vid >= Array.length t.vars then Virgin
  else
    match t.vars.(vid).state with
    | Exclusive owner -> Exclusive (Interner.tid_of_id t.itn owner)
    | s -> s

let candidate_locks t v =
  let vid = Interner.var_id t.itn v in
  if vid >= Array.length t.vars then None
  else
    let i = t.vars.(vid) in
    match i.state with
    | Virgin | Exclusive _ -> None
    | Shared | Shared_modified -> Some (Iset.elements i.candidates)

let racy_vars t = Report.racy_vars t.reports

let run trace =
  let t = create () in
  Trace.iter (fun e -> ignore (handle t e)) trace;
  List.rev t.reports

let racy_vars_of_trace trace = Report.racy_vars (run trace)
