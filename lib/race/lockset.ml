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
  own_interner : bool;
  witness : bool;  (* capture divergent-lock-set evidence per warning *)
  mutable seq : int;  (* 1-based global position of the current event *)
  mutable held : Iset.t array;  (* dense tid -> locks currently held *)
  mutable vars : var_info array;  (* dense var id -> info *)
  mutable reports : Report.t list;  (* reversed *)
}

let create ?interner ?(witness = false) () =
  let own_interner = interner = None in
  let itn = match interner with Some itn -> itn | None -> Interner.create () in
  { itn; own_interner; witness;
    seq = 0;
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

let warn t i tid v kind w =
  if i.warned then []
  else begin
    i.warned <- true;
    let r =
      { Report.var = v; kind; first_tid = -1; second_tid = tid;
        second_loc = Loc.none; witness = w }
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

let access t tid vid v ~orig_tid ~loc ~is_write =
  let i = info_of t vid in
  let locks = held_by t tid in
  (* Snapshot the candidate set before this access refines it: the
     warning's evidence is the divergence (prior ∩ held = ∅). *)
  let prior = if t.witness then i.candidates else Iset.empty in
  refine i locks;
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
      if i.written && Iset.is_empty i.candidates then begin
        let w =
          if t.witness then
            Some
              (Coop_provenance.Witness.Locks
                 {
                   l_access = { a_tid = orig_tid; a_seq = t.seq; a_loc = loc };
                   l_prior = Iset.elements prior;
                   l_held = Iset.elements locks;
                 })
          else None
        in
        warn t i orig_tid v
          (if is_write then Report.Write_write else Report.Write_read)
          w
      end
      else []

let handle t (e : Event.t) =
  t.seq <- t.seq + 1;
  if t.own_interner then Interner.note t.itn e;
  let tid = Interner.cur_tid t.itn in
  match e.op with
  | Event.Read v ->
      access t tid (Interner.cur_operand t.itn) v ~orig_tid:e.tid ~loc:e.loc
        ~is_write:false
  | Event.Write v ->
      access t tid (Interner.cur_operand t.itn) v ~orig_tid:e.tid ~loc:e.loc
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

(* Checkpointing: held sets are immutable (array copy suffices), var
   records are copied field-wise; the interner rides along so standalone
   detectors restore their id assignments. *)
type snapshot = {
  s_itn : Interner.snapshot;
  s_seq : int;
  s_held : Iset.t array;
  s_vars : var_info array;
  s_reports : Report.t list;
}

let copy_info i =
  if i == dummy_info then i
  else
    { state = i.state; candidates = i.candidates;
      have_candidates = i.have_candidates; written = i.written;
      warned = i.warned }

let snapshot t =
  {
    s_itn = Interner.snapshot t.itn;
    s_seq = t.seq;
    s_held = Array.copy t.held;
    s_vars = Array.map copy_info t.vars;
    s_reports = t.reports;
  }

let restore t s =
  Interner.restore t.itn s.s_itn;
  t.seq <- s.s_seq;
  t.held <- Array.copy s.s_held;
  t.vars <- Array.map copy_info s.s_vars;
  t.reports <- s.s_reports

let snap_key : snapshot Analysis.Key.t = Analysis.Key.create "lockset"

let analysis ?interner ?witness () =
  let t = create ?interner ?witness () in
  Analysis.snapshottable ~key:snap_key
    ~save:(fun () -> snapshot t)
    ~load:(restore t)
    (Analysis.make
       ~step:(fun e -> ignore (handle t e))
       ~finalize:(fun () -> List.rev t.reports))

let run trace = Analysis.run (analysis ()) trace

let racy_vars_of_trace trace =
  Report.racy_vars (Analysis.run (analysis ()) trace)
