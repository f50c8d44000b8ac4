open Coop_trace

(* Facts name variables and locks by the dense ids of the run's shared
   [Interner], so ids agree across the feedback loop. *)
type fact = Racy of int | Shared of int
type publish = fact -> unit
type subscribe = (fact -> unit) -> unit

let pack = function Racy id -> 2 * id | Shared id -> (2 * id) + 1
let flow_name = function Racy _ -> "fact/racy" | Shared _ -> "fact/shared"

let facts publish =
  let emit f =
    Coop_obs.flow_begin (flow_name f) ~id:(pack f);
    publish f
  in
  { Coop_race.Fasttrack.on_racy_var = (fun _ id -> emit (Racy id));
    on_shared_lock = (fun _ id -> emit (Shared id)) }

type cause = { cseq : int; cloc : Loc.t; cop : Event.op; cmover : Mover.t }

type viol = {
  tid : int;
  loc : Loc.t;
  op : Event.op;
  mover : Mover.t;
  cause : cause option;
}

(* A transaction's violations, newest first; [seq] is the position of
   the offending event. *)
type viols = Nil | Viol of { seq : int; v : viol; older : viols }

(* The transactions retired with violations, most recent first. *)
type 'a retired =
  | Done
  | Retired of { uid : int; data : 'a; viols : viols; rest : 'a retired }

(* A log entry's code is [operand id lsl 3 lor kind]. Accesses are kinds
   0-1 and lock ops 2-3, so [kind lsr 1] picks the fact an entry depends
   on. [Out] is never logged: a both mover under any knowledge. *)
let kind_of_op : Event.op -> int = function
  | Event.Read _ -> 0
  | Event.Write _ -> 1
  | Event.Acquire _ -> 2
  | Event.Release _ -> 3
  | Event.Fork _ -> 4
  | Event.Join _ -> 5
  | Event.Yield | Event.Enter _ | Event.Exit _ | Event.Atomic_begin
  | Event.Atomic_end | Event.Out _ -> -1

(* Movers as two bits: bit 0 = not a left mover, bit 1 = not a right
   mover. The machine commits on bit 1 (N|L) and, once committed,
   violates on bit 0 (R|N). *)
let m_both = 0
let m_right = 1
let m_left = 2
let m_non = 3
let to_mover = function 0 -> Mover.Both | 1 -> Mover.Right | 2 -> Mover.Left | _ -> Mover.Non

(* The mover of a kind once its fact holds, and of fork/join. A commit
   point is always settled: N and L arise only from facts or a join. *)
let settled kind = match kind with 0 | 1 -> m_non | 2 | 4 -> m_right | _ -> m_left

(* The kinds that can ever commit (N|L) and that can ever violate (R|N),
   under any future knowledge, as bit sets. *)
let can_commit = 0b101011
let can_violate = 0b010111

let grown a n fill =
  let bigger = Array.make (max n (2 * Array.length a)) fill in
  Array.blit a 0 bigger 0 (Array.length a);
  bigger

(* Uninitialised growth: pages a log or chain never reaches stay
   untouched. *)
let grown_bytes b used n =
  let bigger = Bytes.create (max n (2 * Bytes.length b)) in
  Bytes.blit b 0 bigger 0 used;
  bigger

(* Log entries are LEB128 varints, signed fields zigzagged. *)
let zz v = (v lsl 1) lxor (v asr 62)
let unzz z = (z lsr 1) lxor -(z land 1)

let rec put_long b p v =
  if v land lnot 0x7f = 0 then (Bytes.unsafe_set b p (Char.unsafe_chr v); p + 1)
  else begin
    Bytes.unsafe_set b p (Char.unsafe_chr (v land 0x7f lor 0x80));
    put_long b (p + 1) (v lsr 7)
  end

(* The one-byte case, small enough to inline. *)
let put b p v =
  if v land lnot 0x7f = 0 then (Bytes.unsafe_set b p (Char.unsafe_chr v); p + 1)
  else put_long b p v

(* A location packs into 62 bits when its fields fit 20/21/21 bits, as
   every VM location does; any other is [odd_loc] then three varints. *)
let odd_loc = -1

let pack_loc (l : Loc.t) =
  if l.func lor l.pc lor l.line >= 0 && l.func < 1 lsl 20 && l.pc < 1 lsl 21
     && l.line < 1 lsl 21
  then (l.func lsl 42) lor (l.pc lsl 21) lor l.line
  else odd_loc

let max_entry = 53 (* two varints, the location, three more varints *)

(* One thread's log, per phase-relevant op: the position as a varint
   delta from the previous entry, the code as a varint, the packed
   location in 8 bytes. *)
type tlog = {
  mutable buf : Bytes.t;
  mutable len : int;  (* bytes *)
  mutable last : int;  (* position of the last entry logged *)
  mutable top : int;  (* handle of the innermost open transaction, or -1 *)
  mutable parked_n : int;
  mutable parked_hi : int;  (* no parked slice reaches past this byte *)
}

let st_open = 0
let st_parked = 1
let st_free = 2

(* A transaction: its byte slice of the log and the position its first
   delta counts from, the enclosing open transaction, the phase machine
   with its commit point (cm_seq = 0 = none) and the cause built for it,
   and the number of chain entries naming it. Records are reused with
   their handles; a free record has uid -1 and its [stop] links the free
   list. *)
type rcd = {
  mutable uid : int;
  mutable tid : int;  (* original id, reported in violations *)
  mutable dtid : int;  (* dense id: whose log *)
  mutable outer : int;  (* handle of the enclosing open transaction, or -1 *)
  mutable start : int; mutable stop : int; mutable base : int;
  mutable state : int;
  mutable post : bool;
  mutable cm_seq : int; mutable cm_code : int;
  mutable cm_loc : Loc.t; mutable cm_op : Event.op;
  mutable cause_seq : int;  (* the commit [cause] was built for *)
  mutable cause : cause option;
  mutable shape : int;
      (* 0: no op able to commit yet; 1: one seen; 2: an op able to
         violate followed it. Below 2 no knowledge yields a violation. *)
  mutable pend : int;
  mutable rstamp : int;  (* fact walk that last replayed it *)
  mutable viols : viols;  (* newest first *)
}

let new_rcd () =
  { uid = -1; tid = 0; dtid = 0; outer = -1; start = 0; stop = -1; base = 0;
    state = st_free; post = false; cm_seq = 0; cm_code = 0;
    cm_loc = Loc.none; cm_op = Event.Yield; cause_seq = 0; cause = None;
    shape = 0; pend = 0; rstamp = -1; viols = Nil }

let filler = new_rcd () (* table slots past [n_handles]; never used *)

(* The engine's whole mutable state. [vfacts]/[lfacts] hold two ints per
   variable/lock id: the stamp (uid of the last registrant, -1 none,
   [known] once the fact holds) and the head of the fact's chain. [chain]
   holds 16 bytes per entry: handle and next (32 bits each), then the
   registrant's uid — a mismatch marks the entry stale. *)
type 'a state = {
  mutable vfacts : int array; mutable lfacts : int array;
  mutable chain : Bytes.t;
  mutable ch_hi : int;  (* entries [0, ch_hi) have been handed out *)
  mutable ch_free : int;  (* free entries, linked through next *)
  mutable stale : int;  (* entries naming retired transactions *)
  mutable rcds : rcd array;
  mutable datas : 'a array;  (* a free slot keeps its last payload *)
  mutable n_handles : int; mutable free_h : int;
  mutable logs : tlog array;  (* by dense tid *)
  mutable retired : 'a retired;
  mutable next_uid : int;
  mutable walk : int;
  mutable rd : int;  (* replay's read cursor *)
}

let known = -2

(* Native-endian fields of the chain. *)
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32"
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let entry_txn c e = Int32.to_int (get32 c (16 * e))
let entry_next c e = Int32.to_int (get32 c ((16 * e) + 4))
let set_next c e n = set32 c ((16 * e) + 4) (Int32.of_int n)
let entry_uid c e = Int64.to_int (get64 c ((16 * e) + 8))

type 'a t = {
  itn : Interner.t;
  mark : Analysis.mark option;
  timed : bool;
  mutable s : 'a state;
  mutable repair_s : float; mutable repair_words : float; mutable repairs : int;
}

let create ?mark ~interner () =
  { itn = interner; mark; timed = Coop_obs.enabled ();
    s =
      { vfacts = Array.make 64 (-1); lfacts = Array.make 16 (-1);
        chain = Bytes.empty; ch_hi = 0; ch_free = -1; stale = 0; rcds = [||];
        datas = [||]; n_handles = 0; free_h = -1; logs = [||]; retired = Done;
        next_uid = 0; walk = 0; rd = 0 };
    repair_s = 0.; repair_words = 0.; repairs = 0 }

(* The fact column of a variable ([bit] 0) or lock ([bit] 1), grown to
   cover [id]. *)
let column s bit id =
  let fa = if bit = 0 then s.vfacts else s.lfacts in
  if (2 * id) + 1 < Array.length fa then fa
  else begin
    let fa = grown fa ((2 * id) + 2) (-1) in
    if bit = 0 then s.vfacts <- fa else s.lfacts <- fa;
    fa
  end

let mover s code =
  let kind = code land 7 and id = code lsr 3 in
  if kind > 3 || (column s (kind lsr 1) id).(2 * id) = known then settled kind
  else m_both

let op_of t code =
  let id = code lsr 3 in
  match code land 7 with
  | 0 -> Event.Read (Interner.var_of_id t.itn id)
  | 1 -> Event.Write (Interner.var_of_id t.itn id)
  | 2 -> Event.Acquire (Interner.lock_of_id t.itn id)
  | 3 -> Event.Release (Interner.lock_of_id t.itn id)
  | 4 -> Event.Fork (Interner.tid_of_id t.itn id)
  | _ -> Event.Join (Interner.tid_of_id t.itn id)

(* Unlink every stale entry. *)
let sweep s =
  let c = s.chain in
  let sweep_column fa =
    for id = 0 to (Array.length fa / 2) - 1 do
      let prev = ref (-1) and e = ref fa.((2 * id) + 1) in
      while !e >= 0 do
        let x = !e in
        e := entry_next c x;
        if s.rcds.(entry_txn c x).uid = entry_uid c x then prev := x
        else begin
          if !prev < 0 then fa.((2 * id) + 1) <- !e else set_next c !prev !e;
          set_next c x s.ch_free;
          s.ch_free <- x;
          s.stale <- s.stale - 1
        end
      done
    done
  in
  sweep_column s.vfacts;
  sweep_column s.lfacts

(* A free chain entry. A full chain is swept instead of grown when at
   least half its entries are stale and it has no fewer entries than
   there are facts, so a sweep frees as much as it walks. *)
let rec alloc_entry s =
  let e = s.ch_free in
  if e >= 0 then (s.ch_free <- entry_next s.chain e; e)
  else if 16 * (s.ch_hi + 1) <= Bytes.length s.chain then begin
    s.ch_hi <- s.ch_hi + 1;
    s.ch_hi - 1
  end
  else begin
    if s.stale > 0 && 2 * s.stale >= s.ch_hi
       && Array.length s.vfacts + Array.length s.lfacts <= 2 * s.ch_hi
    then sweep s
    else s.chain <- grown_bytes s.chain (16 * s.ch_hi) 256;
    alloc_entry s
  end

(* Chain the transaction under the fact whose negation its optimistic
   classification just assumed, unless the stamp shows it already did.
   When an interleaved transaction defeated the stamp this adds a
   duplicate — cheaper than a membership test, and bounded by the log. *)
let register s r h fa id =
  fa.(2 * id) <- r.uid;
  let e = alloc_entry s in
  set32 s.chain (16 * e) (Int32.of_int h);
  set_next s.chain e fa.((2 * id) + 1);
  set64 s.chain ((16 * e) + 8) (Int64.of_int r.uid);
  fa.((2 * id) + 1) <- e;
  r.pend <- r.pend + 1

(* Replay has no event in hand: its violations rebuild op and location
   from the log. *)
let replaying = Event.make ~tid:(-1) ~op:Event.Yield ~loc:Loc.none

(* One move of the (R|B)* (N|L) (L|B)* machine — the transition table of
   [Automaton.step], including the reset-as-if-yielded rule. *)
let apply t r seq code func pc line m (e : Event.t) =
  let replayed = e == replaying in
  if not r.post then begin
    if m land 2 <> 0 then begin
      (* The commit point, blamed for every violation until a reset. *)
      r.post <- true; r.cm_seq <- seq; r.cm_code <- code;
      r.cm_loc <- (if replayed then Loc.make ~func ~pc ~line else e.loc);
      r.cm_op <- (if replayed then op_of t code else e.op)
    end
  end
  else if m land 1 <> 0 then begin
    if r.cause_seq <> r.cm_seq then begin
      r.cause_seq <- r.cm_seq;
      r.cause <-
        Some
          { cseq = r.cm_seq; cloc = r.cm_loc; cop = r.cm_op;
            cmover = to_mover (settled (r.cm_code land 7)) }
    end;
    let v =
      { tid = r.tid;
        loc = (if replayed then Loc.make ~func ~pc ~line else e.loc);
        op = (if replayed then op_of t code else e.op);
        mover = to_mover m; cause = r.cause }
    in
    r.viols <- Viol { seq; v; older = r.viols };
    (* A right mover spends the commit: reset as if yielded. *)
    if m = m_right then (r.post <- false; r.cm_seq <- 0)
  end

let push t data =
  let s = t.s and d = Interner.cur_tid t.itn in
  let h =
    if s.free_h >= 0 then s.free_h
    else begin
      let h = s.n_handles in
      if h = Array.length s.rcds then begin
        s.rcds <- grown s.rcds 4 filler;
        (* An older payload as filler: a large array made with a young
           one would force a minor collection. *)
        s.datas <- grown s.datas 4 (if h > 0 then s.datas.(0) else data)
      end;
      s.rcds.(h) <- new_rcd ();
      s.n_handles <- h + 1;
      h
    end
  in
  let r = s.rcds.(h) in
  s.free_h <- r.stop;
  s.datas.(h) <- data;
  if d >= Array.length s.logs then
    s.logs <-
      Array.init (max (d + 1) (2 * Array.length s.logs)) (fun i ->
          if i < Array.length s.logs then s.logs.(i)
          else { buf = Bytes.empty; len = 0; last = 0; top = -1;
                 parked_n = 0; parked_hi = 0 });
  let lg = s.logs.(d) in
  r.outer <- lg.top;
  lg.top <- h;
  r.uid <- s.next_uid;
  s.next_uid <- s.next_uid + 1;
  r.tid <- Interner.tid_of_id t.itn d; r.dtid <- d;
  r.start <- lg.len; r.base <- lg.last;
  r.state <- st_open; r.post <- false; r.cm_seq <- 0; r.cause_seq <- 0;
  r.shape <- 0; r.pend <- 0

(* The current event's thread's log, or an empty one (never written)
   when the thread has none yet. *)
let no_log =
  { buf = Bytes.empty; len = 0; last = 0; top = -1; parked_n = 0; parked_hi = 0 }

let open_log t s =
  let d = Interner.cur_tid t.itn in
  if d < Array.length s.logs then s.logs.(d) else no_log

let in_txn t = (open_log t t.s).top >= 0

let log_entry lg seq code (l : Loc.t) =
  if lg.len + max_entry > Bytes.length lg.buf then
    lg.buf <- grown_bytes lg.buf lg.len (lg.len + 256);
  let b = lg.buf in
  let p = put b (put b lg.len (seq - lg.last)) code in
  let packed = pack_loc l in
  set64 b p (Int64.of_int packed);
  lg.len <-
    (if packed <> odd_loc then p + 8
     else put b (put b (put b (p + 8) (zz l.func)) (zz l.pc)) (zz l.line));
  lg.last <- seq

let step t ~seq (e : Event.t) =
  let kind = kind_of_op e.op and s = t.s in
  let lg = open_log t s in
  if kind >= 0 && lg.top >= 0 then begin
    let id = Interner.cur_operand t.itn in
    let code = (id lsl 3) lor kind in
    (* One entry serves every open transaction of the thread. *)
    log_entry lg seq code e.loc;
    let fa = if kind < 2 then s.vfacts else s.lfacts in
    let fa =
      if kind > 3 || (2 * id) + 1 < Array.length fa then fa
      else column s (kind lsr 1) id
    in
    let m = if kind > 3 || fa.(2 * id) = known then settled kind else m_both in
    let h = ref lg.top in
    while !h >= 0 do
      let r = s.rcds.(!h) in
      if r.shape < 2 then
        if r.shape = 1 && (can_violate lsr kind) land 1 = 1 then r.shape <- 2
        else if (can_commit lsr kind) land 1 = 1 then r.shape <- 1;
      (* An optimistic classification registers under its fact. *)
      if m = m_both && fa.(2 * id) <> r.uid then register s r !h fa id;
      apply t r seq code e.loc.func e.loc.pc e.loc.line m e;
      h := r.outer
    done
  end

let rec get s b shift acc =
  let c = Char.code (Bytes.get b s.rd) in
  s.rd <- s.rd + 1;
  let acc = acc lor ((c land 0x7f) lsl shift) in
  if c < 0x80 then acc else get s b (shift + 7) acc

(* Violations are NOT monotone in knowledge. In [rel l1; acq l2; wr v]
   with l1 shared and v racy, optimism about l2 (a both mover while
   assumed thread-local) flags the write, a non mover after the
   release's commit. Once shared(l2) arrives, the acquire is flagged
   instead — a right mover post-commit — and that violation resets the
   machine, so the write now commits quietly. Patching the violation
   list in place is unsound both ways, hence repair recomputes the whole
   machine over the transaction's slice. *)
let replay t s r =
  let lg = s.logs.(r.dtid) in
  let stop = if r.state = st_open then lg.len else r.stop in
  r.post <- false; r.cm_seq <- 0; r.viols <- Nil;
  s.rd <- r.start;
  let seq = ref r.base in
  while s.rd < stop do
    seq := !seq + get s lg.buf 0 0;
    let code = get s lg.buf 0 0 in
    let packed = Int64.to_int (get64 lg.buf s.rd) in
    s.rd <- s.rd + 8;
    let odd = packed = odd_loc in
    let func = if odd then unzz (get s lg.buf 0 0) else packed lsr 42 in
    let pc = if odd then unzz (get s lg.buf 0 0) else (packed lsr 21) land 0x1FFFFF in
    let line = if odd then unzz (get s lg.buf 0 0) else packed land 0x1FFFFF in
    apply t r !seq code func pc line (mover s code) replaying
  done

(* Record the results and free the handle (entries still naming the
   transaction turn stale). With no transaction of the thread open, its
   log is cut back to the end of the last parked slice. *)
let retire s h r =
  let lg = s.logs.(r.dtid) in
  if r.state = st_parked then lg.parked_n <- lg.parked_n - 1;
  (match r.viols with
  | Nil -> ()
  | viols ->
      s.retired <- Retired { uid = r.uid; data = s.datas.(h); viols; rest = s.retired });
  s.stale <- s.stale + r.pend;
  r.uid <- -1; r.state <- st_free; r.viols <- Nil;
  r.stop <- s.free_h;
  s.free_h <- h;
  if lg.top < 0 then begin
    if lg.parked_n = 0 then lg.parked_hi <- 0;
    lg.len <- lg.parked_hi
  end

(* Close the thread's innermost open transaction: it retires at once
   when no pending assumption could change its results. *)
let close s lg =
  let h = lg.top in
  let r = s.rcds.(h) in
  lg.top <- r.outer;
  r.stop <- lg.len;
  if r.pend = 0 || r.shape < 2 then retire s h r
  else begin
    r.state <- st_parked;
    lg.parked_n <- lg.parked_n + 1; lg.parked_hi <- r.stop
  end

let pop t =
  let lg = open_log t t.s in
  if lg.top >= 0 then close t.s lg

let on_fact t f =
  let t0 = if t.timed then Coop_obs.now_s () else 0. in
  let w0 = if t.timed then Gc.minor_words () else 0. in
  let s = t.s in
  let bit, id = match f with Racy id -> (0, id) | Shared id -> (1, id) in
  let fa = column s bit id in
  if fa.(2 * id) <> known then begin
    (* The receiving end of the propagation flow the publisher began. *)
    Coop_obs.flow_end (flow_name f) ~id:(pack f);
    (* Facts are final: the chain is freed as it is walked. *)
    let e = ref fa.((2 * id) + 1) in
    fa.(2 * id) <- known;
    fa.((2 * id) + 1) <- -1;
    s.walk <- s.walk + 1;
    while !e >= 0 do
      let x = !e in
      let h = entry_txn s.chain x in
      let r = s.rcds.(h) in
      let live = r.uid = entry_uid s.chain x in
      e := entry_next s.chain x;
      set_next s.chain x s.ch_free;
      s.ch_free <- x;
      if not live then s.stale <- s.stale - 1
      else begin
        r.pend <- r.pend - 1;
        if r.rstamp <> s.walk then (r.rstamp <- s.walk; replay t s r);
        if r.pend = 0 && r.state = st_parked then retire s h r
      end
    done
  end;
  if t.timed then begin
    let dt = Coop_obs.now_s () -. t0 and dw = Gc.minor_words () -. w0 in
    t.repair_s <- t.repair_s +. dt; t.repair_words <- t.repair_words +. dw;
    t.repairs <- t.repairs + 1;
    (* Repair runs inside the publisher's instrumented step; advancing
       the shared mark keeps it out of that checker's figures. *)
    match t.mark with
    | Some m -> m.mark_s <- m.mark_s +. dt; m.mark_words <- m.mark_words +. dw
    | None -> ()
  end

let finalize t =
  (* Transactions still open end with the stream. Assumptions still
     unresolved then were all correct, so parked results are final as
     they are. *)
  let s = t.s in
  Array.iter (fun lg -> while lg.top >= 0 do close s lg done) s.logs;
  let parked = ref 0 in
  for h = 0 to s.n_handles - 1 do
    if s.rcds.(h).state = st_parked then begin
      incr parked;
      retire s h s.rcds.(h)
    end
  done;
  if Coop_obs.enabled () then begin
    Coop_obs.count "online/txns" s.next_uid;
    Coop_obs.count "online/parked_at_end" !parked;
    Coop_obs.count "online/peak_handles" s.n_handles
  end;
  if t.timed && t.repairs > 0 then
    Coop_obs.timer_add ~words:t.repair_words "checker/repair" t.repair_s
      t.repairs

(* Merge sort of the indices [a.(lo .. hi-1)] by [before], a strict
   order: several times cheaper than a generic sort of the records. *)
let rec sort_by before (a : int array) tmp lo hi =
  if hi - lo > 1 then begin
    let mid = (lo + hi) / 2 in
    sort_by before a tmp lo mid;
    sort_by before a tmp mid hi;
    Array.blit a lo tmp lo (hi - lo);
    let i = ref lo and j = ref mid in
    for k = lo to hi - 1 do
      let left = !j >= hi || (!i < mid && before tmp.(!i) tmp.(!j)) in
      a.(k) <- tmp.(if left then !i else !j);
      if left then incr i else incr j
    done
  end

let seq_of = function Viol c -> c.seq | Nil -> 0
let uid_of = function Retired r -> r.uid | Done -> 0

(* The items are violation cells, each with the retired transaction it
   belongs to, sorted by position. Violations of one event in nested
   transactions share a position: the innermost (latest-opened) comes
   first. *)
let results t ~first_only f =
  let rec len n = function Nil -> n | Viol c -> len (n + 1) c.older in
  let rec count n = function
    | Done -> n
    | Retired r -> count (if first_only then n + 1 else len n r.viols) r.rest
  in
  let n = count 0 t.s.retired in
  let cells = Array.make n Nil and txns = Array.make n Done and i = ref 0 in
  let rec fill r = function
    | Nil -> ()
    | Viol c as cell ->
        (match c.older with
        | Viol _ when first_only -> ()
        | _ -> cells.(!i) <- cell; txns.(!i) <- r; incr i);
        fill r c.older
  in
  let rec each = function Done -> () | Retired c as r -> fill r c.viols; each c.rest in
  each t.s.retired;
  let before a b =
    let sa = seq_of cells.(a) and sb = seq_of cells.(b) in
    sa < sb || (sa = sb && uid_of txns.(a) > uid_of txns.(b))
  in
  let order = Array.init n Fun.id in
  sort_by before order (Array.make n 0) 0 n;
  Array.fold_right
    (fun k l ->
      match (cells.(k), txns.(k)) with
      | Viol c, Retired r -> f r.data c.v :: l
      | _ -> l)
    order []
