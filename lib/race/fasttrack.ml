open Coop_trace

(* Per-variable access metadata, FastTrack-style: the epoch of the last
   write, and the read state — the epoch of the last read, or
   [Epoch.read_shared] once concurrent reads promote it to a vector clock.

   All internal state is keyed by the dense ids of a per-run [Interner]:
   thread clocks, lock clocks and variable columns live in flat arrays
   grown on demand, vector-clock components are indexed by dense thread
   id, and epochs pack dense tids. Original names resurface only on the
   cold paths — reports and fact callbacks. *)

type facts = {
  on_racy_var : Event.var -> int -> unit;
  on_shared_lock : int -> int -> unit;
}

let no_facts = { on_racy_var = (fun _ _ -> ()); on_shared_lock = (fun _ _ -> ()) }

(* Witness side tables, maintained only with [~witness:true]: where (and
   at which global position) the last write and the live reads of a
   variable happened, so a firing race can name its {e first} access.
   [readers] is only consulted in the [read_shared] state. *)
type wside = {
  mutable lw_seq : int;  (* last write: global position, 0 = none *)
  mutable lw_loc : Loc.t;
  mutable lr_seq : int;  (* single live reader (read epoch state) *)
  mutable lr_loc : Loc.t;
  readers : (int, int * Loc.t) Hashtbl.t;  (* dense tid -> seq, loc *)
}

(* Never-mutated sentinels for unoccupied array slots. [dummy_clock] has
   zero capacity, so reading it as the all-zeros clock is sound as long as
   nothing writes through it. *)
let dummy_clock = Vclock.create ()

let dummy_wside =
  { lw_seq = 0; lw_loc = Loc.none; lr_seq = 0; lr_loc = Loc.none;
    readers = Hashtbl.create 1 }

type t = {
  itn : Interner.t;
  own_interner : bool;  (* [handle] notes events itself *)
  witness : bool;  (* capture access-pair evidence per report *)
  mutable seq : int;  (* 1-based global position of the current event *)
  mutable clocks : Vclock.t array;  (* dense tid -> thread clock *)
  mutable locks : Vclock.t array;  (* dense lock id -> release clock *)
  (* Variable columns, by dense var id. [rvcs] holds the read clock of
     a [read_shared] variable; a write clears it in place and leaves it
     for the next promotion, so a variable allocates its clock once. *)
  mutable w : Epoch.t array;
  mutable r : Epoch.t array;
  mutable rvcs : Vclock.t array;
  mutable wsides : wside array;  (* dense var id -> witness side table *)
  mutable reports : Report.t list;  (* reversed *)
  facts : facts;
  mutable racy_fired : Bytes.t;  (* dense var id -> fact already fired *)
  (* Lock-ownership scan for the shared-lock fact: the owning dense tid
     while only one thread has touched the lock, [shared_lock] once it is
     shared, [no_owner] before the first touch. Mirrors
     [Cooperability.local_locks_analysis] (acquires AND releases count)
     so the published facts converge to the two-pass predicate. *)
  mutable lock_owner : int array;
}

let no_owner = -1

let shared_lock = -2

let create ?(facts = no_facts) ?interner ?(witness = false) () =
  let own_interner = interner = None in
  let itn = match interner with Some itn -> itn | None -> Interner.create () in
  { itn; own_interner; witness;
    seq = 0;
    clocks = Array.make 8 dummy_clock;
    locks = Array.make 8 dummy_clock;
    w = Array.make 64 Epoch.bottom; r = Array.make 64 Epoch.bottom;
    rvcs = Array.make 64 dummy_clock;
    wsides = (if witness then Array.make 64 dummy_wside else [||]);
    reports = []; facts;
    racy_fired = Bytes.make 64 '\000';
    lock_owner = Array.make 8 no_owner }

let grown_slots a n ~fill =
  let bigger = Array.make (max n (2 * Array.length a)) fill in
  Array.blit a 0 bigger 0 (Array.length a);
  bigger

(* A thread's clock starts with its own (dense-id) component at 1. *)
let clock_of t tid =
  if tid >= Array.length t.clocks then
    t.clocks <- grown_slots t.clocks (tid + 1) ~fill:dummy_clock;
  let c = t.clocks.(tid) in
  if c != dummy_clock then c
  else begin
    let c = Vclock.create ~capacity:(tid + 1) () in
    Vclock.set c tid 1;
    t.clocks.(tid) <- c;
    c
  end

let ensure_var t vid =
  if vid >= Array.length t.w then begin
    t.w <- grown_slots t.w (vid + 1) ~fill:Epoch.bottom;
    t.r <- grown_slots t.r (vid + 1) ~fill:Epoch.bottom;
    t.rvcs <- grown_slots t.rvcs (vid + 1) ~fill:dummy_clock
  end

(* The (all-zeros) clock a promotion fills: the one a write cleared, or
   a fresh one. *)
let read_clock t vid ~capacity =
  let rc = t.rvcs.(vid) in
  if rc != dummy_clock then rc
  else begin
    let rc = Vclock.create ~capacity () in
    t.rvcs.(vid) <- rc;
    rc
  end

let record t vid r =
  t.reports <- r :: t.reports;
  (* Incremental fact channel: announce a variable the first time any
     race is reported on it. The racy set only ever grows, so one firing
     per variable is enough for downstream consumers. *)
  if vid >= Bytes.length t.racy_fired then begin
    let bigger = Bytes.make (max (vid + 1) (2 * Bytes.length t.racy_fired)) '\000' in
    Bytes.blit t.racy_fired 0 bigger 0 (Bytes.length t.racy_fired);
    t.racy_fired <- bigger
  end;
  if Bytes.get t.racy_fired vid = '\000' then begin
    Bytes.set t.racy_fired vid '\001';
    t.facts.on_racy_var r.Report.var vid
  end

let rec report t vid = function
  | [] -> ()
  | r :: rest ->
      record t vid r;
      report t vid rest

let touch_lock t tid lid l =
  if lid >= Array.length t.lock_owner then
    t.lock_owner <- grown_slots t.lock_owner (lid + 1) ~fill:no_owner;
  let owner = t.lock_owner.(lid) in
  if owner = no_owner then t.lock_owner.(lid) <- tid
  else if owner >= 0 && owner <> tid then begin
    t.lock_owner.(lid) <- shared_lock;
    t.facts.on_shared_lock l lid
  end

(* Dense tid back to the caller's thread id, for reports only. *)
let orig_tid t tid = Interner.tid_of_id t.itn tid

let wside_of t vid =
  if vid >= Array.length t.wsides then
    t.wsides <- grown_slots t.wsides (vid + 1) ~fill:dummy_wside;
  let ws = t.wsides.(vid) in
  if ws != dummy_wside then ws
  else begin
    let ws =
      { lw_seq = 0; lw_loc = Loc.none; lr_seq = 0; lr_loc = Loc.none;
        readers = Hashtbl.create 4 }
    in
    t.wsides.(vid) <- ws;
    ws
  end

(* Evidence that the access recorded in [first] (first thread [ftid] at
   its local clock [first_clock]) does not happen-before the current
   event: the current thread's clock [c] carries only [second_sees] of
   that thread, strictly less. Trace order rules out the other
   direction, so the pair is concurrent — machine-checkable against the
   HB oracle via the recorded global positions. *)
let race_witness t c (e : Event.t) ~ftid ~first_seq ~first_loc ~first_clock =
  Some
    (Coop_provenance.Witness.Race
       {
         r_first =
           { a_tid = orig_tid t ftid; a_seq = first_seq; a_loc = first_loc };
         r_second = { a_tid = e.tid; a_seq = t.seq; a_loc = e.loc };
         r_first_clock = first_clock;
         r_second_sees = Vclock.get c ftid;
       })

let write_witness t vid c e =
  if not t.witness then None
  else
    let ws = wside_of t vid in
    let w = t.w.(vid) in
    race_witness t c e ~ftid:(Epoch.tid w) ~first_seq:ws.lw_seq
      ~first_loc:ws.lw_loc ~first_clock:(Epoch.clock w)

let read_epoch_witness t vid c e e0 =
  if not t.witness then None
  else
    let ws = wside_of t vid in
    race_witness t c e ~ftid:(Epoch.tid e0) ~first_seq:ws.lr_seq
      ~first_loc:ws.lr_loc ~first_clock:(Epoch.clock e0)

let read_vc_witness t vid c e offender =
  if not t.witness then None
  else
    match offender with
    | None -> None
    | Some (u, n) -> (
        match Hashtbl.find_opt (wside_of t vid).readers u with
        | None -> None
        | Some (seq, loc) ->
            race_witness t c e ~ftid:u ~first_seq:seq ~first_loc:loc
              ~first_clock:n)

let on_read t tid vid v (e : Event.t) =
  let c = clock_of t tid in
  ensure_var t vid;
  let mine = Epoch.of_thread tid c in
  let r = t.r.(vid) in
  if Epoch.equal r mine then []
  else begin
    let w = t.w.(vid) in
    let races =
      if Epoch.leq w c then []
      else
        [ { Report.var = v; kind = Report.Write_read;
            first_tid = orig_tid t (Epoch.tid w); second_tid = e.tid;
            second_loc = e.loc; witness = write_witness t vid c e } ]
    in
    if Epoch.equal r Epoch.read_shared then begin
      Vclock.set t.rvcs.(vid) tid (Vclock.get c tid);
      if t.witness then
        Hashtbl.replace (wside_of t vid).readers tid (t.seq, e.loc)
    end
    else if Epoch.leq r c then begin
      t.r.(vid) <- mine;
      if t.witness then begin
        let ws = wside_of t vid in
        ws.lr_seq <- t.seq;
        ws.lr_loc <- e.loc
      end
    end
    else begin
      (* Concurrent reads: promote to a read vector. *)
      let rc = read_clock t vid ~capacity:(max tid (Epoch.tid r) + 1) in
      Vclock.set rc (Epoch.tid r) (Epoch.clock r);
      Vclock.set rc tid (Vclock.get c tid);
      t.r.(vid) <- Epoch.read_shared;
      if t.witness then begin
        (* The displaced single reader moves into the per-reader
           table alongside the new one. *)
        let ws = wside_of t vid in
        Hashtbl.replace ws.readers (Epoch.tid r) (ws.lr_seq, ws.lr_loc);
        Hashtbl.replace ws.readers tid (t.seq, e.loc)
      end
    end;
    report t vid races;
    races
  end

let on_write t tid vid v (e : Event.t) =
  let c = clock_of t tid in
  ensure_var t vid;
  let mine = Epoch.of_thread tid c in
  let w = t.w.(vid) in
  if Epoch.equal w mine then []
  else begin
    let ww =
      if Epoch.leq w c then []
      else
        [ { Report.var = v; kind = Report.Write_write;
            first_tid = orig_tid t (Epoch.tid w); second_tid = e.tid;
            second_loc = e.loc; witness = write_witness t vid c e } ]
    in
    let r = t.r.(vid) in
    let shared = Epoch.equal r Epoch.read_shared in
    let rw =
      if shared then begin
        let rc = t.rvcs.(vid) in
        if Vclock.leq rc c then []
        else begin
          (* Find one concurrent reader for the report. *)
          let offender =
            List.find_opt (fun (u, n) -> n > Vclock.get c u) (Vclock.to_list rc)
          in
          let first_tid =
            match offender with Some (u, _) -> orig_tid t u | None -> -1
          in
          [ { Report.var = v; kind = Report.Read_write; first_tid;
              second_tid = e.tid; second_loc = e.loc;
              witness = read_vc_witness t vid c e offender } ]
        end
      end
      else if Epoch.leq r c then []
      else
        [ { Report.var = v; kind = Report.Read_write;
            first_tid = orig_tid t (Epoch.tid r); second_tid = e.tid;
            second_loc = e.loc; witness = read_epoch_witness t vid c e r } ]
    in
    t.w.(vid) <- mine;
    if shared then Vclock.clear t.rvcs.(vid);
    t.r.(vid) <- Epoch.bottom;
    if t.witness then begin
      let ws = wside_of t vid in
      ws.lw_seq <- t.seq;
      ws.lw_loc <- e.loc;
      ws.lr_seq <- 0;
      ws.lr_loc <- Loc.none;
      Hashtbl.reset ws.readers
    end;
    let races = ww @ rw in
    report t vid races;
    races
  end

let lock_slot t lid =
  if lid >= Array.length t.locks then
    t.locks <- grown_slots t.locks (lid + 1) ~fill:dummy_clock;
  t.locks.(lid)

let on_acquire t tid lid l =
  touch_lock t tid lid l;
  let lc = lock_slot t lid in
  if lc != dummy_clock then Vclock.join_into ~into:(clock_of t tid) lc
  else ignore (clock_of t tid);
  []

let on_release t tid lid l =
  touch_lock t tid lid l;
  let c = clock_of t tid in
  let lc = lock_slot t lid in
  if lc == dummy_clock then t.locks.(lid) <- Vclock.copy c
  else Vclock.copy_into ~into:lc c;
  Vclock.tick_in_place c tid;
  []

let on_fork t tid child =
  let c = clock_of t tid in
  let cc = clock_of t child in
  Vclock.join_into ~into:cc c;
  Vclock.tick_in_place c tid;
  []

let on_join t tid child =
  let c = clock_of t tid in
  let cc = clock_of t child in
  Vclock.join_into ~into:c cc;
  Vclock.tick_in_place cc child;
  []

let handle t (e : Event.t) =
  t.seq <- t.seq + 1;
  if t.own_interner then Interner.note t.itn e;
  let tid = Interner.cur_tid t.itn in
  let x = Interner.cur_operand t.itn in
  match e.op with
  | Event.Read v -> on_read t tid x v e
  | Event.Write v -> on_write t tid x v e
  | Event.Acquire l -> on_acquire t tid x l
  | Event.Release l -> on_release t tid x l
  | Event.Fork _ -> on_fork t tid x
  | Event.Join _ -> on_join t tid x
  | Event.Yield | Event.Enter _ | Event.Exit _ | Event.Atomic_begin
  | Event.Atomic_end | Event.Out _ ->
      []

let races t = List.rev t.reports

let racy_vars t = Report.racy_vars t.reports

let sink t : Trace.Sink.t = fun e -> ignore (handle t e)

let analysis ?facts ?interner ?witness () =
  let t = create ?facts ?interner ?witness () in
  Analysis.make ~step:(sink t) ~finalize:(fun () -> races t)

let run trace = Analysis.run (analysis ()) trace

let racy_vars_of_trace trace =
  Report.racy_vars (Analysis.run (analysis ()) trace)
