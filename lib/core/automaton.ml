open Coop_trace

type phase =
  | Pre
  | Post

type violation = Online.viol = {
  tid : int;
  loc : Loc.t;
  op : Event.op;
  mover : Mover.t;
  cause : Online.cause option;
}

(* Per-thread phase plus the commit point of the current Post phase,
   mirroring the engine's per-transaction fields (cm_seq = 0 = none) so
   both paths blame violations on the same op. *)
type tstate = {
  mutable ph : phase;
  mutable cm_seq : int;
  mutable cm_loc : Loc.t;
  mutable cm_op : Event.op;
  mutable cm_mover : Mover.t;
}

type t = {
  threads : (int, tstate) Hashtbl.t;
  mutable seq : int;  (* 1-based global position; counts every step call *)
  mutable violations : violation list;  (* reversed *)
}

let create () = { threads = Hashtbl.create 8; seq = 0; violations = [] }

let tstate t tid =
  match Hashtbl.find_opt t.threads tid with
  | Some st -> st
  | None ->
      let st =
        { ph = Pre; cm_seq = 0; cm_loc = Loc.none; cm_op = Event.Yield;
          cm_mover = Mover.Both }
      in
      Hashtbl.add t.threads tid st;
      st

let phase t tid =
  match Hashtbl.find_opt t.threads tid with Some st -> st.ph | None -> Pre

let step ?local_locks t ~racy (e : Event.t) =
  t.seq <- t.seq + 1;
  match e.op with
  | Event.Yield ->
      let st = tstate t e.tid in
      st.ph <- Pre;
      st.cm_seq <- 0;
      None
  | op -> (
      match Mover.classify ?local_locks ~racy op with
      | None -> None
      | Some m -> (
          let st = tstate t e.tid in
          match (st.ph, m) with
          | Pre, (Mover.Right | Mover.Both) -> None
          | Pre, ((Mover.Non | Mover.Left) as m) ->
              (* The commit point of this transaction. *)
              st.ph <- Post;
              st.cm_seq <- t.seq;
              st.cm_loc <- e.loc;
              st.cm_op <- op;
              st.cm_mover <- m;
              None
          | Post, (Mover.Left | Mover.Both) -> None
          | Post, ((Mover.Right | Mover.Non) as m) ->
              (* Irreducible: a yield is missing right before this
                 operation. Reset as if it had been there. *)
              let cause =
                if st.cm_seq > 0 then
                  Some
                    { Online.cseq = st.cm_seq; cloc = st.cm_loc;
                      cop = st.cm_op; cmover = st.cm_mover }
                else None
              in
              let v = { tid = e.tid; loc = e.loc; op; mover = m; cause } in
              t.violations <- v :: t.violations;
              (match m with
              | Mover.Right ->
                  st.ph <- Pre;
                  st.cm_seq <- 0
              | Mover.Non -> st.ph <- Post
              | _ -> assert false);
              Some v))

let violations t = List.rev t.violations

let analysis ?local_locks ~racy () =
  let t = create () in
  Analysis.make
    ~step:(fun e -> ignore (step ?local_locks t ~racy e))
    ~finalize:(fun () -> violations t)

(* Checkpoint of the online driver: the engine, the retired-violation
   accumulator, the open-transaction handle per dense tid and the
   position counter. Handles are stable across engine snapshots, so the
   slots are saved as they are. The interner rides along so the whole
   fused stack restores consistently even when this component is resumed
   first. *)
type online_snapshot = {
  os_itn : Interner.snapshot;
  os_eng : unit Online.snapshot;
  os_acc : Online.viols list;
  os_cur : unit Online.txn array;
  os_seq : int;
}

let online_key : online_snapshot Analysis.Key.t =
  Analysis.Key.create "automaton-online"

(* Merge sort of the indices [a.(lo .. hi-1)] by distinct int [key]s.
   Violations arrive grouped by transaction; sorting positions with
   inline comparisons is several times cheaper than a generic sort. *)
let rec sort_by (key : int array) (a : int array) tmp lo hi =
  if hi - lo > 1 then begin
    let mid = (lo + hi) / 2 in
    sort_by key a tmp lo mid;
    sort_by key a tmp mid hi;
    Array.blit a lo tmp lo (hi - lo);
    let i = ref lo and j = ref mid in
    for k = lo to hi - 1 do
      let left = !j >= hi || (!i < mid && key.(tmp.(!i)) < key.(tmp.(!j))) in
      a.(k) <- tmp.(if left then !i else !j);
      if left then incr i else incr j
    done
  end

(* A static filler: a large array made with a young initial value would
   force a minor collection. *)
let no_viol =
  { tid = 0; loc = Loc.none; op = Event.Yield; mover = Mover.Both;
    cause = None }

let rec count n = function Online.Nil -> n | Online.Viol c -> count (n + 1) c.older

(* Single-pass variant: each thread's yield-to-yield segment becomes one
   engine transaction, classified optimistically and repaired when facts
   arrive. Per-transaction machines starting in Pre are equivalent to the
   one whole-thread machine above because Yield resets it to Pre. *)
let online_analysis ?mark ~interner ~subscribe () =
  (* The violation chains of retired transactions, as the engine built
     them. *)
  let acc : Online.viols list ref = ref [] in
  let engine =
    Online.create ?mark ~interner
      ~on_retire:(fun ~uid:_ () vs ->
        match vs with Online.Nil -> () | Online.Viol _ -> acc := vs :: !acc)
      ()
  in
  subscribe (Online.on_fact engine);
  (* dense tid -> open transaction; none between a yield and the next op *)
  let current = ref (Array.make 8 Online.none) in
  let seq = ref 0 in
  let step (e : Event.t) =
    incr seq;
    let tid = Interner.cur_tid interner in
    if tid >= Array.length !current then
      current := Array.append !current (Array.make (tid + 1) Online.none);
    let txn = !current.(tid) in
    match e.op with
    | Event.Yield ->
        if not (Online.is_none txn) then begin
          Online.close engine txn;
          !current.(tid) <- Online.none
        end
    | _ ->
        if Online.is_none txn then
          !current.(tid) <- Online.open_txn engine ~tid:e.tid ~data:();
        Online.step engine !current.(tid) ~seq:!seq e
  in
  let finalize () =
    Array.iter
      (fun txn -> if not (Online.is_none txn) then Online.close engine txn)
      !current;
    current := [||];
    Online.finalize engine;
    let n = List.fold_left count 0 !acc in
    let vs = Array.make n no_viol and seqs = Array.make n 0 in
    let i = ref 0 in
    let rec fill = function
      | Online.Nil -> ()
      | Online.Viol c ->
          vs.(!i) <- c.v;
          seqs.(!i) <- c.seq;
          incr i;
          fill c.older
    in
    List.iter fill !acc;
    let order = Array.init n Fun.id in
    sort_by seqs order (Array.make n 0) 0 n;
    Array.fold_right (fun i l -> vs.(i) :: l) order []
  in
  let save () =
    { os_itn = Interner.snapshot interner; os_eng = Online.snapshot engine;
      os_acc = !acc; os_cur = Array.copy !current; os_seq = !seq }
  in
  let load s =
    Interner.restore interner s.os_itn;
    Online.restore engine s.os_eng;
    acc := s.os_acc;
    seq := s.os_seq;
    current := Array.copy s.os_cur
  in
  Analysis.snapshottable ~key:online_key ~save ~load
    (Analysis.make ~step ~finalize)

let pp_violation ppf v =
  Format.fprintf ppf "t%d needs a yield before %a at %a (%a in post-commit)"
    v.tid Event.pp_op v.op Loc.pp v.loc Mover.pp v.mover
