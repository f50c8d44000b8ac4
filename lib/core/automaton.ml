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

(* One transaction's phase plus the commit point of its current Post
   phase, mirroring the engine's per-transaction fields (cm_seq = 0 =
   none) so both paths blame violations on the same op. *)
type machine = {
  mutable ph : phase;
  mutable cm_seq : int;
  mutable cm_loc : Loc.t;
  mutable cm_op : Event.op;
  mutable cm_mover : Mover.t;
}

let machine () =
  { ph = Pre; cm_seq = 0; cm_loc = Loc.none; cm_op = Event.Yield;
    cm_mover = Mover.Both }

let advance st ~seq (e : Event.t) m =
  match (st.ph, m) with
  | Pre, (Mover.Right | Mover.Both) | Post, (Mover.Left | Mover.Both) -> None
  | Pre, (Mover.Non | Mover.Left) ->
      (* The commit point of this transaction. *)
      st.ph <- Post;
      st.cm_seq <- seq;
      st.cm_loc <- e.loc;
      st.cm_op <- e.op;
      st.cm_mover <- m;
      None
  | Post, (Mover.Right | Mover.Non) ->
      (* Irreducible: a yield is missing right before this operation.
         A right mover resets as if it had been there. *)
      let cause =
        if st.cm_seq > 0 then
          Some
            { Online.cseq = st.cm_seq; cloc = st.cm_loc; cop = st.cm_op;
              cmover = st.cm_mover }
        else None
      in
      if m = Mover.Right then begin
        st.ph <- Pre;
        st.cm_seq <- 0
      end;
      Some { tid = e.tid; loc = e.loc; op = e.op; mover = m; cause }

type t = {
  threads : (int, machine) Hashtbl.t;
  mutable seq : int;  (* 1-based global position; counts every step call *)
  mutable violations : violation list;  (* reversed *)
}

let create () = { threads = Hashtbl.create 8; seq = 0; violations = [] }

let thread_machine t tid =
  match Hashtbl.find_opt t.threads tid with
  | Some st -> st
  | None ->
      let st = machine () in
      Hashtbl.add t.threads tid st;
      st

let phase t tid =
  match Hashtbl.find_opt t.threads tid with Some st -> st.ph | None -> Pre

let step ?local_locks t ~racy (e : Event.t) =
  t.seq <- t.seq + 1;
  match e.op with
  | Event.Yield ->
      let st = thread_machine t e.tid in
      st.ph <- Pre;
      st.cm_seq <- 0;
      None
  | op -> (
      match Mover.classify ?local_locks ~racy op with
      | None -> None
      | Some m -> (
          match advance (thread_machine t e.tid) ~seq:t.seq e m with
          | Some v as r ->
              t.violations <- v :: t.violations;
              r
          | None -> None))

let violations t = List.rev t.violations

let analysis ?local_locks ~racy () =
  let t = create () in
  Analysis.make
    ~step:(fun e -> ignore (step ?local_locks t ~racy e))
    ~finalize:(fun () -> violations t)

(* Single-pass variant: each thread's yield-to-yield segment becomes one
   engine transaction, opened by the segment's first op and closed by
   the yield, classified optimistically and repaired when facts arrive.
   Per-transaction machines starting in Pre are equivalent to the one
   whole-thread machine above because Yield resets it to Pre. *)
let online_analysis ?mark ~interner ~subscribe () =
  let engine = Online.create ?mark ~interner () in
  subscribe (Online.on_fact engine);
  let seq = ref 0 in
  let step (e : Event.t) =
    incr seq;
    match e.op with
    | Event.Yield -> Online.pop engine
    | _ ->
        if not (Online.in_txn engine) then Online.push engine ();
        Online.step engine ~seq:!seq e
  in
  let finalize () =
    Online.finalize engine;
    Online.results engine ~first_only:false (fun () v -> v)
  in
  Analysis.make ~step ~finalize

let pp_violation ppf v =
  Format.fprintf ppf "t%d needs a yield before %a at %a (%a in post-commit)"
    v.tid Event.pp_op v.op Loc.pp v.loc Mover.pp v.mover
