open Coop_trace
module Mover = Coop_core.Mover

type txn_id =
  | Func of int
  | Block of Loc.t

type warning = {
  tid : int;
  txn : txn_id;
  loc : Loc.t;
  op : Event.op;
  mover : Mover.t;
  cause : Coop_core.Online.cause option;
}

type result = {
  warnings : warning list;
  flagged_functions : int list;
  activations : int;
  violated_activations : int;
}

type phase =
  | Pre
  | Post

(* Per-activation phase machine, with the commit point of the current
   Post phase mirrored from the engine (cm_seq = 0 = none) so both paths
   blame the warning on the same op. *)
type txn = {
  id : txn_id;
  mutable phase : phase;
  mutable violated : bool;
  mutable cm_seq : int;
  mutable cm_loc : Loc.t;
  mutable cm_op : Event.op;
  mutable cm_mover : Mover.t;
}

let analysis ?(local_locks = fun _ -> false) ~racy () =
  let stacks : (int, txn list ref) Hashtbl.t = Hashtbl.create 8 in
  let warnings = ref [] in
  let activations = ref 0 in
  let violated = ref 0 in
  let seq = ref 0 in  (* 1-based global position, counts every event *)
  let stack_of tid =
    match Hashtbl.find_opt stacks tid with
    | Some s -> s
    | None ->
        let s = ref [] in
        Hashtbl.add stacks tid s;
        s
  in
  let push tid id =
    incr activations;
    let s = stack_of tid in
    s :=
      { id; phase = Pre; violated = false; cm_seq = 0; cm_loc = Loc.none;
        cm_op = Event.Yield; cm_mover = Mover.Both }
      :: !s
  in
  let pop tid =
    let s = stack_of tid in
    match !s with
    | t :: rest ->
        if t.violated then incr violated;
        s := rest
    | [] -> ()
  in
  let feed tid loc op m =
    let s = stack_of tid in
    List.iter
      (fun t ->
        match (t.phase, m) with
        | Pre, (Mover.Right | Mover.Both) -> ()
        | Pre, ((Mover.Non | Mover.Left) as m) ->
            t.phase <- Post;
            t.cm_seq <- !seq;
            t.cm_loc <- loc;
            t.cm_op <- op;
            t.cm_mover <- m
        | Post, (Mover.Left | Mover.Both) -> ()
        | Post, ((Mover.Right | Mover.Non) as m) ->
            if not t.violated then begin
              t.violated <- true;
              let cause =
                if t.cm_seq > 0 then
                  Some
                    { Coop_core.Online.cseq = t.cm_seq; cloc = t.cm_loc;
                      cop = t.cm_op; cmover = t.cm_mover }
                else None
              in
              warnings :=
                { tid; txn = t.id; loc; op; mover = m; cause } :: !warnings
            end)
      !s
  in
  let step (e : Event.t) =
    incr seq;
    match e.op with
    | Event.Enter f -> push e.tid (Func f)
    | Event.Exit _ -> pop e.tid
    | Event.Atomic_begin -> push e.tid (Block e.loc)
    | Event.Atomic_end -> pop e.tid
    | Event.Yield -> ()  (* not a transaction boundary for atomicity *)
    | op -> (
        match Mover.classify ~local_locks ~racy op with
        | None -> ()
        | Some m -> feed e.tid e.loc op m)
  in
  let finalize () =
    (* Close transactions still open at the end of the stream. *)
    Hashtbl.iter
      (fun _ s -> List.iter (fun t -> if t.violated then incr violated) !s)
      stacks;
    let warnings = List.rev !warnings in
    let flagged =
      List.fold_left
        (fun acc w -> match w.txn with Func f -> f :: acc | Block _ -> acc)
        [] warnings
      |> List.sort_uniq Int.compare
    in
    {
      warnings;
      flagged_functions = flagged;
      activations = !activations;
      violated_activations = !violated;
    }
  in
  Coop_trace.Analysis.make ~step ~finalize

let check_with_racy ?local_locks ~racy trace =
  Coop_trace.Analysis.run (analysis ?local_locks ~racy ()) trace

(* Single-pass variant on the shared engine. The engine's phase machine
   resets on a right-mover violation where this checker's does not (once
   violated, an activation stays violated and is never re-flagged) — but
   the two machines run identically up to the first violation, so the
   engine's first recorded violation is exactly this checker's warning,
   and "any violations at all" is the same predicate in both. *)
module Online = Coop_core.Online

let online_analysis ?mark ~interner ~subscribe () =
  let acc = ref [] in  (* (first-violation seq, txn uid, warning) *)
  let activations = ref 0 in
  let violated = ref 0 in
  let engine =
    Online.create ?mark ~interner
      ~on_retire:(fun ~uid txn vs ->
        let rec oldest seq v = function
          | Online.Nil -> (seq, v)
          | Online.Viol c -> oldest c.seq c.v c.older
        in
        match vs with
        | Online.Nil -> ()
        | Online.Viol c ->
            incr violated;
            let seq, (v : Online.viol) = oldest c.seq c.v c.older in
            acc :=
              ( seq,
                uid,
                { tid = v.tid; txn; loc = v.loc; op = v.op; mover = v.mover;
                  cause = v.cause } )
              :: !acc)
      ()
  in
  subscribe (Online.on_fact engine);
  (* dense tid -> stack of open activations, innermost first *)
  let stacks : txn_id Online.txn list array ref = ref (Array.make 8 []) in
  let ensure tid =
    if tid >= Array.length !stacks then begin
      let bigger = Array.make (max (tid + 1) (2 * Array.length !stacks)) [] in
      Array.blit !stacks 0 bigger 0 (Array.length !stacks);
      stacks := bigger
    end
  in
  let push tid orig_tid id =
    incr activations;
    ensure tid;
    !stacks.(tid) <- Online.open_txn engine ~tid:orig_tid ~data:id :: !stacks.(tid)
  in
  let pop tid =
    ensure tid;
    match !stacks.(tid) with
    | t :: rest ->
        Online.close engine t;
        !stacks.(tid) <- rest
    | [] -> ()
  in
  let rec feed seq e = function
    | [] -> ()
    | t :: rest ->
        Online.step engine t ~seq e;
        feed seq e rest
  in
  let seq = ref 0 in
  let step (e : Event.t) =
    incr seq;
    let tid = Interner.cur_tid interner in
    match e.op with
    | Event.Enter f -> push tid e.tid (Func f)
    | Event.Exit _ -> pop tid
    | Event.Atomic_begin -> push tid e.tid (Block e.loc)
    | Event.Atomic_end -> pop tid
    | Event.Yield -> ()  (* not a transaction boundary for atomicity *)
    | _ -> if tid < Array.length !stacks then feed !seq e !stacks.(tid)
  in
  let finalize () =
    Array.iter (List.iter (Online.close engine)) !stacks;
    stacks := [||];
    Online.finalize engine;
    (* The two-pass checker emits warnings in trace order, walking each
       stack innermost-first on the flagging event; uids grow outward-in
       at the same position, so (seq, uid descending) reproduces it. *)
    let warnings =
      List.sort
        (fun (s1, u1, _) (s2, u2, _) ->
          match Int.compare s1 s2 with 0 -> Int.compare u2 u1 | c -> c)
        !acc
      |> List.map (fun (_, _, w) -> w)
    in
    let flagged =
      List.fold_left
        (fun acc w -> match w.txn with Func f -> f :: acc | Block _ -> acc)
        [] warnings
      |> List.sort_uniq Int.compare
    in
    {
      warnings;
      flagged_functions = flagged;
      activations = !activations;
      violated_activations = !violated;
    }
  in
  Coop_trace.Analysis.make ~step ~finalize

let check_two_pass trace =
  let racy = Coop_race.Fasttrack.racy_vars_of_trace trace in
  let local_locks = Coop_core.Cooperability.local_locks_of trace in
  check_with_racy ~local_locks ~racy trace

let check ?(two_pass = false) trace =
  if two_pass then check_two_pass trace
  else
    let itn = Interner.create () in
    let fused =
      Analysis.chain (Interner.analysis itn)
        (Analysis.feedback
           (fun ~publish ->
             Coop_race.Fasttrack.analysis ~interner:itn
               ~facts:(Online.facts publish) ())
           (fun ~subscribe -> online_analysis ~interner:itn ~subscribe ()))
    in
    snd (snd (Source.run (Source.of_trace trace) fused))

let pp_txn ppf = function
  | Func f -> Format.fprintf ppf "fn#%d" f
  | Block l -> Format.fprintf ppf "atomic@%a" Loc.pp l

let pp_warning ppf w =
  Format.fprintf ppf "t%d: %a is not atomic: %a at %a (%a in post-commit)"
    w.tid pp_txn w.txn Event.pp_op w.op Loc.pp w.loc Mover.pp w.mover
