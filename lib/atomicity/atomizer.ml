open Coop_trace
module Mover = Coop_core.Mover
module Automaton = Coop_core.Automaton
module Online = Coop_core.Online

type txn_id =
  | Func of int
  | Block of Loc.t

type warning = {
  tid : int;
  txn : txn_id;
  loc : Loc.t;
  op : Event.op;
  mover : Mover.t;
  cause : Online.cause option;
}

type result = {
  warnings : warning list;
  flagged_functions : int list;
  activations : int;
  violated_activations : int;
}

let warning txn (v : Automaton.violation) =
  { tid = v.tid; txn; loc = v.loc; op = v.op; mover = v.mover; cause = v.cause }

(* Each activation is flagged at most once, so the flagged activations
   are the warnings. *)
let result_of ~activations warnings =
  let flagged =
    List.fold_left
      (fun acc w -> match w.txn with Func f -> f :: acc | Block _ -> acc)
      [] warnings
    |> List.sort_uniq Int.compare
  in
  { warnings; flagged_functions = flagged; activations;
    violated_activations = List.length warnings }

(* The reference: one automaton machine per activation. The machine
   resets on a right-mover violation where an activation, once flagged,
   is never flagged again — but the two agree up to the first violation,
   which is the only one reported. *)
type activation = { id : txn_id; m : Automaton.machine; mutable flagged : bool }

let analysis ?(local_locks = fun _ -> false) ~racy () =
  let stacks : (int, activation list) Hashtbl.t = Hashtbl.create 8 in
  let warnings = ref [] and activations = ref 0 in
  let seq = ref 0 in  (* 1-based global position, counts every event *)
  let stack tid = Option.value (Hashtbl.find_opt stacks tid) ~default:[] in
  let push tid id =
    incr activations;
    Hashtbl.replace stacks tid
      ({ id; m = Automaton.machine (); flagged = false } :: stack tid)
  in
  let pop tid =
    match stack tid with _ :: rest -> Hashtbl.replace stacks tid rest | [] -> ()
  in
  let step (e : Event.t) =
    incr seq;
    match e.op with
    | Event.Enter f -> push e.tid (Func f)
    | Event.Atomic_begin -> push e.tid (Block e.loc)
    | Event.Exit _ | Event.Atomic_end -> pop e.tid
    | Event.Yield -> ()  (* not a transaction boundary for atomicity *)
    | op -> (
        match Mover.classify ~local_locks ~racy op with
        | None -> ()
        | Some m ->
            List.iter
              (fun a ->
                match Automaton.advance a.m ~seq:!seq e m with
                | Some v when not a.flagged ->
                    a.flagged <- true;
                    warnings := warning a.id v :: !warnings
                | _ -> ())
              (stack e.tid))
  in
  Analysis.make ~step ~finalize:(fun () ->
      result_of ~activations:!activations (List.rev !warnings))

(* Single-pass variant: each activation is an engine transaction, and an
   activation's warning is its first violation. *)
let online_analysis ?mark ~interner ~subscribe () =
  let engine = Online.create ?mark ~interner () in
  subscribe (Online.on_fact engine);
  let activations = ref 0 and seq = ref 0 in
  let push id =
    incr activations;
    Online.push engine id
  in
  let step (e : Event.t) =
    incr seq;
    match e.op with
    | Event.Enter f -> push (Func f)
    | Event.Atomic_begin -> push (Block e.loc)
    | Event.Exit _ | Event.Atomic_end -> Online.pop engine
    | Event.Yield -> ()  (* not a transaction boundary for atomicity *)
    | _ -> Online.step engine ~seq:!seq e
  in
  let finalize () =
    Online.finalize engine;
    result_of ~activations:!activations
      (Online.results engine ~first_only:true warning)
  in
  Analysis.make ~step ~finalize

let pp_txn ppf = function
  | Func f -> Format.fprintf ppf "fn#%d" f
  | Block l -> Format.fprintf ppf "atomic@%a" Loc.pp l

let pp_warning ppf w =
  Format.fprintf ppf "t%d: %a is not atomic: %a at %a (%a in post-commit)"
    w.tid pp_txn w.txn Event.pp_op w.op Loc.pp w.loc Mover.pp w.mover
