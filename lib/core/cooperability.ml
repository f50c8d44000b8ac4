open Coop_trace

type result = {
  violations : Automaton.violation list;
  races : Coop_race.Report.t list;
  racy : Event.Var_set.t;
  events : int;
}

(* A lock is thread-local when at most one thread ever acquires it. The
   ownership table is a flat array over dense lock ids: [unseen] before
   the first touch, [shared] once two threads have touched the lock, the
   owning dense tid otherwise. *)
let unseen = -1

let shared = -2

let local_locks_analysis ?interner () =
  let own_interner = interner = None in
  let itn = match interner with Some itn -> itn | None -> Interner.create () in
  let owners = ref (Array.make 8 unseen) in
  Analysis.make
    ~step:(fun (e : Event.t) ->
      if own_interner then Interner.note itn e;
      match e.op with
      | Event.Acquire _ | Event.Release _ ->
          let l = Interner.cur_operand itn in
          if l >= Array.length !owners then begin
            let bigger =
              Array.make (max (l + 1) (2 * Array.length !owners)) unseen
            in
            Array.blit !owners 0 bigger 0 (Array.length !owners);
            owners := bigger
          end;
          let o = !owners.(l) in
          if o = unseen then !owners.(l) <- Interner.cur_tid itn
          else if o >= 0 && o <> Interner.cur_tid itn then !owners.(l) <- shared
      | _ -> ())
    ~finalize:(fun () l ->
      let id = Interner.find_lock itn l in
      id >= 0 && id < Array.length !owners && !owners.(id) >= 0)

let local_locks_of trace = Analysis.run (local_locks_analysis ()) trace

(* The single-pass engine: the race detector publishes racy-variable and
   shared-lock facts into the automaton as they are discovered, and the
   automaton classifies optimistically, repairing the affected
   transactions on late facts (see [Online]). One streaming pass total —
   the source is consumed exactly once, so pipes work and inference pays
   one execution per schedule. *)
let online_chain ?(witness = false) () =
  let mark = Analysis.mark () in
  let instr name a =
    Analysis.instrument ~mark ~name:("checker/" ^ name) a
  in
  (* The shared interner of the fused chain: the head stage notes each
     event once; detector and engine read the dense ids, and the fact
     channel speaks in those ids. *)
  let itn = Interner.create () in
  Analysis.instrument_phase ~name:"analysis/online" ~mark
    (Analysis.chain
       (instr "intern" (Interner.analysis itn))
       (Analysis.feedback
          (fun ~publish ->
            Analysis.chain
              (instr "fasttrack"
                 (Coop_race.Fasttrack.analysis ~interner:itn ~witness
                    ~facts:(Online.facts publish) ()))
              (Analysis.count ()))
          (fun ~subscribe ->
            instr "automaton"
              (Automaton.online_analysis ~mark ~interner:itn ~subscribe ()))))

let result_of ((), ((races, events), violations)) =
  { violations; races; racy = Coop_race.Report.racy_vars races; events }

let online_analysis ?witness () =
  Analysis.map result_of (online_chain ?witness ())

let check ?witness trace = Analysis.run (online_analysis ?witness ()) trace

let violation_locs vs =
  List.fold_left
    (fun s (v : Automaton.violation) -> Loc.Set.add v.Automaton.loc s)
    Loc.Set.empty vs

let cooperable r = r.violations = []
