open Coop_trace

type result = {
  races : Coop_race.Report.t list;
  racy : Event.Var_set.t;
  violations : Coop_core.Automaton.violation list;
  deadlock : Coop_core.Deadlock.result;
  atomizer : Coop_atomicity.Atomizer.result option;
  conflict : Coop_atomicity.Conflict.result option;
  events : int;
}

let opt = function
  | None -> Analysis.const None
  | Some a -> Analysis.map Option.some a

(* Attribute each checker's step/finalize time to a [checker/<name>]
   timer; the checkers of one phase share a clock mark seeded by the
   enclosing [instrument_phase], so a chain of [k] checkers costs [k + 2]
   clock reads per event. With telemetry disabled [instrument] returns
   its argument, so the fused chain below is byte-identical to the
   uninstrumented one. *)
let instr mark name a =
  Analysis.instrument ~mark ~name:("checker/" ^ name) a

(* The two-pass reference oracle, the only one in the tree: phase 1
   gathers final knowledge, phase 2 re-streams the source through the
   mover/transaction checkers. Nothing is materialized, but the source
   is consumed twice, so it must be replayable. *)
let run_two_pass ?(atomize = false) ?(conflict = false) ?(witness = false)
    source =
  (* Phase 1: everything that needs no prior knowledge, fused behind one
     event dispatch — happens-before race detection, the thread-local-lock
     scan, lock-order deadlock edges, and the event counter. *)
  let mark = Analysis.mark () in
  let instr name a = instr mark name a in
  (* Both phases share one interner (and so one dense-id space): each
     phase's chain is headed by a note stage that interns an event's
     operands once for every checker behind it. *)
  let itn = Interner.create () in
  let phase1 =
    Analysis.instrument_phase ~name:"analysis/phase1" ~mark
      (Analysis.chain
         (instr "intern" (Interner.analysis itn))
         (Analysis.chain
            (instr "fasttrack"
               (Coop_race.Fasttrack.analysis ~interner:itn ~witness ()))
            (Analysis.chain
               (instr "local_locks"
                  (Coop_core.Cooperability.local_locks_analysis ~interner:itn
                     ()))
               (Analysis.chain
                  (instr "deadlock" (Coop_core.Deadlock.analysis ()))
                  (Analysis.count ())))))
  in
  let (), (races, (local_locks, (deadlock, events))) =
    Coop_obs.span "pipeline/phase1" (fun () -> Source.run source phase1)
  in
  let racy = Coop_race.Report.racy_vars races in
  (* Phase 2: the mover/transaction checkers, which need the final racy set
     and local-lock predicate; the source is re-streamed, never stored. *)
  let phase2 =
    Analysis.instrument_phase ~name:"analysis/phase2" ~mark
      (Analysis.chain
         (instr "intern" (Interner.analysis itn))
         (Analysis.chain
            (instr "automaton"
               (Coop_core.Automaton.analysis ~local_locks ~racy ()))
            (Analysis.chain
               (opt
                  (if atomize then
                     Some
                       (instr "atomizer"
                          (Coop_atomicity.Atomizer.analysis ~local_locks ~racy
                             ()))
                   else None))
               (opt
                  (if conflict then
                     Some
                       (instr "conflict"
                          (Coop_atomicity.Conflict.analysis ~interner:itn ()))
                   else None)))))
  in
  let (), (violations, (atomizer, conflict)) =
    Coop_obs.span "pipeline/phase2" (fun () -> Source.run source phase2)
  in
  { races; racy; violations; deadlock; atomizer; conflict; events }

(* Single-pass: the race detector publishes facts into the engine-backed
   mover checkers as they stream, so every checker — knowledge producers
   and consumers alike — rides one replay behind one event dispatch. *)
let run_online ?(atomize = false) ?(conflict = false) ?(witness = false)
    source =
  let mark = Analysis.mark () in
  let instr name a = instr mark name a in
  (* One interner for the whole fused chain: the head note stage interns
     each event's operands once, every checker indexes by the dense ids,
     and the fact channel between detector and engines speaks in them. *)
  let itn = Interner.create () in
  let fused =
    Analysis.instrument_phase ~name:"analysis/online" ~mark
      (Analysis.chain
         (instr "intern" (Interner.analysis itn))
         (Analysis.feedback
            (fun ~publish ->
              Analysis.chain
                (instr "fasttrack"
                   (Coop_race.Fasttrack.analysis ~interner:itn ~witness
                      ~facts:(Coop_core.Online.facts publish) ()))
                (Analysis.chain
                   (instr "deadlock" (Coop_core.Deadlock.analysis ()))
                   (Analysis.count ())))
            (fun ~subscribe ->
              Analysis.chain
                (instr "automaton"
                   (Coop_core.Automaton.online_analysis ~mark ~interner:itn
                      ~subscribe ()))
                (Analysis.chain
                   (opt
                      (if atomize then
                         Some
                           (instr "atomizer"
                              (Coop_atomicity.Atomizer.online_analysis ~mark
                                 ~interner:itn ~subscribe ()))
                       else None))
                   (opt
                      (if conflict then
                         Some
                           (instr "conflict"
                              (Coop_atomicity.Conflict.analysis ~interner:itn
                                 ()))
                       else None))))))
  in
  let ( (),
        ( (races, (deadlock, events)),
          (violations, (atomizer, conflict)) ) ) =
    Coop_obs.span "pipeline/online" (fun () -> Source.run source fused)
  in
  { races; racy = Coop_race.Report.racy_vars races; violations; deadlock;
    atomizer; conflict; events }

let run ?atomize ?conflict ?(two_pass = false) ?witness source =
  if two_pass then run_two_pass ?atomize ?conflict ?witness source
  else run_online ?atomize ?conflict ?witness source

let cooperable r = r.violations = []
