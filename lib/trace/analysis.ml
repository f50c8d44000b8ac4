type 'r t = { step : Event.t -> unit; finalize : unit -> 'r }

let make ~step ~finalize = { step; finalize }

let step a e = a.step e

let finalize a = a.finalize ()

let sink a : Trace.Sink.t = a.step

let map f a = { a with finalize = (fun () -> f (a.finalize ())) }

let chain a b =
  {
    step = (fun e -> a.step e; b.step e);
    finalize = (fun () -> (a.finalize (), b.finalize ()));
  }

let feedback up down =
  let handlers = ref [] in
  let publish fact = List.iter (fun h -> h fact) !handlers in
  let subscribe h = handlers := !handlers @ [ h ] in
  let a = up ~publish in
  let b = down ~subscribe in
  chain a b

let const r = { step = (fun _ -> ()); finalize = (fun () -> r) }

let count () =
  let n = ref 0 in
  make ~step:(fun _ -> incr n) ~finalize:(fun () -> !n)

type mark = { mutable mark_s : float; mutable mark_words : float }

let mark () = { mark_s = 0.; mark_words = 0. }

(* The closure-local registers of one instrumented analysis. A record of
   floats only is stored flat, so accumulating into it boxes nothing:
   the instrumentation itself allocates no words per event. *)
type acc = { mutable acc_s : float; mutable acc_words : float }

let instrumented ~name ~step_of =
  let acc = { acc_s = 0.; acc_words = 0. } in
  let events = ref 0 in
  fun (a : _ t) ->
    let step = step_of a acc events in
    let finalize () =
      let t0 = Coop_obs.now_s () and w0 = Gc.minor_words () in
      let r = a.finalize () in
      acc.acc_s <- acc.acc_s +. (Coop_obs.now_s () -. t0);
      acc.acc_words <- acc.acc_words +. (Gc.minor_words () -. w0);
      Coop_obs.timer_add ~words:acc.acc_words name acc.acc_s !events;
      (* Reset so a re-used analysis (two sources through one instance)
         does not double-flush what it already reported. *)
      acc.acc_s <- 0.;
      acc.acc_words <- 0.;
      events := 0;
      r
    in
    { step; finalize }

let instrument ?mark ~name a =
  if not (Coop_obs.enabled ()) then a
  else
    instrumented ~name
      ~step_of:(fun a acc events ->
        match mark with
        | None ->
            fun e ->
              let t0 = Coop_obs.now_s () and w0 = Gc.minor_words () in
              a.step e;
              acc.acc_s <- acc.acc_s +. (Coop_obs.now_s () -. t0);
              acc.acc_words <- acc.acc_words +. (Gc.minor_words () -. w0);
              incr events
        | Some m ->
            (* Shared-mark mode: one clock and one allocation-counter read
               per step, deltas from the mark the phase driver (or the
               previous checker) left behind. *)
            fun e ->
              a.step e;
              let t = Coop_obs.now_s () and w = Gc.minor_words () in
              acc.acc_s <- acc.acc_s +. (t -. m.mark_s);
              acc.acc_words <- acc.acc_words +. (w -. m.mark_words);
              m.mark_s <- t;
              m.mark_words <- w;
              incr events)
      a

let instrument_phase ~name ~mark a =
  if not (Coop_obs.enabled ()) then a
  else
    instrumented ~name
      ~step_of:(fun a acc events ->
        fun e ->
          let t0 = Coop_obs.now_s () and w0 = Gc.minor_words () in
          mark.mark_s <- t0;
          mark.mark_words <- w0;
          a.step e;
          acc.acc_s <- acc.acc_s +. (Coop_obs.now_s () -. t0);
          acc.acc_words <- acc.acc_words +. (Gc.minor_words () -. w0);
          incr events)
      a

let run a trace =
  Trace.iter a.step trace;
  a.finalize ()
