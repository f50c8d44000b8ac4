(* A snapshot is an ordered list of per-component packets. Packets carry
   their state as a closure over a typed value; [resume] transplants the
   value into a (possibly different) instance of the same component
   through that component's module-level [Key] — the cell smuggles the
   typed value across the untyped packet boundary, so no Obj magic and
   no per-component existential wrappers. *)
type packet = {
  pk_name : string;
  pk_inject : unit -> unit;  (* writes the value into its key's cell *)
}

type snapshot = packet list

module Key = struct
  type 'a t = {
    name : string;
    mutable cell : 'a option;
    m : Mutex.t;  (* cells are module-global; resumes may race across domains *)
  }

  let create name = { name; cell = None; m = Mutex.create () }
end

type 'r t = {
  step : Event.t -> unit;
  finalize : unit -> 'r;
  save : (unit -> packet list) option;
  load : (packet list -> packet list) option;
      (* consumes this component's leading packets, returns the rest *)
}

let make ~step ~finalize = { step; finalize; save = None; load = None }

let snapshottable (type s) ~(key : s Key.t) ~(save : unit -> s)
    ~(load : s -> unit) a =
  let save_pk () =
    (* Capture now: [save] must deep-copy, so later mutation of the live
       analysis (or of any instance the packet is loaded into) cannot
       leak back into the snapshot. *)
    let v = save () in
    [ { pk_name = key.Key.name; pk_inject = (fun () -> key.Key.cell <- Some v) } ]
  in
  let load_pk = function
    | [] ->
        invalid_arg
          ("Analysis.resume: missing snapshot component " ^ key.Key.name)
    | p :: rest ->
        if not (String.equal p.pk_name key.Key.name) then
          invalid_arg
            (Printf.sprintf
               "Analysis.resume: snapshot component %S where %S expected"
               p.pk_name key.Key.name);
        Mutex.lock key.Key.m;
        Fun.protect
          ~finally:(fun () ->
            key.Key.cell <- None;
            Mutex.unlock key.Key.m)
          (fun () ->
            key.Key.cell <- None;
            p.pk_inject ();
            match key.Key.cell with
            | Some v -> load v
            | None ->
                invalid_arg
                  ("Analysis.resume: key mismatch for component "
                 ^ key.Key.name));
        rest
  in
  { a with save = Some save_pk; load = Some load_pk }

let snapshot a = match a.save with Some s -> Some (s ()) | None -> None

let resume a s =
  match a.load with
  | None -> invalid_arg "Analysis.resume: analysis is not snapshottable"
  | Some ld -> (
      match ld s with
      | [] -> ()
      | _ -> invalid_arg "Analysis.resume: surplus snapshot components")

let step a e = a.step e

let finalize a = a.finalize ()

let sink a : Trace.Sink.t = a.step

let map f a = { a with finalize = (fun () -> f (a.finalize ())) }

let both_save a b =
  match (a.save, b.save) with
  | Some sa, Some sb -> Some (fun () -> sa () @ sb ())
  | _ -> None

let both_load a b =
  match (a.load, b.load) with
  | Some la, Some lb -> Some (fun pkts -> lb (la pkts))
  | _ -> None

let chain a b =
  {
    step = (fun e -> a.step e; b.step e);
    finalize = (fun () -> (a.finalize (), b.finalize ()));
    save = both_save a b;
    load = both_load a b;
  }

let all analyses =
  let opt_fold f =
    List.fold_left
      (fun acc a -> match acc with None -> None | Some acc -> f acc a)
      (Some [])
      analyses
    |> Option.map List.rev
  in
  {
    step = (fun e -> List.iter (fun a -> a.step e) analyses);
    finalize = (fun () -> List.map (fun a -> a.finalize ()) analyses);
    save =
      (match opt_fold (fun acc a ->
               Option.map (fun s -> s :: acc) a.save)
       with
      | Some saves -> Some (fun () -> List.concat_map (fun s -> s ()) saves)
      | None -> None);
    load =
      (match opt_fold (fun acc a ->
               Option.map (fun l -> l :: acc) a.load)
       with
      | Some loads ->
          Some (fun pkts -> List.fold_left (fun pkts l -> l pkts) pkts loads)
      | None -> None);
  }

let feedback up down =
  let handlers = ref [] in
  let publish fact = List.iter (fun h -> h fact) !handlers in
  let subscribe h = handlers := !handlers @ [ h ] in
  let a = up ~publish in
  let b = down ~subscribe in
  chain a b

let const r =
  {
    step = (fun _ -> ());
    finalize = (fun () -> r);
    save = Some (fun () -> []);
    load = Some (fun pkts -> pkts);
  }

let count_key : int Key.t = Key.create "count"

let count () =
  let n = ref 0 in
  snapshottable ~key:count_key
    ~save:(fun () -> !n)
    ~load:(fun v -> n := v)
    (make ~step:(fun _ -> incr n) ~finalize:(fun () -> !n))

let fold f init =
  let acc = ref init in
  make ~step:(fun e -> acc := f !acc e) ~finalize:(fun () -> !acc)

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
    (* Telemetry registers are not analysis state: a resumed instance
       reports only the time it spent itself, so save/load pass through. *)
    { a with step; finalize }

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
