open Coop_trace
open Coop_lang

type t = {
  static_yields : int;
  inferred_yields : int;
  total_yields : int;
  code_size : int;
  functions : int;
  yield_free_functions : int;
  pct_yield_free : float;
  events : int;
  yield_events : int;
  yields_per_kevent : float;
}

let static_yield_locs prog =
  let locs = ref Loc.Set.empty in
  Array.iteri
    (fun fi (f : Bytecode.func) ->
      Array.iteri
        (fun pc instr ->
          match instr with
          | Bytecode.Yield_instr ->
              locs := Loc.Set.add (Bytecode.loc prog ~func:fi ~pc) !locs
          | _ -> ())
        f.code)
    prog.Bytecode.funcs;
  !locs

let of_counts prog ~inferred ~events ~yield_events =
  let static = static_yield_locs prog in
  let all = Loc.Set.union static inferred in
  let functions = Array.length prog.Bytecode.funcs in
  let has_yield fi = Loc.Set.exists (fun l -> l.Loc.func = fi) all in
  let yield_free =
    let n = ref 0 in
    for fi = 0 to functions - 1 do
      if not (has_yield fi) then incr n
    done;
    !n
  in
  {
    static_yields = Loc.Set.cardinal static;
    inferred_yields = Loc.Set.cardinal (Loc.Set.diff inferred static);
    total_yields = Loc.Set.cardinal all;
    code_size = Bytecode.code_size prog;
    functions;
    yield_free_functions = yield_free;
    pct_yield_free =
      (if functions = 0 then 100.
       else 100. *. float_of_int yield_free /. float_of_int functions);
    events;
    yield_events;
    yields_per_kevent =
      (if events = 0 then 0.
       else 1000. *. float_of_int yield_events /. float_of_int events);
  }

let analysis prog ~inferred () =
  let events = ref 0 in
  let yield_events = ref 0 in
  Analysis.make
    ~step:(fun (e : Event.t) ->
      incr events;
      if e.op = Event.Yield then incr yield_events)
    ~finalize:(fun () ->
      of_counts prog ~inferred ~events:!events ~yield_events:!yield_events)

let compute prog ~inferred ~trace = Analysis.run (analysis prog ~inferred ()) trace

let pp ppf m =
  Format.fprintf ppf
    "@[<v>yields: %d static + %d inferred = %d@,\
     functions: %d (%d yield-free, %.1f%%)@,\
     code: %d instructions@,\
     dynamic: %d yield events in %d events (%.2f/kevent)@]"
    m.static_yields m.inferred_yields m.total_yields m.functions
    m.yield_free_functions m.pct_yield_free m.code_size m.yield_events
    m.events m.yields_per_kevent
