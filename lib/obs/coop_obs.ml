(* Per-domain telemetry buffers behind one global switch.

   The hot path is engineered backwards from the disabled case: every
   recording function first reads a plain [bool ref] and returns — no
   domain-local lookup, no allocation — so uninstrumented runs pay one
   predictable branch. Enabled, a domain lazily creates its buffer
   (registered once, under the registry mutex) and then records entirely
   lock-free on its own data; merging only happens in [snapshot].

   [reset] bumps a generation counter instead of chasing down the
   domain-local references other domains hold: a stale buffer fails the
   generation check on its owner's next recording and is replaced (and,
   being unregistered, is never read again). *)

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

(* The unboxed entry point of the primitive behind [Unix.gettimeofday]:
   callers doing float arithmetic on the result (the per-event timers of
   [Analysis.instrument]) then read the clock without boxing a float. *)
external now_s : unit -> (float[@unboxed])
  = "caml_unix_gettimeofday" "caml_unix_gettimeofday_unboxed"
[@@noalloc]

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

module Hist = struct
  let min_exp = -30
  let max_exp = 40

  let bucket_exp v =
    if v = Float.infinity then max_exp
    else if not (Float.is_finite v) || v <= 0. then min_exp
    else begin
      (* frexp gives v = m * 2^e with m in [0.5, 1): an exact power of two
         has m = 0.5, anything else rounds its exponent up — precisely
         ceil(log2 v) without log-rounding artifacts. *)
      let m, e = Float.frexp v in
      let e = if m = 0.5 then e - 1 else e in
      if e < min_exp then min_exp else if e > max_exp then max_exp else e
    end

  type t = {
    counts : (int * int) list;
    count : int;
    sum : float;
    min : float;
    max : float;
  }
end

let n_buckets = Hist.max_exp - Hist.min_exp + 1

type hist_state = {
  buckets : int array;  (* indexed by exponent - min_exp *)
  mutable hcount : int;
  mutable hsum : float;
  mutable hmin : float;
  mutable hmax : float;
}

(* ------------------------------------------------------------------ *)
(* Per-domain buffers and the central registry                         *)
(* ------------------------------------------------------------------ *)

type span_record = {
  span_name : string;
  domain : int;
  start_us : float;
  dur_us : float;
  depth : int;
}

type open_span = { os_name : string; os_t0 : float }

type sample_record = { s_domain : int; ts_us : float; value : float }

type flow_phase = Flow_begin | Flow_end

type flow_record = {
  fl_name : string;
  fl_id : int;
  fl_domain : int;
  fl_ts_us : float;
  fl_phase : flow_phase;
}

type timer_acc = {
  mutable acc_s : float;
  mutable acc_calls : int;
  mutable acc_words : float;
}

type domain_state = {
  dom : int;
  mutable stack : open_span list;  (* innermost first *)
  mutable done_spans : span_record list;  (* reversed *)
  d_counters : (string, int ref) Hashtbl.t;
  d_gauges : (string, (int * float) ref) Hashtbl.t;  (* (write seq, value) *)
  d_timers : (string, timer_acc) Hashtbl.t;
  d_hists : (string, hist_state) Hashtbl.t;
  d_samples : (string, sample_record list ref) Hashtbl.t;  (* reversed *)
  mutable d_flows : flow_record list;  (* reversed *)
}

let on = ref false
let epoch_us = ref 0.
let generation = Atomic.make 0
let gauge_seq = Atomic.make 0
let registry_mutex = Mutex.create ()
let registry : domain_state list ref = ref []

type slot = Empty | St of int * domain_state

let dls_key : slot ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref Empty)

let state () =
  let slot = Domain.DLS.get dls_key in
  let gen = Atomic.get generation in
  match !slot with
  | St (g, st) when g = gen -> st
  | _ ->
      let st =
        {
          dom = (Domain.self () :> int);
          stack = [];
          done_spans = [];
          d_counters = Hashtbl.create 16;
          d_gauges = Hashtbl.create 16;
          d_timers = Hashtbl.create 16;
          d_hists = Hashtbl.create 16;
          d_samples = Hashtbl.create 16;
          d_flows = [];
        }
      in
      Mutex.lock registry_mutex;
      registry := st :: !registry;
      Mutex.unlock registry_mutex;
      slot := St (gen, st);
      st

let domains_registered () =
  Mutex.lock registry_mutex;
  let n = List.length !registry in
  Mutex.unlock registry_mutex;
  n

(* ------------------------------------------------------------------ *)
(* Switch                                                              *)
(* ------------------------------------------------------------------ *)

let enabled () = !on

let reset () =
  Mutex.lock registry_mutex;
  Atomic.incr generation;
  registry := [];
  epoch_us := 0.;
  Mutex.unlock registry_mutex

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

let span name f =
  if not !on then f ()
  else begin
    let st = state () in
    let depth = List.length st.stack in
    let t0 = now_s () in
    st.stack <- { os_name = name; os_t0 = t0 } :: st.stack;
    let finish () =
      let t1 = now_s () in
      match st.stack with
      | s :: rest ->
          st.stack <- rest;
          st.done_spans <-
            {
              span_name = name;
              domain = st.dom;
              start_us = (1e6 *. s.os_t0) -. !epoch_us;
              dur_us = 1e6 *. (t1 -. s.os_t0);
              depth;
            }
            :: st.done_spans
      | [] -> ()  (* a reset raced the span; drop it *)
    in
    Fun.protect ~finally:finish f
  end

let count name n =
  if !on then begin
    let st = state () in
    match Hashtbl.find_opt st.d_counters name with
    | Some r -> r := !r + n
    | None -> Hashtbl.add st.d_counters name (ref n)
  end

let gauge name v =
  if !on then begin
    let st = state () in
    let seq = Atomic.fetch_and_add gauge_seq 1 in
    match Hashtbl.find_opt st.d_gauges name with
    | Some r -> r := (seq, v)
    | None -> Hashtbl.add st.d_gauges name (ref (seq, v))
  end

let observe name v =
  if !on then begin
    let st = state () in
    let h =
      match Hashtbl.find_opt st.d_hists name with
      | Some h -> h
      | None ->
          let h =
            { buckets = Array.make n_buckets 0; hcount = 0; hsum = 0.;
              hmin = infinity; hmax = neg_infinity }
          in
          Hashtbl.add st.d_hists name h;
          h
    in
    let i = Hist.bucket_exp v - Hist.min_exp in
    h.buckets.(i) <- h.buckets.(i) + 1;
    h.hcount <- h.hcount + 1;
    h.hsum <- h.hsum +. v;
    if v < h.hmin then h.hmin <- v;
    if v > h.hmax then h.hmax <- v
  end

let timer_add ?(words = 0.) name seconds calls =
  if !on then begin
    let st = state () in
    match Hashtbl.find_opt st.d_timers name with
    | Some a ->
        a.acc_s <- a.acc_s +. seconds;
        a.acc_calls <- a.acc_calls + calls;
        a.acc_words <- a.acc_words +. words
    | None ->
        Hashtbl.add st.d_timers name
          { acc_s = seconds; acc_calls = calls; acc_words = words }
  end

let sample name v =
  if !on then begin
    let st = state () in
    let r =
      match Hashtbl.find_opt st.d_samples name with
      | Some r -> r
      | None ->
          let r = ref [] in
          Hashtbl.add st.d_samples name r;
          r
    in
    r :=
      { s_domain = st.dom; ts_us = (1e6 *. now_s ()) -. !epoch_us; value = v }
      :: !r
  end

let flow_event name ~id phase =
  if !on then begin
    let st = state () in
    st.d_flows <-
      { fl_name = name; fl_id = id; fl_domain = st.dom;
        fl_ts_us = (1e6 *. now_s ()) -. !epoch_us; fl_phase = phase }
      :: st.d_flows
  end

let flow_begin name ~id = flow_event name ~id Flow_begin
let flow_end name ~id = flow_event name ~id Flow_end

(* ------------------------------------------------------------------ *)
(* The pool monitor                                                    *)
(* ------------------------------------------------------------------ *)

(* Queue depth on every spawn, per-task latency and per-worker busy time
   on every executed task. The pool has no deques and never steals, so
   the other two hooks are no-ops. *)
let pool_monitor =
  {
    Coop_util.Pool.on_submit =
      (fun ~queued -> observe "pool/queue_depth" (float_of_int queued));
    wrap_task =
      (fun task () ->
        let t0 = now_s () in
        let finish () =
          let dt = now_s () -. t0 in
          timer_add "pool/worker_busy" dt 1;
          observe "pool/task_us" (1e6 *. dt)
        in
        Fun.protect ~finally:finish task);
    on_steal = (fun ~thief:_ ~victim:_ ~latency_s:_ -> ());
    on_deque_depth = (fun ~slot:_ ~depth:_ -> ());
  }

let enable () =
  if not !on then begin
    if !epoch_us = 0. then epoch_us := 1e6 *. now_s ();
    on := true
  end

let disable () = on := false

(* ------------------------------------------------------------------ *)
(* Snapshot (merge)                                                    *)
(* ------------------------------------------------------------------ *)

type timer = {
  time_s : float;
  calls : int;
  words : float;
  by_domain : (int * float) list;
}

type snapshot = {
  spans : span_record list;
  counters : (string * int) list;
  gauges : (string * float) list;
  timers : (string * timer) list;
  hists : (string * Hist.t) list;
  samples : (string * sample_record list) list;
  flows : flow_record list;
}

let snapshot () =
  Mutex.lock registry_mutex;
  let states = !registry in
  Mutex.unlock registry_mutex;
  let spans =
    List.concat_map (fun st -> st.done_spans) states
    |> List.sort (fun a b ->
           match compare a.start_us b.start_us with
           | 0 -> compare a.depth b.depth
           | c -> c)
  in
  let counters = Hashtbl.create 16 in
  let gauges = Hashtbl.create 16 in
  let timers = Hashtbl.create 16 in
  let hists = Hashtbl.create 16 in
  let samples = Hashtbl.create 16 in
  List.iter
    (fun st ->
      Hashtbl.iter
        (fun name r ->
          match Hashtbl.find_opt counters name with
          | Some acc -> acc := !acc + !r
          | None -> Hashtbl.add counters name (ref !r))
        st.d_counters;
      Hashtbl.iter
        (fun name r ->
          let seq, v = !r in
          match Hashtbl.find_opt gauges name with
          | Some acc -> if seq > fst !acc then acc := (seq, v)
          | None -> Hashtbl.add gauges name (ref (seq, v)))
        st.d_gauges;
      Hashtbl.iter
        (fun name a ->
          let entry =
            match Hashtbl.find_opt timers name with
            | Some e -> e
            | None ->
                let e = (ref 0., ref 0, ref 0., ref []) in
                Hashtbl.add timers name e;
                e
          in
          let sum, calls, words, by_dom = entry in
          sum := !sum +. a.acc_s;
          calls := !calls + a.acc_calls;
          words := !words +. a.acc_words;
          by_dom := (st.dom, a.acc_s) :: !by_dom)
        st.d_timers;
      Hashtbl.iter
        (fun name h ->
          let acc =
            match Hashtbl.find_opt hists name with
            | Some a -> a
            | None ->
                let a =
                  { buckets = Array.make n_buckets 0; hcount = 0; hsum = 0.;
                    hmin = infinity; hmax = neg_infinity }
                in
                Hashtbl.add hists name a;
                a
          in
          Array.iteri (fun i n -> acc.buckets.(i) <- acc.buckets.(i) + n)
            h.buckets;
          acc.hcount <- acc.hcount + h.hcount;
          acc.hsum <- acc.hsum +. h.hsum;
          if h.hmin < acc.hmin then acc.hmin <- h.hmin;
          if h.hmax > acc.hmax then acc.hmax <- h.hmax)
        st.d_hists;
      Hashtbl.iter
        (fun name r ->
          let acc =
            match Hashtbl.find_opt samples name with
            | Some a -> a
            | None ->
                let a = ref [] in
                Hashtbl.add samples name a;
                a
          in
          acc := List.rev_append !r !acc)
        st.d_samples)
    states;
  let sorted_bindings tbl f =
    Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let counters_l = sorted_bindings counters (fun r -> !r) in
  let hists_l =
    sorted_bindings hists (fun h ->
        let counts = ref [] in
        for i = n_buckets - 1 downto 0 do
          if h.buckets.(i) > 0 then
            counts := (i + Hist.min_exp, h.buckets.(i)) :: !counts
        done;
        { Hist.counts = !counts; count = h.hcount; sum = h.hsum;
          min = h.hmin; max = h.hmax })
  in
  let gauges_l = sorted_bindings gauges (fun r -> snd !r) in
  {
    spans;
    counters = counters_l;
    gauges = gauges_l;
    timers =
      sorted_bindings timers (fun (s, c, w, by_dom) ->
          {
            time_s = !s;
            calls = !c;
            words = !w;
            by_domain =
              List.sort (fun (a, _) (b, _) -> compare a b) !by_dom;
          });
    hists = hists_l;
    samples =
      sorted_bindings samples (fun r ->
          List.sort (fun a b -> compare a.ts_us b.ts_us) !r);
    flows =
      List.concat_map (fun st -> st.d_flows) states
      |> List.sort (fun a b ->
             match compare a.fl_ts_us b.fl_ts_us with
             | 0 -> compare a.fl_id b.fl_id
             | c -> c);
  }

(* ------------------------------------------------------------------ *)
(* Attribution                                                         *)
(* ------------------------------------------------------------------ *)

type attribution_row = {
  checker : string;
  seconds : float;
  events : int;
  words : float;
  share : float;
}

let prefixed prefix name =
  let pl = String.length prefix in
  if String.length name > pl && String.sub name 0 pl = prefix then
    Some (String.sub name pl (String.length name - pl))
  else None

let attribution snap =
  let checkers =
    List.filter_map
      (fun (name, t) ->
        Option.map (fun short -> (short, t)) (prefixed "checker/" name))
      snap.timers
  in
  let phase_total =
    List.fold_left
      (fun acc (name, t) ->
        if prefixed "analysis/" name <> None then acc +. t.time_s else acc)
      0. snap.timers
  in
  let accounted =
    List.fold_left (fun acc (_, t) -> acc +. t.time_s) 0. checkers
  in
  (* The phase timers wrap the whole fused chain, so they include the
     dispatch and the per-checker clock reads; when absent (a checker
     profiled outside the pipeline), the checkers' own sum is the total. *)
  let total = if phase_total > 0. then phase_total else accounted in
  if total <= 0. then ([], 0.)
  else begin
    let rows =
      List.map
        (fun (name, t) ->
          { checker = name; seconds = t.time_s; events = t.calls;
            words = t.words; share = t.time_s /. total })
        checkers
      |> List.sort (fun a b -> compare b.seconds a.seconds)
    in
    let residual = total -. accounted in
    let rows =
      if phase_total > 0. then
        rows
        @ [ { checker = "(dispatch/other)"; seconds = Float.max 0. residual;
              events = 0; words = 0.; share = Float.max 0. residual /. total } ]
      else rows
    in
    (rows, total)
  end

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let profile_table snap =
  match attribution snap with
  | [], _ -> "profile: no instrumented analysis time recorded\n"
  | rows, total ->
      let t =
        Coop_util.Table.create
          ~headers:
            [ ("checker", Coop_util.Table.Left);
              ("time (ms)", Coop_util.Table.Right);
              ("share", Coop_util.Table.Right);
              ("events", Coop_util.Table.Right);
              ("ns/event", Coop_util.Table.Right);
              ("words/event", Coop_util.Table.Right) ]
      in
      List.iter
        (fun r ->
          Coop_util.Table.add_row t
            [ r.checker;
              Printf.sprintf "%.2f" (1000. *. r.seconds);
              Printf.sprintf "%.1f%%" (100. *. r.share);
              (if r.events > 0 then string_of_int r.events else "-");
              (if r.events > 0 then
                 Printf.sprintf "%.0f"
                   (1e9 *. r.seconds /. float_of_int r.events)
               else "-");
              (if r.events > 0 then
                 Printf.sprintf "%.1f" (r.words /. float_of_int r.events)
               else "-") ])
        rows;
      Printf.sprintf
        "Profile: per-checker attribution (analysis sink time %.2f ms)\n%s"
        (1000. *. total)
        (Coop_util.Table.render t)

let render_summary snap =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (profile_table snap);
  let section title f = function
    | [] -> ()
    | items ->
        Buffer.add_string buf (Printf.sprintf "\n%s:\n" title);
        List.iter (fun item -> Buffer.add_string buf (f item)) items
  in
  section "counters"
    (fun (name, n) -> Printf.sprintf "  %-28s %d\n" name n)
    snap.counters;
  section "gauges"
    (fun (name, v) -> Printf.sprintf "  %-28s %g\n" name v)
    snap.gauges;
  section "timers"
    (fun (name, t) ->
      let by_dom =
        match t.by_domain with
        | [] | [ _ ] -> ""
        | ds ->
            " ["
            ^ String.concat ", "
                (List.map
                   (fun (d, s) -> Printf.sprintf "d%d: %.1fms" d (1000. *. s))
                   ds)
            ^ "]"
      in
      Printf.sprintf "  %-28s %.2f ms / %d call(s)%s\n" name
        (1000. *. t.time_s) t.calls by_dom)
    snap.timers;
  section "histograms"
    (fun (name, h) ->
      Printf.sprintf "  %-28s n=%d avg=%.1f min=%g max=%g\n" name
        h.Hist.count
        (h.Hist.sum /. float_of_int (max 1 h.Hist.count))
        h.Hist.min h.Hist.max)
    snap.hists;
  section "sample series"
    (fun (name, samples) ->
      let last =
        match List.rev samples with [] -> 0. | s :: _ -> s.value
      in
      Printf.sprintf "  %-28s n=%d last=%g\n" name (List.length samples)
        last)
    snap.samples;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON export                                                         *)
(* ------------------------------------------------------------------ *)

let to_json snap =
  let open Coop_util.Json in
  Obj
    [
      ("schema", String "coop-obs/v1");
      ("counters",
       Obj (List.map (fun (n, v) -> (n, Int v)) snap.counters));
      ("gauges", Obj (List.map (fun (n, v) -> (n, Float v)) snap.gauges));
      ("timers",
       Obj
         (List.map
            (fun (n, t) ->
              ( n,
                Obj
                  [ ("s", Float t.time_s); ("calls", Int t.calls);
                    ("words", Float t.words);
                    ("by_domain",
                     Obj
                       (List.map
                          (fun (d, s) -> (string_of_int d, Float s))
                          t.by_domain)) ] ))
            snap.timers));
      ("histograms",
       Obj
         (List.map
            (fun (n, h) ->
              ( n,
                Obj
                  [ ("count", Int h.Hist.count); ("sum", Float h.Hist.sum);
                    ("min", Float h.Hist.min); ("max", Float h.Hist.max);
                    ("buckets",
                     List
                       (List.map
                          (fun (e, c) ->
                            Obj
                              [ ("le", Float (2. ** float_of_int e));
                                ("count", Int c) ])
                          h.Hist.counts)) ] ))
            snap.hists));
      ("spans",
       List
         (List.map
            (fun s ->
              Obj
                [ ("name", String s.span_name); ("domain", Int s.domain);
                  ("start_us", Float s.start_us); ("dur_us", Float s.dur_us);
                  ("depth", Int s.depth) ])
            snap.spans));
      ("samples",
       Obj
         (List.map
            (fun (n, samples) ->
              ( n,
                List
                  (List.map
                     (fun s ->
                       Obj
                         [ ("domain", Int s.s_domain);
                           ("ts_us", Float s.ts_us);
                           ("value", Float s.value) ])
                     samples) ))
            snap.samples));
      ("flows",
       List
         (List.map
            (fun f ->
              Obj
                [ ("name", String f.fl_name); ("id", Int f.fl_id);
                  ("domain", Int f.fl_domain); ("ts_us", Float f.fl_ts_us);
                  ("phase",
                   String
                     (match f.fl_phase with
                     | Flow_begin -> "begin"
                     | Flow_end -> "end")) ])
            snap.flows));
    ]

let chrome_trace snap =
  let open Coop_util.Json in
  let tids =
    List.sort_uniq compare
      (List.map (fun s -> s.domain) snap.spans
      @ List.map (fun f -> f.fl_domain) snap.flows)
  in
  let meta =
    Obj
      [ ("name", String "process_name"); ("ph", String "M"); ("pid", Int 1);
        ("tid", Int 0); ("args", Obj [ ("name", String "coopcheck") ]) ]
    :: List.map
         (fun tid ->
           Obj
             [ ("name", String "thread_name"); ("ph", String "M");
               ("pid", Int 1); ("tid", Int tid);
               ("args",
                Obj [ ("name", String (Printf.sprintf "domain %d" tid)) ]) ])
         tids
  in
  let events =
    List.map
      (fun s ->
        Obj
          [ ("name", String s.span_name); ("cat", String "analysis");
            ("ph", String "X"); ("pid", Int 1); ("tid", Int s.domain);
            ("ts", Int (int_of_float s.start_us));
            ("dur", Int (max 1 (int_of_float s.dur_us))) ])
      snap.spans
  in
  (* Timestamped sample series become counter lanes: one [ph:"C"] track
     per (name, recording domain). *)
  let counter_lanes =
    List.concat_map
      (fun (name, samples) ->
        List.map
          (fun s ->
            Obj
              [ ("name", String name); ("cat", String "scheduler");
                ("ph", String "C"); ("pid", Int 1);
                ("tid", Int s.s_domain); ("ts", Int (int_of_float s.ts_us));
                ("args", Obj [ ("value", Float s.value) ]) ])
          samples)
      snap.samples
  in
  (* Fact-propagation edges: a flow starts where knowledge is published
     and finishes where it is learned, drawing an arrow between the two
     domain lanes. [bp:"e"] binds the finish to the enclosing slice. *)
  let flow_events =
    List.map
      (fun f ->
        let base =
          [ ("name", String f.fl_name); ("cat", String "flow");
            ("ph",
             String (match f.fl_phase with Flow_begin -> "s" | Flow_end -> "f"));
            ("id", Int f.fl_id); ("pid", Int 1); ("tid", Int f.fl_domain);
            ("ts", Int (int_of_float f.fl_ts_us)) ]
        in
        Obj
          (match f.fl_phase with
          | Flow_begin -> base
          | Flow_end -> base @ [ ("bp", String "e") ]))
      snap.flows
  in
  List (meta @ events @ counter_lanes @ flow_events)
