open Coop_trace

let ev tid op = Event.make ~tid ~op ~loc:Loc.none

let test_loc_order () =
  let a = Loc.make ~func:0 ~pc:1 ~line:1 in
  let b = Loc.make ~func:0 ~pc:2 ~line:1 in
  let c = Loc.make ~func:1 ~pc:0 ~line:9 in
  Alcotest.(check bool) "pc order" true (Loc.compare a b < 0);
  Alcotest.(check bool) "func dominates" true (Loc.compare b c < 0);
  Alcotest.(check bool) "equal" true (Loc.equal a a);
  Alcotest.(check string) "pp" "f0:pc1(line 1)" (Loc.to_string a);
  Alcotest.(check string) "pp none" "<none>" (Loc.to_string Loc.none)

(* The renderer writes digits by hand; it must agree with the formatted
   spelling on every int, the extremes included. *)
let prop_loc_to_string =
  let module G = QCheck2.Gen in
  let field =
    G.oneof
      [ G.oneofl [ 0; 1; -1; 9; 10; -10; 99; 100; min_int; max_int;
                   min_int + 1; max_int - 1 ];
        G.small_signed_int; G.int ]
  in
  Gen.to_alcotest
    (QCheck2.Test.make ~name:"loc to_string = sprintf = pp" ~count:2000
       ~print:(fun (f, p, l) -> Printf.sprintf "func=%d pc=%d line=%d" f p l)
       (G.triple field field field)
       (fun (func, pc, line) ->
         let l = Loc.make ~func ~pc ~line in
         let want =
           if func < 0 then "<none>"
           else Printf.sprintf "f%d:pc%d(line %d)" func pc line
         in
         String.equal (Loc.to_string l) want
         && String.equal (Format.asprintf "%a" Loc.pp l) want))

let test_loc_set () =
  let a = Loc.make ~func:0 ~pc:1 ~line:1 in
  let s = Loc.Set.add a (Loc.Set.add a Loc.Set.empty) in
  Alcotest.(check int) "deduped" 1 (Loc.Set.cardinal s)

let test_var_compare () =
  Alcotest.(check bool) "global order" true
    (Event.compare_var (Event.Global 0) (Event.Global 1) < 0);
  Alcotest.(check bool) "global < cell" true
    (Event.compare_var (Event.Global 99) (Event.Cell (0, 0)) < 0);
  Alcotest.(check bool) "cell index order" true
    (Event.compare_var (Event.Cell (1, 2)) (Event.Cell (1, 3)) < 0);
  Alcotest.(check bool) "equal" true
    (Event.equal_var (Event.Cell (1, 2)) (Event.Cell (1, 2)))

let test_event_accessors () =
  Alcotest.(check bool) "read is access" true (Event.is_access (Event.Read (Event.Global 0)));
  Alcotest.(check bool) "acquire is not" false (Event.is_access (Event.Acquire 0));
  (match Event.accessed_var (Event.Write (Event.Cell (2, 3))) with
  | Some v -> Alcotest.(check bool) "accessed var" true (Event.equal_var v (Event.Cell (2, 3)))
  | None -> Alcotest.fail "expected a var");
  Alcotest.(check bool) "yield has no var" true (Event.accessed_var Event.Yield = None)

let test_trace_growth () =
  let t = Trace.create () in
  for i = 0 to 999 do
    Trace.add t (ev (i mod 3) (Event.Out i))
  done;
  Alcotest.(check int) "length" 1000 (Trace.length t);
  (match (Trace.get t 500).Event.op with
  | Event.Out 500 -> ()
  | _ -> Alcotest.fail "wrong event at index 500");
  Alcotest.check_raises "oob" (Invalid_argument "Trace.get: index out of bounds")
    (fun () -> ignore (Trace.get t 1000))

let test_trace_iteration () =
  let t = Trace.of_list [ ev 0 Event.Yield; ev 1 Event.Yield; ev 0 (Event.Out 5) ] in
  Alcotest.(check int) "fold counts" 3 (Trace.fold (fun n _ -> n + 1) 0 t);
  Alcotest.(check (list int)) "threads" [ 0; 1 ] (Trace.threads t);
  Alcotest.(check int) "count yields" 2
    (Trace.count (fun e -> e.Event.op = Event.Yield) t);
  let idxs = ref [] in
  Trace.iteri (fun i _ -> idxs := i :: !idxs) t;
  Alcotest.(check (list int)) "iteri order" [ 2; 1; 0 ] !idxs

let test_roundtrip_list () =
  let es = [ ev 0 (Event.Read (Event.Global 1)); ev 2 (Event.Acquire 0) ] in
  let t = Trace.of_list es in
  Alcotest.(check int) "same length" 2 (List.length (Trace.to_list t))

let test_sink_tee_and_record () =
  let t1 = Trace.create () and t2 = Trace.create () in
  let sink = Trace.Sink.tee [ Trace.Sink.recording t1; Trace.Sink.recording t2 ] in
  sink (ev 0 Event.Yield);
  sink (ev 1 Event.Yield);
  Alcotest.(check int) "t1 got both" 2 (Trace.length t1);
  Alcotest.(check int) "t2 got both" 2 (Trace.length t2);
  Trace.Sink.ignore (ev 0 Event.Yield)

let test_sink_tee_degenerate () =
  (* The singleton case must be the sink itself — no wrapper closure on the
     per-event hot path — and the empty case must swallow events. *)
  let t = Trace.create () in
  let s = Trace.Sink.recording t in
  Alcotest.(check bool) "tee [s] is s" true (Trace.Sink.tee [ s ] == s);
  Trace.Sink.tee [] (ev 0 Event.Yield);
  Alcotest.(check int) "tee [] drops events" 0 (Trace.length t)

let test_timeline_render () =
  let t =
    Trace.of_list
      [ ev 0 (Event.Write (Event.Global 0)); ev 1 (Event.Read (Event.Global 0));
        ev 0 Event.Yield ]
  in
  let s = Timeline.render t in
  let lines = String.split_on_char '\n' s in
  (* header + rule + 3 event rows + trailing newline *)
  Alcotest.(check int) "line count" 6 (List.length lines);
  Alcotest.(check bool) "mentions both threads" true
    (let hdr = List.nth lines 0 in
     let has sub =
       let n = String.length sub and h = String.length hdr in
       let rec go i = i + n <= h && (String.sub hdr i n = sub || go (i + 1)) in
       go 0
     in
     has "t0" && has "t1")

let test_timeline_truncation () =
  let t = Trace.create () in
  for i = 0 to 49 do
    Trace.add t (ev (i mod 2) (Event.Out i))
  done;
  let s = Timeline.render ~max_events:10 t in
  Alcotest.(check bool) "notes truncation" true
    (let has sub str =
       let n = String.length sub and h = String.length str in
       let rec go i = i + n <= h && (String.sub str i n = sub || go (i + 1)) in
       go 0
     in
     has "40 more events" s)

let test_timeline_filter () =
  let t =
    Trace.of_list
      [ ev 0 (Event.Enter 0); ev 0 (Event.Out 1); ev 0 (Event.Exit 0) ]
  in
  let s =
    Timeline.render_filtered
      ~keep:(fun e ->
        match e.Event.op with Event.Enter _ | Event.Exit _ -> false | _ -> true)
      t
  in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "only one event row" 4 (List.length lines)

let suite =
  [
    Alcotest.test_case "timeline render" `Quick test_timeline_render;
    Alcotest.test_case "timeline truncation" `Quick test_timeline_truncation;
    Alcotest.test_case "timeline filter" `Quick test_timeline_filter;
    Alcotest.test_case "loc ordering and pp" `Quick test_loc_order;
    Alcotest.test_case "loc sets dedupe" `Quick test_loc_set;
    prop_loc_to_string;
    Alcotest.test_case "var compare" `Quick test_var_compare;
    Alcotest.test_case "event accessors" `Quick test_event_accessors;
    Alcotest.test_case "trace growth" `Quick test_trace_growth;
    Alcotest.test_case "trace iteration" `Quick test_trace_iteration;
    Alcotest.test_case "of_list/to_list" `Quick test_roundtrip_list;
    Alcotest.test_case "sinks tee and record" `Quick test_sink_tee_and_record;
    Alcotest.test_case "tee degenerate cases" `Quick test_sink_tee_degenerate;
  ]
