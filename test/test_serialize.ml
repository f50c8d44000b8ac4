open Coop_trace
open Coop_lang
open Coop_runtime

let events_equal (a : Event.t) (b : Event.t) =
  a.Event.tid = b.Event.tid && a.Event.op = b.Event.op
  && Loc.equal a.Event.loc b.Event.loc

let traces_equal a b =
  Trace.length a = Trace.length b
  && List.for_all2 events_equal (Trace.to_list a) (Trace.to_list b)

let test_roundtrip_concrete () =
  let loc = Loc.make ~func:1 ~pc:7 ~line:12 in
  let es =
    [ Event.make ~tid:0 ~op:(Event.Read (Event.Global 3)) ~loc;
      Event.make ~tid:1 ~op:(Event.Write (Event.Cell (2, 14))) ~loc;
      Event.make ~tid:0 ~op:(Event.Acquire 5) ~loc;
      Event.make ~tid:0 ~op:(Event.Release 5) ~loc;
      Event.make ~tid:0 ~op:(Event.Fork 3) ~loc;
      Event.make ~tid:0 ~op:(Event.Join 3) ~loc;
      Event.make ~tid:2 ~op:Event.Yield ~loc;
      Event.make ~tid:2 ~op:(Event.Enter 0) ~loc;
      Event.make ~tid:2 ~op:(Event.Exit 0) ~loc;
      Event.make ~tid:2 ~op:Event.Atomic_begin ~loc;
      Event.make ~tid:2 ~op:Event.Atomic_end ~loc;
      Event.make ~tid:2 ~op:(Event.Out (-42)) ~loc ]
  in
  let t = Trace.of_list es in
  let t' = Serialize.of_string (Serialize.to_string t) in
  Alcotest.(check bool) "round trip" true (traces_equal t t')

let test_roundtrip_real_trace () =
  let prog = Compile.source (Coop_workloads.Micro.producer_consumer ~items:2) in
  let _, trace = Runner.record ~sched:(Sched.random ~seed:5 ()) prog in
  let trace' = Serialize.of_string (Serialize.to_string trace) in
  Alcotest.(check bool) "real trace round trips" true (traces_equal trace trace');
  (* Analyses agree on the reloaded trace. *)
  let r = Coop_core.Cooperability.check trace in
  let r' = Coop_core.Cooperability.check trace' in
  Alcotest.(check int) "same violations"
    (List.length r.Coop_core.Cooperability.violations)
    (List.length r'.Coop_core.Cooperability.violations)

let test_save_load () =
  let path = Filename.temp_file "coop" ".trace" in
  let prog = Compile.source "var x = 0; fn main() { x = 1; print(x); }" in
  let _, trace = Runner.record ~sched:Sched.sequential prog in
  Serialize.save path trace;
  let trace' = Serialize.load path in
  Sys.remove path;
  Alcotest.(check bool) "file round trip" true (traces_equal trace trace')

let test_parse_errors () =
  let bad input =
    match Serialize.of_string input with
    | _ -> Alcotest.fail ("expected parse error for: " ^ input)
    | exception Serialize.Parse_error (_, _) -> ()
  in
  bad "nonsense";
  bad "0 rd";
  bad "0 rd g1";
  bad "0 rd g1 @ 1 2";
  bad "0 frob 3 @ 0 0 0";
  bad "x rd g1 @ 0 0 0"

let test_blank_lines_ignored () =
  let t = Serialize.of_string "\n0 yield @ 0 0 1\n\n\n" in
  Alcotest.(check int) "one event" 1 (Trace.length t)

let prop_roundtrip =
  Gen.to_alcotest
    (QCheck2.Test.make ~name:"serialize round trip on random traces"
       ~count:200 ~print:Gen.print_trace Gen.gen_trace (fun trace ->
         traces_equal trace (Serialize.of_string (Serialize.to_string trace))))

let suite =
  [
    Alcotest.test_case "concrete round trip" `Quick test_roundtrip_concrete;
    Alcotest.test_case "real trace round trip" `Quick test_roundtrip_real_trace;
    Alcotest.test_case "save/load" `Quick test_save_load;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "blank lines ignored" `Quick test_blank_lines_ignored;
    prop_roundtrip;
  ]
