(* coop-trace/v1 binary codec: round trips, cross-format agreement,
   corruption handling, format auto-detection. *)

open Coop_trace
open Coop_lang
open Coop_runtime

let events_equal (a : Event.t) (b : Event.t) =
  a.Event.tid = b.Event.tid && a.Event.op = b.Event.op
  && Loc.equal a.Event.loc b.Event.loc

let traces_equal a b =
  Trace.length a = Trace.length b
  && List.for_all2 events_equal (Trace.to_list a) (Trace.to_list b)

(* --- varints ----------------------------------------------------------- *)

let test_varint_extremes () =
  let roundtrip n =
    let buf = Buffer.create 10 in
    Wire.add_svarint buf n;
    let s = Buffer.contents buf in
    Alcotest.(check int)
      (Printf.sprintf "svarint %d" n)
      n
      (Wire.read_svarint s ~pos:(ref 0) ~base:0)
  in
  List.iter roundtrip
    [ 0; 1; -1; 63; 64; -64; -65; 123_456_789; -987_654_321; max_int; min_int ];
  let buf = Buffer.create 10 in
  Wire.add_uvarint buf max_int;
  let s = Buffer.contents buf in
  Alcotest.(check int) "uvarint max_int" max_int
    (Wire.read_uvarint s ~pos:(ref 0) ~base:0);
  Alcotest.check_raises "negative uvarint rejected"
    (Invalid_argument "Wire.add_uvarint: negative") (fun () ->
      Wire.add_uvarint (Buffer.create 4) (-1))

let test_varint_truncation () =
  let bad s =
    match Wire.read_uvarint s ~pos:(ref 0) ~base:0 with
    | _ -> Alcotest.fail "expected Parse_error"
    | exception Wire.Parse_error (_, _) -> ()
  in
  bad "";
  bad "\x80";
  bad "\xff\xff";
  (* 10 continuation bytes: over-long for a 63-bit int *)
  bad "\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"

(* --- binary round trips ------------------------------------------------ *)

let all_ops_trace () =
  let loc1 = Loc.make ~func:1 ~pc:7 ~line:12 in
  let loc2 = Loc.make ~func:0 ~pc:(-1) ~line:0 in
  Trace.of_list
    [ Event.make ~tid:0 ~op:(Event.Read (Event.Global 3)) ~loc:loc1;
      Event.make ~tid:1 ~op:(Event.Write (Event.Cell (2, 14))) ~loc:loc1;
      Event.make ~tid:0 ~op:(Event.Read (Event.Global (-7))) ~loc:loc2;
      Event.make ~tid:0 ~op:(Event.Acquire 5) ~loc:loc2;
      Event.make ~tid:0 ~op:(Event.Release 5) ~loc:loc2;
      Event.make ~tid:0 ~op:(Event.Fork 3) ~loc:loc1;
      Event.make ~tid:3 ~op:Event.Yield ~loc:Loc.none;
      Event.make ~tid:0 ~op:(Event.Join 3) ~loc:loc1;
      Event.make ~tid:2 ~op:(Event.Enter 0) ~loc:loc1;
      Event.make ~tid:2 ~op:(Event.Exit 0) ~loc:loc1;
      Event.make ~tid:2 ~op:Event.Atomic_begin ~loc:loc2;
      Event.make ~tid:2 ~op:Event.Atomic_end ~loc:loc2;
      Event.make ~tid:2 ~op:(Event.Out (-42)) ~loc:loc1;
      Event.make ~tid:2 ~op:(Event.Out min_int) ~loc:loc1;
      Event.make ~tid:2 ~op:(Event.Out max_int) ~loc:loc1 ]

let test_roundtrip_concrete () =
  let t = all_ops_trace () in
  let t' = Codec.of_string (Codec.to_string t) in
  Alcotest.(check bool) "binary round trip" true (traces_equal t t')

let test_scratch_reuse () =
  (* The decode hot path hands every callback the same mutable record —
     the scratch-event contract consumers must copy under. *)
  let s = Codec.to_string (all_ops_trace ()) in
  let first = ref None in
  let distinct = ref 0 in
  Codec.iter_string s (fun e ->
      match !first with
      | None -> first := Some e
      | Some e0 -> if not (e == e0) then incr distinct);
  Alcotest.(check int) "one scratch event" 0 !distinct

let test_save_load () =
  let path = Filename.temp_file "coop" ".ctr" in
  let prog = Compile.source "var x = 0; fn main() { x = 1; print(x); }" in
  let _, trace = Runner.record ~sched:Sched.sequential prog in
  Codec.save path trace;
  let trace' = Codec.load path in
  let trace'' = Serialize.load path in
  Sys.remove path;
  Alcotest.(check bool) "file round trip" true (traces_equal trace trace');
  Alcotest.(check bool) "Serialize.load auto-detects binary" true
    (traces_equal trace trace'')

let prop_roundtrip =
  Gen.to_alcotest
    (QCheck2.Test.make ~name:"binary round trip on random traces" ~count:200
       ~print:Gen.print_trace Gen.gen_trace (fun trace ->
         traces_equal trace (Codec.of_string (Codec.to_string trace))))

(* text -> binary -> text -> binary is a fixpoint: both encoders are
   deterministic functions of the event sequence alone. *)
let prop_cross_format =
  Gen.to_alcotest
    (QCheck2.Test.make ~name:"text/binary conversion idempotent" ~count:100
       ~print:Gen.print_trace Gen.gen_trace (fun trace ->
         let b1 = Codec.to_string trace in
         let via_text = Serialize.of_string (Serialize.to_string trace) in
         let b2 = Codec.to_string (Codec.of_string (Codec.to_string via_text)) in
         String.equal b1 b2))

(* --- symbol tables ----------------------------------------------------- *)

let test_symtab_binary_roundtrip () =
  let t = all_ops_trace () in
  let syms = Symtab.create () in
  (* Names the text grammar cannot carry: spaces, '@', arbitrary bytes. *)
  Symtab.set syms Symtab.Func 0 "main loop";
  Symtab.set syms Symtab.Func 1 "worker@pool";
  Symtab.set syms Symtab.Lock 5 "queue\tlock\n#1";
  Symtab.set syms Symtab.Global 3 "counter";
  Symtab.set syms Symtab.Array 2 "grid[0]";
  let s = Codec.to_string ~syms t in
  let syms' = Symtab.create () in
  let t' = Codec.of_string ~syms:syms' s in
  Alcotest.(check bool) "events intact" true (traces_equal t t');
  Alcotest.(check bool) "names byte-exact" true (Symtab.equal syms syms')

let test_symtab_text_rejects () =
  let t = all_ops_trace () in
  let check_bad name =
    let syms = Symtab.create () in
    Symtab.set syms Symtab.Func 0 name;
    match Serialize.to_string ~syms t with
    | _ -> Alcotest.fail ("text encode should reject name: " ^ name)
    | exception Serialize.Encode_error msg ->
        Alcotest.(check bool)
          "error points at convert/binary" true
          (let has sub =
             let n = String.length sub in
             let rec go i =
               i + n <= String.length msg
               && (String.sub msg i n = sub || go (i + 1))
             in
             go 0
           in
           has "convert" && has "binary")
  in
  check_bad "main loop";
  check_bad "worker@pool";
  check_bad "tab\there";
  check_bad ""

let test_symtab_text_roundtrip () =
  let t = all_ops_trace () in
  let syms = Symtab.create () in
  Symtab.set syms Symtab.Func 0 "main";
  Symtab.set syms Symtab.Lock 5 "forks[0]";
  let s = Serialize.to_string ~syms t in
  let syms' = Symtab.create () in
  let t' = Serialize.of_string ~syms:syms' s in
  Alcotest.(check bool) "events intact" true (traces_equal t t');
  Alcotest.(check bool) "pragmas round trip" true (Symtab.equal syms syms')

(* --- corruption and truncation ----------------------------------------- *)

let expect_parse_error label s =
  match Codec.of_string s with
  | _ -> Alcotest.fail ("expected Parse_error: " ^ label)
  | exception Codec.Parse_error (msg, pos) ->
      Alcotest.(check bool)
        (label ^ ": position in message") true
        (pos >= 0
        && (let has sub =
              let n = String.length sub in
              let rec go i =
                i + n <= String.length msg
                && (String.sub msg i n = sub || go (i + 1))
              in
              go 0
            in
            has "byte"))

let test_corrupt_inputs () =
  let valid = Codec.to_string (all_ops_trace ()) in
  expect_parse_error "empty" "";
  expect_parse_error "bad magic" "not a binary trace\n";
  expect_parse_error "truncated magic" (String.sub Codec.magic 0 4);
  expect_parse_error "missing EOS"
    (String.sub valid 0 (String.length valid - 1));
  expect_parse_error "mid-chunk cut" (String.sub valid 0 24);
  expect_parse_error "header only" Codec.magic;
  expect_parse_error "unsupported version" (Codec.magic ^ "\x02\x00");
  (* chunk of one unknown tag 0xff *)
  expect_parse_error "unknown tag" (Codec.magic ^ "\x01\x01\xff\x00");
  (* yield event referencing thread id 0 with no def record *)
  expect_parse_error "undefined thread id"
    (Codec.magic ^ "\x01\x05\x16\x00\x00\x00\x00\x00");
  (* name record whose length overruns the chunk *)
  expect_parse_error "overrun name record"
    (Codec.magic ^ "\x01\x04\x05\x00\x00\x7f\x00")

let test_text_errors_carry_line () =
  match Serialize.of_string "0 yield @ 0 0 0\nbroken" with
  | _ -> Alcotest.fail "expected Parse_error"
  | exception Serialize.Parse_error (msg, line) ->
      Alcotest.(check int) "line number" 2 line;
      Alcotest.(check bool) "message names the line" true
        (let has sub =
           let n = String.length sub in
           let rec go i =
             i + n <= String.length msg
             && (String.sub msg i n = sub || go (i + 1))
           in
           go 0
         in
         has "(line 2)")

(* --- format auto-detection --------------------------------------------- *)

let test_autodetect_sources () =
  let t = all_ops_trace () in
  let txt = Filename.temp_file "coop" ".tr" in
  let bin = Filename.temp_file "coop" ".ctr" in
  Serialize.save txt t;
  Serialize.save ~format:Serialize.Binary bin t;
  Alcotest.(check bool) "text detected" true
    (Source.format_of_file txt = Serialize.Text);
  Alcotest.(check bool) "binary detected" true
    (Source.format_of_file bin = Serialize.Binary);
  let from_txt = Source.record (Source.of_file txt) in
  let from_bin = Source.record (Source.of_file bin) in
  Alcotest.(check bool) "same events either way" true
    (traces_equal from_txt from_bin);
  (* channel sources sniff too, and a file source replays *)
  let ic = open_in_bin bin in
  let from_chan = Source.record (Source.of_channel ic) in
  close_in ic;
  Alcotest.(check bool) "channel auto-detects" true
    (traces_equal from_bin from_chan);
  let src = Source.of_file bin in
  Alcotest.(check int) "file source replays" (Trace.length t)
    (Source.count src + Source.count src - Trace.length t);
  (* empty file: text with zero events *)
  let empty = Filename.temp_file "coop" ".tr" in
  Alcotest.(check int) "empty file" 0 (Source.count (Source.of_file empty));
  Sys.remove txt;
  Sys.remove bin;
  Sys.remove empty

(* A file holding a strict prefix of the magic is a binary stream cut off
   mid-header: every auto-detecting entry point raises the one truncation
   error, at the byte where the stream ended. *)
let test_truncated_header_everywhere () =
  let path = Filename.temp_file "coop" ".ctr" in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (String.sub Codec.magic 0 4));
  let expected =
    Printf.sprintf "truncated header: not a complete %s stream (byte 4)"
      Codec.format_name
  in
  let raises name f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Parse_error" name
    | exception Serialize.Parse_error (msg, pos) ->
        Alcotest.(check string) (name ^ ": message") expected msg;
        Alcotest.(check int) (name ^ ": position") 4 pos
  in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      raises "Source.of_file" (fun () -> Source.count (Source.of_file path));
      raises "Source.of_channel" (fun () ->
          In_channel.with_open_bin path (fun ic ->
              Source.count (Source.of_channel ic)));
      raises "Source.format_of_file" (fun () ->
          ignore (Source.format_of_file path);
          0);
      raises "Serialize.load" (fun () -> Trace.length (Serialize.load path)))

(* --- cross-format verdict agreement ------------------------------------ *)

let violation_sig (v : Coop_core.Automaton.violation) =
  Format.asprintf "%d|%a|%a" v.Coop_core.Automaton.tid Loc.pp
    v.Coop_core.Automaton.loc Event.pp_op v.Coop_core.Automaton.op

let race_sig (r : Coop_race.Report.t) =
  Format.asprintf "%a|%d|%d|%a|%s" Event.pp_var r.Coop_race.Report.var
    r.Coop_race.Report.first_tid r.Coop_race.Report.second_tid Loc.pp
    r.Coop_race.Report.second_loc
    (match r.Coop_race.Report.witness with
    | Some w -> Coop_util.Json.to_string (Coop_provenance.Witness.to_json w)
    | None -> "-")

let pipeline_sig source =
  let r = Coop_pipeline.run ~witness:true source in
  String.concat "\n"
    ((Printf.sprintf "events %d" r.Coop_pipeline.events
     :: List.map race_sig r.Coop_pipeline.races)
    @ List.map violation_sig r.Coop_pipeline.violations)

(* The same recording analysed in memory, from a text file and from a
   binary file gives one verdict, witnesses included. *)
let test_formats_agree () =
  let prog = Compile.source (Coop_workloads.Micro.racy_counter ~threads:3 ~incs:4) in
  let _, trace = Runner.record ~sched:(Sched.random ~seed:5 ()) prog in
  let txt = Filename.temp_file "coop" ".tr" in
  let bin = Filename.temp_file "coop" ".ctr" in
  Serialize.save txt trace;
  Serialize.save ~format:Serialize.Binary bin trace;
  let reference = pipeline_sig (Source.of_trace trace) in
  List.iter
    (fun path ->
      Alcotest.(check string)
        (Printf.sprintf "verdict %s" (Filename.extension path))
        reference
        (pipeline_sig (Source.of_file path)))
    [ txt; bin ];
  Sys.remove txt;
  Sys.remove bin

let suite =
  [
    Alcotest.test_case "varint extremes" `Quick test_varint_extremes;
    Alcotest.test_case "varint truncation" `Quick test_varint_truncation;
    Alcotest.test_case "concrete binary round trip" `Quick
      test_roundtrip_concrete;
    Alcotest.test_case "decoder reuses one scratch event" `Quick
      test_scratch_reuse;
    Alcotest.test_case "save/load + auto-detect" `Quick test_save_load;
    Alcotest.test_case "symtab binary round trip" `Quick
      test_symtab_binary_roundtrip;
    Alcotest.test_case "symtab text rejects unsafe names" `Quick
      test_symtab_text_rejects;
    Alcotest.test_case "symtab text pragma round trip" `Quick
      test_symtab_text_roundtrip;
    Alcotest.test_case "corrupt inputs raise with position" `Quick
      test_corrupt_inputs;
    Alcotest.test_case "text errors carry line numbers" `Quick
      test_text_errors_carry_line;
    Alcotest.test_case "source auto-detection" `Quick test_autodetect_sources;
    Alcotest.test_case "truncated header: one error at every entry point"
      `Quick test_truncated_header_everywhere;
    Alcotest.test_case "formats agree" `Quick test_formats_agree;
    prop_roundtrip;
    prop_cross_format;
  ]
