(* Unit and property tests for the zero-dependency Coop_util.Json codec:
   print/parse round trips on random documents, float edge cases, string
   escaping (control characters, \uXXXX incl. surrogate pairs), and
   deeply nested arrays. *)

open Coop_util

(* Structural equality with bit-exact floats: [-0.] and [0.] compare
   equal under [compare], but the codec distinguishes them and the round
   trip must preserve that. *)
let rec equal a b =
  match (a, b) with
  | Json.Null, Json.Null -> true
  | Json.Bool x, Json.Bool y -> x = y
  | Json.Int x, Json.Int y -> x = y
  | Json.Float x, Json.Float y ->
      Int64.bits_of_float x = Int64.bits_of_float y
  | Json.String x, Json.String y -> String.equal x y
  | Json.List x, Json.List y ->
      List.length x = List.length y && List.for_all2 equal x y
  | Json.Obj x, Json.Obj y ->
      List.length x = List.length y
      && List.for_all2
           (fun (k, v) (k', v') -> String.equal k k' && equal v v')
           x y
  | _ -> false

let roundtrip v =
  match Json.of_string (Json.to_string v) with
  | Ok v' -> equal v v'
  | Error _ -> false

let check_roundtrip what v =
  match Json.of_string (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) what true (equal v v')
  | Error e -> Alcotest.fail (what ^ ": " ^ e)

let test_float_edge_cases () =
  List.iter
    (fun f -> check_roundtrip (Printf.sprintf "float %h" f) (Json.Float f))
    [ 0.; -0.; 1.; -1.5; 3.141592653589793; 1e-300; 1.5e20; -2.5e-12;
      Float.min_float; Float.max_float; 4.9406564584124654e-324 (* subnormal *);
      0.1; 1. /. 3.; -123456.789 ];
  (* Non-finite floats have no JSON representation: they print as null
     and deliberately do not round trip. *)
  Alcotest.(check bool) "nan prints as null" true
    (match Json.of_string (Json.to_string (Json.Float Float.nan)) with
    | Ok Json.Null -> true
    | _ -> false)

let test_int_edge_cases () =
  List.iter
    (fun i -> check_roundtrip (string_of_int i) (Json.Int i))
    [ 0; 1; -1; max_int; min_int; 1_000_000_007 ]

let test_string_escapes () =
  List.iter
    (fun s -> check_roundtrip (String.escaped s) (Json.String s))
    [ ""; "plain"; "with \"quotes\" and \\backslash\\";
      "newline\ntab\treturn\r"; "\b\012 backspace and formfeed";
      "\x01\x02\x1f low control chars"; "\x7f\x80\xff high bytes";
      String.init 32 Char.chr ]

let test_unicode_escapes () =
  let parses input expect =
    match Json.of_string input with
    | Ok (Json.String s) -> Alcotest.(check string) input expect s
    | Ok _ -> Alcotest.fail (input ^ ": not a string")
    | Error e -> Alcotest.fail (input ^ ": " ^ e)
  in
  parses {|"\u0041"|} "A";
  parses {|"\u00e9"|} "\xc3\xa9" (* e-acute, 2-byte UTF-8 *);
  parses {|"\u2028"|} "\xe2\x80\xa8" (* line separator, 3-byte *);
  parses {|"\uFFFD"|} "\xef\xbf\xbd" (* uppercase hex accepted *);
  parses {|"\ud83d\ude00"|} "\xf0\x9f\x98\x80" (* surrogate pair: emoji *);
  parses {|"\u0000"|} "\x00";
  let rejects input =
    match Json.of_string input with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail ("expected parse error for " ^ input)
  in
  rejects {|"\uzzzz"|};
  rejects {|"\u12"|} (* truncated *);
  rejects {|"\ud800"|} (* lone high surrogate *);
  rejects {|"\udc00"|} (* lone low surrogate *);
  rejects {|"\ud83dA"|} (* high surrogate + non-surrogate *)

let test_control_chars_escaped_on_output () =
  (* The printer must emit \u00XX for control characters, never the raw
     byte (RFC 8259 requires it). *)
  let s = Json.to_string (Json.String "\x01") in
  Alcotest.(check bool) "raw control byte absent" true
    (not (String.contains s '\x01'));
  Alcotest.(check bool) "escape present" true
    (let re = "\\u0001" in
     let rec find i =
       i + String.length re <= String.length s
       && (String.sub s i (String.length re) = re || find (i + 1))
     in
     find 0)

let test_deeply_nested_arrays () =
  let depth = 1000 in
  let rec build n = if n = 0 then Json.Int 7 else Json.List [ build (n - 1) ] in
  check_roundtrip "1000-deep nested array" (build depth);
  let rec count = function
    | Json.List [ v ] -> 1 + count v
    | Json.Int 7 -> 0
    | _ -> Alcotest.fail "wrong shape after round trip"
  in
  match Json.of_string (Json.to_string (build depth)) with
  | Ok v -> Alcotest.(check int) "depth preserved" depth (count v)
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Random-document round-trip property                                 *)
(* ------------------------------------------------------------------ *)

let gen_finite_float =
  QCheck2.Gen.map
    (fun f -> if Float.is_finite f then f else 0.)
    QCheck2.Gen.float

(* Any byte sequence: printable, control and non-ASCII bytes all round
   trip (control chars via \u00XX, high bytes as raw UTF-8-agnostic
   bytes). *)
let gen_raw_string =
  QCheck2.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_bound 12))

let gen_json =
  QCheck2.Gen.(
    sized
    @@ fix (fun self n ->
           let leaf =
             oneof
               [ return Json.Null;
                 map (fun b -> Json.Bool b) bool;
                 map (fun i -> Json.Int i) int;
                 map (fun f -> Json.Float f) gen_finite_float;
                 map (fun s -> Json.String s) gen_raw_string ]
           in
           if n = 0 then leaf
           else
             oneof
               [ leaf;
                 map (fun l -> Json.List l)
                   (list_size (int_bound 4) (self (n / 2)));
                 map (fun l -> Json.Obj l)
                   (list_size (int_bound 4)
                      (pair gen_raw_string (self (n / 2)))) ]))

let prop_roundtrip =
  Gen.to_alcotest
    (QCheck2.Test.make ~name:"print/parse round trip on random documents"
       ~count:500
       ~print:(fun v -> Json.to_string v)
       gen_json roundtrip)

let suite =
  [
    Alcotest.test_case "float edge cases" `Quick test_float_edge_cases;
    Alcotest.test_case "int edge cases" `Quick test_int_edge_cases;
    Alcotest.test_case "string escapes" `Quick test_string_escapes;
    Alcotest.test_case "unicode \\u escapes" `Quick test_unicode_escapes;
    Alcotest.test_case "control chars escaped on output" `Quick
      test_control_chars_escaped_on_output;
    Alcotest.test_case "deeply nested arrays" `Quick test_deeply_nested_arrays;
    prop_roundtrip;
  ]
