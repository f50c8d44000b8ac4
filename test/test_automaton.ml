open Coop_trace
open Coop_core

(* A tiny vocabulary for driving the automaton: symbolic mover sequences
   rendered as concrete events. Global 0 is racy (non mover), Global 1 is
   race-free (both mover). *)
type sym =
  | R
  | L
  | B
  | N
  | Y

let racy = Event.Var_set.singleton (Event.Global 0)

let event_of = function
  | R -> Event.Acquire 0
  | L -> Event.Release 0
  | B -> Event.Read (Event.Global 1)
  | N -> Event.Write (Event.Global 0)
  | Y -> Event.Yield

let drive tid syms =
  let a = Automaton.create () in
  List.iter
    (fun s ->
      ignore
        (Automaton.step a ~racy
           (Event.make ~tid ~op:(event_of s) ~loc:Loc.none)))
    syms;
  List.length (Automaton.violations a)

let check msg syms expected = Alcotest.(check int) msg expected (drive 0 syms)

let test_reducible_patterns () =
  check "empty" [] 0;
  check "R* N L*" [ R; R; N; L; L ] 0;
  check "R* L*" [ R; R; L; L ] 0;
  check "both movers anywhere" [ B; R; B; N; B; L; B ] 0;
  check "single N" [ N ] 0;
  check "single L" [ L ] 0;
  check "single R" [ R ] 0

let test_irreducible_patterns () =
  check "N N" [ N; N ] 1;
  check "L R" [ L; R ] 1;
  check "N R" [ N; R ] 1;
  check "L N" [ L; N ] 1;
  check "R N L N" [ R; N; L; N ] 1;
  check "N N N" [ N; N; N ] 2

let test_yield_resets () =
  check "N Y N" [ N; Y; N ] 0;
  check "L Y R" [ L; Y; R ] 0;
  check "R N L Y R N L" [ R; N; L; Y; R; N; L ] 0;
  check "yield mid-pattern" [ R; N; Y; N; L ] 0

let test_violation_recovery () =
  (* After a violation the automaton behaves as if a yield was inserted. *)
  check "N N then clean" [ N; N; L; B ] 1;
  check "L R then N ok" [ L; R; B; N; L ] 1

let test_threads_independent () =
  let a = Automaton.create () in
  let step tid s =
    ignore
      (Automaton.step a ~racy (Event.make ~tid ~op:(event_of s) ~loc:Loc.none))
  in
  step 0 N;
  (* thread 0 in Post *)
  step 1 R;
  (* thread 1 unaffected *)
  Alcotest.(check bool) "t0 post" true (Automaton.phase a 0 = Automaton.Post);
  Alcotest.(check bool) "t1 pre" true (Automaton.phase a 1 = Automaton.Pre);
  step 0 N;
  Alcotest.(check int) "only t0 violates" 1 (List.length (Automaton.violations a))

let test_violation_fields () =
  let a = Automaton.create () in
  let loc = Loc.make ~func:3 ~pc:7 ~line:42 in
  ignore (Automaton.step a ~racy (Event.make ~tid:5 ~op:(Event.Write (Event.Global 0)) ~loc:Loc.none));
  match Automaton.step a ~racy (Event.make ~tid:5 ~op:(Event.Write (Event.Global 0)) ~loc) with
  | Some v ->
      Alcotest.(check int) "tid" 5 v.Automaton.tid;
      Alcotest.(check bool) "loc" true (Loc.equal loc v.Automaton.loc);
      Alcotest.(check bool) "mover" true (v.Automaton.mover = Mover.Non)
  | None -> Alcotest.fail "expected violation"

(* Reference: a segment (between yields) is reducible iff it matches
   (R|B)* (N|L)? (L|B)*. *)
let segment_reducible syms =
  let rec post = function
    | [] -> true
    | (L | B) :: rest -> post rest
    | (R | N) :: _ -> false
    | Y :: _ -> assert false
  in
  let rec pre = function
    | [] -> true
    | (R | B) :: rest -> pre rest
    | (N | L) :: rest -> post rest
    | Y :: _ -> assert false
  in
  pre syms

let split_segments syms =
  let rec go acc cur = function
    | [] -> List.rev (List.rev cur :: acc)
    | Y :: rest -> go (List.rev cur :: acc) [] rest
    | s :: rest -> go acc (s :: cur) rest
  in
  go [] [] syms

let gen_syms =
  QCheck2.Gen.(list_size (int_bound 20) (oneofl [ R; L; B; N; Y ]))

let prop_matches_regex =
  Gen.to_alcotest
    (QCheck2.Test.make
       ~name:"automaton accepts exactly (R|B)*(N|L)?(L|B)* per segment"
       ~count:1000 gen_syms (fun syms ->
         let violations = drive 0 syms in
         let all_ok = List.for_all segment_reducible (split_segments syms) in
         (violations = 0) = all_ok))

let suite =
  [
    Alcotest.test_case "reducible patterns" `Quick test_reducible_patterns;
    Alcotest.test_case "irreducible patterns" `Quick test_irreducible_patterns;
    Alcotest.test_case "yield resets" `Quick test_yield_resets;
    Alcotest.test_case "violation recovery" `Quick test_violation_recovery;
    Alcotest.test_case "threads independent" `Quick test_threads_independent;
    Alcotest.test_case "violation fields" `Quick test_violation_fields;
    prop_matches_regex;
  ]
