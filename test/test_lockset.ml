open Coop_trace
open Coop_race

let loc = Loc.make ~func:0 ~pc:0 ~line:1

let ev tid op = Event.make ~tid ~op ~loc

let g0 = Event.Global 0

let test_virgin_exclusive () =
  let t = Lockset.create () in
  Alcotest.(check bool) "virgin" true (Lockset.state_of t g0 = Lockset.Virgin);
  ignore (Lockset.handle t (ev 0 (Event.Write g0)));
  Alcotest.(check bool) "exclusive" true (Lockset.state_of t g0 = Lockset.Exclusive 0);
  ignore (Lockset.handle t (ev 0 (Event.Read g0)));
  Alcotest.(check bool) "still exclusive" true
    (Lockset.state_of t g0 = Lockset.Exclusive 0)

let test_consistent_locking_clean () =
  let t =
    Trace.of_list
      [ ev 0 (Event.Acquire 0); ev 0 (Event.Write g0); ev 0 (Event.Release 0);
        ev 1 (Event.Acquire 0); ev 1 (Event.Write g0); ev 1 (Event.Release 0) ]
  in
  Alcotest.(check int) "no warnings" 0 (List.length (Lockset.run t))

let test_unprotected_sharing_flagged () =
  let t = Trace.of_list [ ev 0 (Event.Write g0); ev 1 (Event.Write g0) ] in
  Alcotest.(check int) "warned" 1 (List.length (Lockset.run t))

let test_inconsistent_locks_flagged () =
  let t =
    Trace.of_list
      [ ev 0 (Event.Acquire 0); ev 0 (Event.Write g0); ev 0 (Event.Release 0);
        ev 1 (Event.Acquire 1); ev 1 (Event.Write g0); ev 1 (Event.Release 1) ]
  in
  Alcotest.(check int) "empty intersection" 1 (List.length (Lockset.run t))

let test_warn_once_per_var () =
  let t =
    Trace.of_list
      [ ev 0 (Event.Write g0); ev 1 (Event.Write g0); ev 0 (Event.Write g0);
        ev 1 (Event.Write g0) ]
  in
  Alcotest.(check int) "single warning" 1 (List.length (Lockset.run t))

let test_read_shared_no_warning () =
  (* Multiple readers with no writer anywhere never warn (Shared state). *)
  let t =
    Trace.of_list
      [ ev 0 (Event.Read g0); ev 1 (Event.Read g0); ev 2 (Event.Read g0) ]
  in
  Alcotest.(check int) "read-only sharing ok" 0 (List.length (Lockset.run t));
  (* But an unprotected initializing write followed by foreign reads is a
     warning: the textbook initialization pattern is only safe when some
     ordering (e.g. fork) exists, which locksets cannot see. *)
  let t2 =
    Trace.of_list
      [ ev 0 (Event.Write g0); ev 1 (Event.Read g0); ev 2 (Event.Read g0) ]
  in
  Alcotest.(check int) "written-then-shared warns" 1 (List.length (Lockset.run t2))

let test_candidate_refinement () =
  let t = Lockset.create () in
  List.iter
    (fun e -> ignore (Lockset.handle t e))
    [ ev 0 (Event.Acquire 0); ev 0 (Event.Acquire 1); ev 0 (Event.Write g0);
      ev 0 (Event.Release 1); ev 0 (Event.Release 0);
      ev 1 (Event.Acquire 0); ev 1 (Event.Write g0) ];
  Alcotest.(check (option (list int))) "refined to common lock" (Some [ 0 ])
    (Lockset.candidate_locks t g0)

let test_coarser_than_fasttrack () =
  (* Fork/join ordering is invisible to locksets: FastTrack says race-free,
     Eraser warns. This is the precision gap the ablation measures. *)
  let t =
    Trace.of_list
      [ ev 0 (Event.Write g0); ev 0 (Event.Fork 1); ev 1 (Event.Write g0) ]
  in
  Alcotest.(check int) "fasttrack: clean" 0 (List.length (Fasttrack.run t));
  Alcotest.(check int) "lockset: warns" 1 (List.length (Lockset.run t))

let prop_sound_wrt_fasttrack =
  (* Whatever FastTrack flags, the lockset detector flags too (on feasible
     traces): HB-races are always lockset violations. *)
  Gen.to_alcotest
    (QCheck2.Test.make ~name:"lockset racy set contains fasttrack racy set"
       ~count:300 ~print:Gen.print_trace Gen.gen_trace (fun trace ->
         let ft = Fasttrack.racy_vars_of_trace trace in
         let ls = Lockset.racy_vars_of_trace trace in
         Event.Var_set.subset ft ls))

let suite =
  [
    Alcotest.test_case "virgin/exclusive transitions" `Quick test_virgin_exclusive;
    Alcotest.test_case "consistent locking clean" `Quick test_consistent_locking_clean;
    Alcotest.test_case "unprotected sharing flagged" `Quick test_unprotected_sharing_flagged;
    Alcotest.test_case "inconsistent locks flagged" `Quick test_inconsistent_locks_flagged;
    Alcotest.test_case "warn once per variable" `Quick test_warn_once_per_var;
    Alcotest.test_case "read-shared is silent" `Quick test_read_shared_no_warning;
    Alcotest.test_case "candidate refinement" `Quick test_candidate_refinement;
    Alcotest.test_case "coarser than fasttrack" `Quick test_coarser_than_fasttrack;
    prop_sound_wrt_fasttrack;
  ]
