(* Unit tests for [Interner]: dense first-appearance ids in three
   separate id spaces, the per-event cursor the fused chain reads, id
   stability as the tables grow mid-trace, the hash fallback for names
   too large for the direct tables, reverse lookups, and separate
   instances that share no ids. *)

open Coop_trace

let loc = Loc.make ~func:0 ~pc:0 ~line:1
let ev tid op = Event.make ~tid ~op ~loc

let note_all itn events = List.iter (Interner.note itn) events

(* The (tid, operand) cursor after each event. *)
let cursors itn events =
  List.map
    (fun e ->
      Interner.note itn e;
      (Interner.cur_tid itn, Interner.cur_operand itn))
    events

let raises_invalid f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

let test_first_appearance_ids () =
  let itn = Interner.create () in
  let got =
    cursors itn
      [
        ev 0 (Event.Fork 3);
        ev 3 (Event.Write (Event.Global 7));
        ev 3 (Event.Acquire 5);
        ev 3 (Event.Read (Event.Cell (2, 1)));
        ev 3 (Event.Release 5);
        ev 0 Event.Yield;
        ev 0 (Event.Read (Event.Global 7));
        ev 0 (Event.Acquire 1);
        ev 0 (Event.Join 3);
      ]
  in
  Alcotest.(check (list (pair int int)))
    "cursor per event"
    [
      (0, 1) (* thread 3 is the second tid seen *);
      (1, 0) (* g7: first variable *);
      (1, 0) (* lock 5: first lock, its own id space *);
      (1, 1) (* cell (2, 1): second variable *);
      (1, 0);
      (0, -1) (* operand-less *);
      (0, 0);
      (0, 1) (* lock 1: second lock *);
      (0, 1);
    ]
    got;
  Alcotest.(check (list int)) "counts" [ 2; 2; 2 ]
    [ Interner.n_vars itn; Interner.n_locks itn; Interner.n_tids itn ];
  Alcotest.(check bool) "var 1 is the cell" true
    (Interner.var_of_id itn 1 = Event.Cell (2, 1));
  Alcotest.(check (list int)) "lock and tid reverse lookups" [ 5; 1; 0; 3 ]
    [
      Interner.lock_of_id itn 0;
      Interner.lock_of_id itn 1;
      Interner.tid_of_id itn 0;
      Interner.tid_of_id itn 1;
    ]

(* Checkers keep id-indexed arrays across the whole stream, so an id
   handed out early must never change when later names grow the direct
   tables past their initial size. *)
let test_ids_stable_under_growth () =
  let itn = Interner.create () in
  for i = 0 to 9 do
    Interner.note itn (ev i (Event.Read (Event.Global (9 - i))))
  done;
  let before =
    List.init 10 (fun g -> Interner.var_id itn (Event.Global g))
  in
  Alcotest.(check (list int)) "first-appearance order"
    (List.init 10 (fun g -> 9 - g))
    before;
  for i = 10 to 299 do
    Interner.note itn (ev (i mod 37) (Event.Write (Event.Global i)));
    Interner.note itn (ev (i mod 37) (Event.Write (Event.Cell (i mod 5, i))));
    Interner.note itn (ev (i mod 37) (Event.Acquire i))
  done;
  Alcotest.(check (list int)) "ids assigned before growth are unchanged"
    before
    (List.init 10 (fun g -> Interner.var_id itn (Event.Global g)));
  Alcotest.(check int) "no variable assigned twice" (10 + (2 * 290))
    (Interner.n_vars itn);
  for id = 0 to Interner.n_vars itn - 1 do
    Alcotest.(check int) "var_of_id inverts var_id" id
      (Interner.var_id itn (Interner.var_of_id itn id))
  done;
  for id = 0 to Interner.n_locks itn - 1 do
    Alcotest.(check int) "lock_of_id inverts lock_id" id
      (Interner.lock_id itn (Interner.lock_of_id itn id))
  done

let test_reverse_lookups_reject_foreign_ids () =
  let itn = Interner.create () in
  note_all itn [ ev 0 (Event.Write (Event.Global 0)); ev 0 (Event.Acquire 0) ];
  Alcotest.(check bool) "var_of_id (-1)" true
    (raises_invalid (fun () -> Interner.var_of_id itn (-1)));
  Alcotest.(check bool) "var_of_id n_vars" true
    (raises_invalid (fun () -> Interner.var_of_id itn (Interner.n_vars itn)));
  Alcotest.(check bool) "lock_of_id n_locks" true
    (raises_invalid (fun () ->
         Interner.lock_of_id itn (Interner.n_locks itn)));
  Alcotest.(check bool) "tid_of_id n_tids" true
    (raises_invalid (fun () -> Interner.tid_of_id itn (Interner.n_tids itn)))

(* Hand-written traces may name handles far outside what the VM emits;
   those go through the hash fallback and must still get dense ids in
   the same first-appearance sequence as the direct-table names. *)
let test_out_of_range_names () =
  let itn = Interner.create () in
  let huge = 1 lsl 40 in
  let vars =
    [
      Event.Global 3;
      Event.Global huge;
      Event.Global (-5);
      Event.Cell (5000, 0);
      Event.Cell (1, huge);
      Event.Cell (1, 2);
    ]
  in
  Alcotest.(check (list int)) "dense across both paths" [ 0; 1; 2; 3; 4; 5 ]
    (List.map (Interner.var_id itn) vars);
  Alcotest.(check (list int)) "repeat lookups are stable" [ 0; 1; 2; 3; 4; 5 ]
    (List.map (Interner.var_id itn) vars);
  Alcotest.(check bool) "reverse lookups recover the names" true
    (List.mapi (fun id _ -> Interner.var_of_id itn id) vars = vars);
  Alcotest.(check int) "find_lock on an unseen huge handle" (-1)
    (Interner.find_lock itn huge);
  Alcotest.(check int) "find_lock on an unseen small handle" (-1)
    (Interner.find_lock itn 4);
  Alcotest.(check int) "find_lock never assigns" 0 (Interner.n_locks itn);
  (* Sequenced with [let]: list elements evaluate right to left. *)
  let l_huge = Interner.lock_id itn huge in
  let l_small = Interner.lock_id itn 4 in
  Alcotest.(check (list int)) "locks" [ 0; 1; 0; 1 ]
    [ l_huge; l_small; Interner.lock_id itn huge; Interner.find_lock itn 4 ];
  Alcotest.(check int) "find_lock sees the huge lock" 0
    (Interner.find_lock itn huge);
  let t_huge = Interner.tid_id itn huge in
  let t_neg = Interner.tid_id itn (-1) in
  Alcotest.(check (list int)) "tids" [ 0; 1; 0 ]
    [ t_huge; t_neg; Interner.tid_id itn huge ];
  Alcotest.(check int) "huge tid round trip" huge (Interner.tid_of_id itn 0)

(* Interners keep no state outside their instance: two fed different
   streams in alternation each mint exactly the ids it mints alone,
   hash-fallback names included. *)
let test_interleaved_instances () =
  let a_events =
    [
      ev 0 (Event.Fork 1);
      ev 1 (Event.Write (Event.Global 2));
      ev 1 (Event.Acquire 9);
      ev 0 (Event.Read (Event.Global (1 lsl 40)));
      ev 1 (Event.Release 9);
    ]
  in
  let b_events =
    [
      ev 0 (Event.Fork 6);
      ev 6 (Event.Read (Event.Cell (0, 3)));
      ev 6 (Event.Acquire (1 lsl 40));
      ev 6 (Event.Write (Event.Global 5));
      ev 0 (Event.Write (Event.Global 2));
    ]
  in
  let solo events = cursors (Interner.create ()) events in
  let a = Interner.create () and b = Interner.create () in
  let got_a, got_b =
    List.split
      (List.map2
         (fun ea eb ->
           let ca = cursors a [ ea ] in
           let cb = cursors b [ eb ] in
           (List.hd ca, List.hd cb))
         a_events b_events)
  in
  Alcotest.(check (list (pair int int))) "first instance = solo run"
    (solo a_events) got_a;
  Alcotest.(check (list (pair int int))) "second instance = solo run"
    (solo b_events) got_b;
  Alcotest.(check (list int)) "first instance's table sizes" [ 2; 1; 2 ]
    [ Interner.n_vars a; Interner.n_locks a; Interner.n_tids a ];
  Alcotest.(check (list int)) "second instance's table sizes" [ 3; 1; 2 ]
    [ Interner.n_vars b; Interner.n_locks b; Interner.n_tids b ]

let suite =
  [
    Alcotest.test_case "dense ids in first-appearance order" `Quick
      test_first_appearance_ids;
    Alcotest.test_case "ids stable under mid-trace growth" `Quick
      test_ids_stable_under_growth;
    Alcotest.test_case "reverse lookups reject foreign ids" `Quick
      test_reverse_lookups_reject_foreign_ids;
    Alcotest.test_case "out-of-range names take the hash fallback" `Quick
      test_out_of_range_names;
    Alcotest.test_case "interleaved instances share no ids" `Quick
      test_interleaved_instances;
  ]
