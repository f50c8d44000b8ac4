open Coop_trace
open Coop_race

let loc pc = Loc.make ~func:0 ~pc ~line:pc

let ev ?(pc = 0) tid op = Event.make ~tid ~op ~loc:(loc pc)

let g0 = Event.Global 0

let race_count trace = List.length (Fasttrack.run trace)

let test_ww_race () =
  let t = Trace.of_list [ ev 0 (Event.Write g0); ev 1 (Event.Write g0) ] in
  let races = Fasttrack.run t in
  Alcotest.(check int) "one race" 1 (List.length races);
  match races with
  | [ r ] ->
      Alcotest.(check bool) "kind" true (r.Report.kind = Report.Write_write);
      Alcotest.(check int) "first" 0 r.Report.first_tid;
      Alcotest.(check int) "second" 1 r.Report.second_tid
  | _ -> Alcotest.fail "expected exactly one race"

let test_wr_race () =
  let t = Trace.of_list [ ev 0 (Event.Write g0); ev 1 (Event.Read g0) ] in
  match Fasttrack.run t with
  | [ r ] -> Alcotest.(check bool) "write-read" true (r.Report.kind = Report.Write_read)
  | _ -> Alcotest.fail "expected one race"

let test_rw_race () =
  let t = Trace.of_list [ ev 0 (Event.Read g0); ev 1 (Event.Write g0) ] in
  match Fasttrack.run t with
  | [ r ] -> Alcotest.(check bool) "read-write" true (r.Report.kind = Report.Read_write)
  | _ -> Alcotest.fail "expected one race"

let test_rr_no_race () =
  let t = Trace.of_list [ ev 0 (Event.Read g0); ev 1 (Event.Read g0) ] in
  Alcotest.(check int) "reads never race" 0 (race_count t)

let test_lock_protects () =
  let t =
    Trace.of_list
      [ ev 0 (Event.Acquire 0); ev 0 (Event.Write g0); ev 0 (Event.Release 0);
        ev 1 (Event.Acquire 0); ev 1 (Event.Write g0); ev 1 (Event.Release 0) ]
  in
  Alcotest.(check int) "lock orders accesses" 0 (race_count t)

let test_different_locks_race () =
  let t =
    Trace.of_list
      [ ev 0 (Event.Acquire 0); ev 0 (Event.Write g0); ev 0 (Event.Release 0);
        ev 1 (Event.Acquire 1); ev 1 (Event.Write g0); ev 1 (Event.Release 1) ]
  in
  Alcotest.(check int) "different locks do not order" 1 (race_count t)

let test_fork_orders () =
  let t =
    Trace.of_list
      [ ev 0 (Event.Write g0); ev 0 (Event.Fork 1); ev 1 (Event.Write g0) ]
  in
  Alcotest.(check int) "fork creates HB edge" 0 (race_count t)

let test_join_orders () =
  let t =
    Trace.of_list
      [ ev 0 (Event.Fork 1); ev 1 (Event.Write g0); ev 0 (Event.Join 1);
        ev 0 (Event.Read g0) ]
  in
  Alcotest.(check int) "join creates HB edge" 0 (race_count t)

let test_no_join_races () =
  let t =
    Trace.of_list
      [ ev 0 (Event.Fork 1); ev 1 (Event.Write g0); ev 0 (Event.Read g0) ]
  in
  Alcotest.(check int) "unjoined child races" 1 (race_count t)

let test_same_thread_never_races () =
  let t =
    Trace.of_list
      [ ev 0 (Event.Write g0); ev 0 (Event.Read g0); ev 0 (Event.Write g0) ]
  in
  Alcotest.(check int) "program order" 0 (race_count t)

let test_read_share_promotion () =
  (* Two concurrent reads (promotes to a read vector), then an ordered write
     by a third thread must still detect the race with both readers'
     history. *)
  let t =
    Trace.of_list
      [ ev 0 (Event.Fork 1); ev 0 (Event.Fork 2);
        ev 1 (Event.Read g0); ev 2 (Event.Read g0);
        ev 0 (Event.Write g0) ]
  in
  (* The write races with both unjoined readers; FastTrack reports at least
     one read-write race. *)
  let races = Fasttrack.run t in
  Alcotest.(check bool) "read-share then write races" true
    (List.exists (fun r -> r.Report.kind = Report.Read_write) races)

let test_racy_vars_dedup () =
  let t =
    Trace.of_list
      [ ev 0 (Event.Write g0); ev 1 (Event.Write g0); ev 1 (Event.Write g0) ]
  in
  let vars = Fasttrack.racy_vars_of_trace t in
  Alcotest.(check int) "one racy var" 1 (Event.Var_set.cardinal vars)

let test_release_publish () =
  (* Classic message-passing: write, release; acquire, read. *)
  let t =
    Trace.of_list
      [ ev 0 (Event.Write g0); ev 0 (Event.Acquire 0); ev 0 (Event.Release 0);
        ev 1 (Event.Acquire 0); ev 1 (Event.Read g0) ]
  in
  (* The write is before the release, so the acquiring reader is ordered. *)
  Alcotest.(check int) "publication via lock" 0 (race_count t)

(* --- Naive oracle ------------------------------------------------------- *)

let test_naive_happens_before () =
  let t =
    Trace.of_list
      [ ev 0 (Event.Write g0); ev 0 (Event.Fork 1); ev 1 (Event.Read g0) ]
  in
  Alcotest.(check bool) "program order" true (Naive_hb.happens_before t 0 1);
  Alcotest.(check bool) "fork edge" true (Naive_hb.happens_before t 0 2);
  Alcotest.(check bool) "same thread" true (Naive_hb.happens_before t 1 2)

let test_naive_race_pairs () =
  let t = Trace.of_list [ ev 0 (Event.Write g0); ev 1 (Event.Write g0) ] in
  Alcotest.(check int) "one pair" 1 (List.length (Naive_hb.race_pairs t))

let prop_agreement =
  Gen.to_alcotest
    (QCheck2.Test.make ~name:"fasttrack agrees with naive HB oracle" ~count:500
       ~print:Gen.print_trace Gen.gen_trace (fun trace ->
         let ft = Fasttrack.racy_vars_of_trace trace in
         let naive = Naive_hb.racy_vars trace in
         Event.Var_set.equal ft naive))

(* --- read-share churn ----------------------------------------------------

   Streams that promote a variable's reads to a vector clock, reset it
   with a write and promote it again, over a few threads that order
   themselves through two shared locks. Every access sits between an
   acquire and a release of its thread's private lock, so each access
   has its own epoch and FastTrack's same-epoch shortcuts never apply:
   the reports are then exactly what the FastTrack rules give over the
   happens-before order of [Naive_hb] — a read races with the last write
   before it, a write with the last write and with any read since it. *)

let gen_churn =
  let module G = QCheck2.Gen in
  let open G in
  let* threads = int_range 3 5 in
  let* vars = int_range 1 2 in
  let action =
    let* tid = int_bound (threads - 1) in
    let* x = int_bound (vars - 1) in
    let* l = int_bound 1 in
    frequency
      [ (6, return (tid, `Read x)); (2, return (tid, `Write x));
        (3, return (tid, `Sync l)) ]
  in
  let+ acts = list_size (int_range 10 60) action in
  let pc = ref 0 in
  let ev tid op = incr pc; Event.make ~tid ~op ~loc:(loc !pc) in
  let access tid op =
    [ ev tid (Event.Acquire (100 + tid)); ev tid op;
      ev tid (Event.Release (100 + tid)) ]
  in
  Trace.of_list
    (List.concat_map
       (fun (tid, a) ->
         match a with
         | `Read x -> access tid (Event.Read (Event.Global x))
         | `Write x -> access tid (Event.Write (Event.Global x))
         | `Sync l -> [ ev tid (Event.Acquire l); ev tid (Event.Release l) ])
       acts)

(* The FastTrack rules over [Naive_hb]'s clocks: per exposing access (by
   index), its kind and the threads whose access it races with. *)
let churn_oracle trace =
  let clocks = Naive_hb.event_clocks trace in
  let tid i = (Trace.get trace i).Event.tid in
  let hb i j =
    Vclock.Persistent.(get clocks.(i) (tid i) <= get clocks.(j) (tid i))
  in
  let last_write = Hashtbl.create 4 and reads = Hashtbl.create 4 in
  let out = ref [] in
  Trace.iteri
    (fun j (e : Event.t) ->
      let write_race x kind =
        match Hashtbl.find_opt last_write x with
        | Some w when not (hb w j) -> out := (j, kind, [ tid w ]) :: !out
        | _ -> ()
      in
      match e.op with
      | Event.Read x ->
          write_race x Report.Write_read;
          Hashtbl.replace reads x
            (j :: Option.value ~default:[] (Hashtbl.find_opt reads x))
      | Event.Write x ->
          write_race x Report.Write_write;
          let since = Option.value ~default:[] (Hashtbl.find_opt reads x) in
          (match List.filter (fun i -> not (hb i j)) since with
          | [] -> ()
          | rs -> out := (j, Report.Read_write, List.map tid rs) :: !out);
          Hashtbl.replace last_write x j;
          Hashtbl.replace reads x []
      | _ -> ())
    trace;
  List.rev !out

let prop_churn_oracle =
  Gen.to_alcotest
    (QCheck2.Test.make
       ~name:"read-share churn: reports = FastTrack rules over naive HB"
       ~count:500 ~print:Gen.print_trace gen_churn (fun trace ->
         let races = Fasttrack.run trace in
         let expected = churn_oracle trace in
         (* An access's index is its pc minus one. *)
         List.length races = List.length expected
         && List.for_all2
              (fun (r : Report.t) (j, kind, firsts) ->
                r.Report.second_loc.Loc.pc - 1 = j
                && r.Report.kind = kind
                && List.mem r.Report.first_tid firsts)
              races expected
         && Event.Var_set.equal (Report.racy_vars races)
              (Naive_hb.racy_vars trace)))

(* Detectors keep no state outside their instance: two stepped in
   alternation over different streams each report, witnesses included,
   what it reports alone. *)
let prop_churn_interleaved =
  Gen.to_alcotest
    (QCheck2.Test.make
       ~name:"read-share churn: interleaved detectors = solo runs" ~count:300
       ~print:(fun (t, u) ->
         Gen.print_trace t ^ "\n--- and ---\n" ^ Gen.print_trace u)
       QCheck2.Gen.(pair gen_churn gen_churn)
       (fun (t, u) ->
         let solo tr = Analysis.run (Fasttrack.analysis ~witness:true ()) tr in
         let a = Fasttrack.analysis ~witness:true () in
         let b = Fasttrack.analysis ~witness:true () in
         for i = 0 to max (Trace.length t) (Trace.length u) - 1 do
           if i < Trace.length t then Analysis.step a (Trace.get t i);
           if i < Trace.length u then Analysis.step b (Trace.get u i)
         done;
         Analysis.finalize a = solo t && Analysis.finalize b = solo u))

let suite =
  [
    Alcotest.test_case "write-write race" `Quick test_ww_race;
    Alcotest.test_case "write-read race" `Quick test_wr_race;
    Alcotest.test_case "read-write race" `Quick test_rw_race;
    Alcotest.test_case "read-read no race" `Quick test_rr_no_race;
    Alcotest.test_case "lock protects" `Quick test_lock_protects;
    Alcotest.test_case "different locks race" `Quick test_different_locks_race;
    Alcotest.test_case "fork orders" `Quick test_fork_orders;
    Alcotest.test_case "join orders" `Quick test_join_orders;
    Alcotest.test_case "unjoined child races" `Quick test_no_join_races;
    Alcotest.test_case "same thread never races" `Quick test_same_thread_never_races;
    Alcotest.test_case "read-share promotion" `Quick test_read_share_promotion;
    Alcotest.test_case "racy vars dedupe" `Quick test_racy_vars_dedup;
    Alcotest.test_case "publication via lock" `Quick test_release_publish;
    Alcotest.test_case "naive happens-before" `Quick test_naive_happens_before;
    Alcotest.test_case "naive race pairs" `Quick test_naive_race_pairs;
    prop_agreement;
    prop_churn_oracle;
    prop_churn_interleaved;
  ]
