(* The witness differential suite: every verdict's evidence is real and
   identical in every execution mode.

   Three families of properties. (1) Replay: every race witness the
   detectors capture passes the happens-before self-check — the two
   positions hold the claimed accesses and the vector-clock oracle
   confirms them unordered ([Coop_race.Witness_check]). (2) Identity:
   witnesses and commit causes are byte-identical between the single-pass
   engine and the two-pass oracle — the structural equalities below
   include the witness and cause fields, so a drift in either mode's seq
   numbering or commit tracking fails here.
   (3) Determinism: inferred-yield witnesses do not depend on the pool
   size fanning the schedule portfolio out. Plus units for the CLI's
   --witness mode parser and the default (witness-off) hot path. *)

let gen_trace = Gen.gen_trace
let gen_late_trace = Gen.gen_late_trace
let print_trace = Gen.print_trace
let atomize = Gen.atomize

let to_alcotest = Gen.to_alcotest
open QCheck2
open Coop_trace
open Coop_core
module Witness = Coop_provenance.Witness
module Witness_check = Coop_race.Witness_check

let prop gen name count f =
  to_alcotest (Test.make ~name ~count ~print:print_trace gen f)

(* --- Replay: witnesses survive the HB oracle -------------------------- *)

let races_replay trace =
  let r = Cooperability.check ~witness:true trace in
  match Witness_check.check_all trace r.Cooperability.races with
  | Ok n -> n = List.length r.Cooperability.races
  | Error e -> Test.fail_report e

let races_replay_on_traces =
  prop gen_trace "every race witness replays HB-unordered (random traces)" 40
    races_replay

let races_replay_on_late_traces =
  prop gen_late_trace
    "every race witness replays HB-unordered (late-knowledge traces)" 40
    races_replay

(* --- Identity: the same evidence in every mode ------------------------ *)

(* Report.t and Automaton.violation embed the witness and cause, so the
   structural comparisons pin them too. Both single-pass chains — the
   checker inference runs and the pipeline [check] runs — must match the
   two-pass oracle. *)
let witnesses_identical trace =
  let run two_pass =
    Coop_pipeline.run ~two_pass ~witness:true (Source.of_trace trace)
  in
  let oracle = run true and pipeline = run false in
  let c = Cooperability.check ~witness:true trace in
  c.Cooperability.violations = oracle.Coop_pipeline.violations
  && c.Cooperability.races = oracle.Coop_pipeline.races
  && Event.Var_set.equal c.Cooperability.racy oracle.Coop_pipeline.racy
  && c.Cooperability.events = oracle.Coop_pipeline.events
  && pipeline.Coop_pipeline.violations = oracle.Coop_pipeline.violations
  && pipeline.Coop_pipeline.races = oracle.Coop_pipeline.races

let identity_on_traces =
  prop gen_trace
    "witnesses: single-pass = two-pass (random traces)" 30
    witnesses_identical

let identity_on_late_traces =
  prop gen_late_trace
    "witnesses: single-pass = two-pass (late-knowledge traces)" 30
    witnesses_identical

(* Post implies a commit happened, so every violation must name its
   commit cause — in every mode (the identity props above then pin the
   causes equal). *)
let violations_carry_causes trace =
  let r = Cooperability.check trace in
  List.for_all
    (fun (v : Automaton.violation) -> v.Automaton.cause <> None)
    r.Cooperability.violations

let causes_on_late_traces =
  prop gen_late_trace "every violation names its commit cause" 30
    violations_carry_causes

let atomizer_causes_identical trace =
  let reference = atomize trace in
  atomize ~two_pass:true trace = reference
  && List.for_all
       (fun (w : Coop_atomicity.Atomizer.warning) ->
         w.Coop_atomicity.Atomizer.cause <> None)
       reference.Coop_atomicity.Atomizer.warnings

let atomizer_on_late_traces =
  prop gen_late_trace
    "atomizer causes: single-pass = two-pass, always present" 20
    atomizer_causes_identical

(* --- A race with known evidence --------------------------------------- *)

(* Fork, then both threads write the same global with no synchronization:
   the parent's post-fork write cannot be seen by the child, so the two
   writes are concurrent and the witness is fully predictable — event
   positions 2 and 3 (1-based), clocks proving the pair unordered. *)
let test_known_witness () =
  let trace = Trace.create () in
  let add tid op pc =
    Trace.add trace
      (Event.make ~tid ~op ~loc:(Loc.make ~func:0 ~pc ~line:1))
  in
  add 0 (Event.Fork 1) 0;
  add 0 (Event.Write (Event.Global 0)) 1;
  add 1 (Event.Write (Event.Global 0)) 2;
  let r = Cooperability.check ~witness:true trace in
  match r.Cooperability.races with
  | [ race ] -> (
      (match race.Coop_race.Report.witness with
      | Some (Witness.Race w) ->
          Alcotest.(check int) "first tid" 0 w.Witness.r_first.Witness.a_tid;
          Alcotest.(check int) "first seq" 2 w.Witness.r_first.Witness.a_seq;
          Alcotest.(check int) "second tid" 1 w.Witness.r_second.Witness.a_tid;
          Alcotest.(check int) "second seq" 3 w.Witness.r_second.Witness.a_seq;
          Alcotest.(check bool) "clocks prove the pair unordered" true
            (w.Witness.r_first_clock > w.Witness.r_second_sees)
      | _ -> Alcotest.fail "expected a race witness");
      match Witness_check.check_all trace r.Cooperability.races with
      | Ok n -> Alcotest.(check int) "oracle verifies it" 1 n
      | Error e -> Alcotest.fail e)
  | rs ->
      Alcotest.fail (Printf.sprintf "expected 1 race, got %d" (List.length rs))

(* --- Determinism: infer witnesses vs pool size ------------------------ *)

let test_infer_witness_determinism () =
  let prog =
    match Coop_workloads.Registry.find "bank" with
    | Some e -> Coop_workloads.Registry.program_of ~threads:2 ~size:4 e
    | None -> Alcotest.fail "bank workload missing"
  in
  let run jobs =
    let pool = Coop_util.Pool.create ~jobs () in
    Fun.protect
      ~finally:(fun () -> Coop_util.Pool.shutdown pool)
      (fun () -> Infer.infer ~pool prog)
  in
  let reference = run 1 in
  Alcotest.(check bool)
    "one witness per inferred yield" true
    (List.length reference.Infer.witnesses
    = Loc.Set.cardinal reference.Infer.yields);
  List.iter
    (fun (yw : Infer.yield_witness) ->
      Alcotest.(check bool) "witness names its yield location" true
        (Loc.equal yw.Infer.yw_loc yw.Infer.yw_viol.Automaton.loc);
      Alcotest.(check bool) "round is 1-based" true (yw.Infer.yw_round >= 1))
    reference.Infer.witnesses;
  List.iter
    (fun jobs ->
      let r = run jobs in
      Alcotest.(check bool)
        (Printf.sprintf "witness chain identical at %d domain(s)" jobs)
        true
        (r.Infer.witnesses = reference.Infer.witnesses))
    [ 2; 4 ]

(* --- CLI mode parser --------------------------------------------------- *)

let test_parse_mode () =
  let check name expect s =
    Alcotest.(check bool) name true (Witness.parse_mode s = expect)
  in
  check "text" (Some Witness.Text) "text";
  check "json" (Some (Witness.Json None)) "json";
  check "json:FILE" (Some (Witness.Json (Some "w.json"))) "json:w.json";
  check "json: (empty file) rejected" None "json:";
  check "garbage rejected" None "bogus";
  check "empty rejected" None "";
  check "TEXT (case-sensitive) rejected" None "TEXT"

(* --- The default hot path carries nothing ------------------------------ *)

let witness_off_is_none trace =
  let r = Cooperability.check trace in
  List.for_all
    (fun (race : Coop_race.Report.t) -> race.Coop_race.Report.witness = None)
    r.Cooperability.races

let off_on_traces =
  prop gen_trace "witness off (the default): reports carry None" 20
    witness_off_is_none

let suite =
  [
    races_replay_on_traces;
    races_replay_on_late_traces;
    identity_on_traces;
    identity_on_late_traces;
    causes_on_late_traces;
    atomizer_on_late_traces;
    Alcotest.test_case "a fork/write/write race has the expected witness"
      `Quick test_known_witness;
    Alcotest.test_case "infer: yield witnesses identical at 1/2/4 domains"
      `Quick test_infer_witness_determinism;
    Alcotest.test_case "Witness.parse_mode: text/json/json:FILE" `Quick
      test_parse_mode;
    off_on_traces;
  ]
