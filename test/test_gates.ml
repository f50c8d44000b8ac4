(* The json-verify gate table rejects what it should. A minimal valid
   document of every kind passes, sitting on each inclusive bound; for every
   gate a mutant that breaks it (a value just past its bound, a field
   removed, a type changed, a covered member dropped, a relation broken) is
   rejected with a message naming that gate's path. The mutants carry the
   bounds as literals, so a gate that moves or disappears fails here. *)

open Coop_util

let parse s =
  match Json.of_string s with Ok v -> v | Error e -> failwith ("test doc: " ^ e)

(* ---- Valid documents ---------------------------------------------------- *)

let table3 =
  {|{"experiment": "table3", "jobs": 1, "workloads": [{"name": "w",
     "events": 1e-9, "base_s": 1e-9, "race_s": 1e-9, "full_s": 1e-9,
     "two_pass_s": 1e-9, "passes_per_schedule": 1e-9, "two_pass_passes": 1e-9,
     "race_slowdown": 1e-9, "full_slowdown": 1e-9, "two_pass_slowdown": 1e-9,
     "race_kev_s": 1e-9, "full_kev_s": 1e-9, "two_pass_kev_s": 1e-9,
     "analysis_kev_s": 1e-9, "minor_words_per_event": 1e-9,
     "major_collections": 0}]}|}

(* Share sums of 1.0001, exactly 0.95 and exactly 1.05. *)
let profile =
  {|{"experiment": "profile", "jobs": 1, "workloads": [
     {"name": "a", "analysis_s": 1e-9, "witness_off_s": 1e-9,
      "witness_on_s": 1e-9, "witness_overhead": -0.5, "checkers": [
        {"checker": "x", "words": 0, "share": 0},
        {"checker": "y", "words": 0, "share": 1.0001}]},
     {"name": "b", "analysis_s": 1, "witness_off_s": 1, "witness_on_s": 1,
      "witness_overhead": 0, "checkers": [
        {"checker": "x", "words": 0, "share": 0.95}]},
     {"name": "c", "analysis_s": 1, "witness_off_s": 1, "witness_on_s": 1,
      "witness_overhead": 0, "checkers": [
        {"checker": "x", "words": 0, "share": 0.05},
        {"checker": "y", "words": 0, "share": 1.0}]}]}|}

let obs =
  {|{"schema": "coop-obs/v1", "counters": {}, "gauges": {},
     "timers": {"t": {"s": 0.1, "words": 0}}, "histograms": {},
     "spans": [{"name": "s", "start_us": -1, "dur_us": 0}]}|}

let chrome =
  {|[{"name": "process_name", "ph": "M", "pid": -1, "tid": -1},
     {"name": "x", "ph": "X", "pid": 1, "tid": 0, "ts": -5, "dur": 0}]|}

let vclock =
  {|{"experiment": "vclock", "ops_per_case": 1e-9, "cases": [
     {"impl": "flat", "mix": "tick", "threads": 1e-9, "ops": 1e-9,
      "seconds": 1e-9, "mops_s": 1e-9},
     {"impl": "persistent", "mix": "join", "threads": 1, "ops": 1,
      "seconds": 1, "mops_s": 1},
     {"impl": "flat", "mix": "leq", "threads": 1, "ops": 1, "seconds": 1,
      "mops_s": 1}]}|}

let pool =
  {|{"experiment": "pool", "leaves": 1, "cases": [
     {"shape": "balanced", "impl": "static", "domains": 1e-9, "tasks": 1e-9,
      "seconds": 1e-9},
     {"shape": "skewed", "impl": "per-leaf", "domains": 8, "tasks": 64,
      "seconds": "skipped"}],
     "summary": {"skewed_speedup_8": -1.5, "balanced_overhead_8": "skipped"}}|}

let codec =
  {|{"experiment": "codec", "jobs": 1, "workloads": [{"name": "w",
     "events": 1, "text_bytes": 1, "bin_bytes": 1,
     "text_bytes_per_event": 1e-9, "bin_bytes_per_event": 1e-9,
     "bytes_ratio": 0.5, "text_encode_mev_s": 1e-9, "bin_encode_mev_s": 1e-9,
     "text_parse_mev_s": 1e-9, "bin_decode_mev_s": 1e-9,
     "decode_speedup": 3.0, "decode_minor_words_per_event": 0}],
     "aggregate": {"bytes_ratio": 0.5, "decode_speedup": 5.0}}|}

(* The medians sit exactly on the 3x and 1.5x gates. *)
let replay =
  {|{"experiment": "replay", "schema": "coop-replay/v1", "jobs": 1,
     "dpor": [{"name": "d", "executions": 0, "cached_steps": 1,
       "novel_steps": 1, "replayed_steps": 0, "cache_hits": 0,
       "stateless_steps": 3, "cached_seconds": 1e-9,
       "stateless_seconds": 1e-9, "steps_reduction": 3.0, "speedup": 1.5,
       "verified": true}],
     "infer": [{"name": "i", "events_analyzed": 0, "prefix_events": 0,
       "elided_events": 0, "cache_hits": 0, "cached_seconds": 1e-9,
       "stateless_seconds": 1e-9, "speedup": 1e-9, "verified": true}],
     "summary": {"median_steps_reduction": 3.0, "median_speedup": 1.5}}|}

let violation =
  {|{"tid": -1, "loc": "l", "op": "rd(g0)", "mover": "non-mover",
     "cause": {"seq": 1, "loc": "m", "op": "rel(l1)", "mover": "left-mover"}}|}

(* Races with a race witness and without, and a violation with and
   without a cause. *)
let races ~explain =
  let verified = if explain then {|, "verified": true|} else "" in
  Printf.sprintf
    {|[{"var": "g0", "kind": "write-read"%s, "witness": {"race": {
        "first": {"tid": 0, "seq": 1, "loc": "a"},
        "second": {"tid": 0, "seq": 1, "loc": "b"},
        "first_clock": -1, "second_sees": -1}}},
      {"var": "g2", "kind": "read-write"%s, "witness": null}]|}
    verified verified

let check_doc command =
  Printf.sprintf
    {|{"schema": "coop-witness/v1", "command": %S, "races": %s,
       "violations": [%s, {"tid": 0, "loc": "l", "op": "o", "mover": "m",
       "cause": null}]}|}
    command
    (races ~explain:(command = "explain"))
    violation

let atomize =
  Printf.sprintf
    {|{"schema": "coop-witness/v1", "command": "atomize", "warnings": [%s]}|}
    violation

let infer =
  Printf.sprintf
    {|{"schema": "coop-witness/v1", "command": "infer", "yields": [
       {"loc": "l", "round": 0, "sched": "s", "violation": %s}]}|}
    violation

let docs =
  [ ("table3", table3); ("profile", profile); ("obs", obs); ("chrome", chrome);
    ("vclock", vclock); ("pool", pool); ("codec", codec); ("replay", replay);
    ("check", check_doc "check"); ("explain", check_doc "explain");
    ("atomize", atomize); ("infer", infer) ]

(* ---- Mutations ---------------------------------------------------------- *)

(* [edit path x doc] sets (or, with [None], removes) the value at a concrete
   dot-separated path; numeric segments index lists. *)
let rec edit path x doc =
  match (path, doc) with
  | [], _ -> Option.get x
  | [ k ], Json.Obj kvs when x = None -> Json.Obj (List.remove_assoc k kvs)
  | [ k ], Json.Obj kvs when not (List.mem_assoc k kvs) ->
      Json.Obj (kvs @ [ (k, Option.get x) ])
  | k :: rest, Json.Obj kvs ->
      let field (k', v) = (k', if k' = k then edit rest x v else v) in
      Json.Obj (List.map field kvs)
  | i :: rest, Json.List xs ->
      let item j v = if j = int_of_string i then edit rest x v else v in
      Json.List (List.mapi item xs)
  | _ -> failwith ("edit: no path " ^ String.concat "." path)

let set p v = (p, Some (parse v))
let drop p = (p, None)

(* Gate path of a concrete path: every [[...]] becomes [[]]. *)
let abstract path =
  let b = Buffer.create (String.length path) and skipping = ref false in
  String.iter
    (fun c ->
      if c = '[' then skipping := true
      else if c = ']' then begin
        skipping := false;
        Buffer.add_string b "[]"
      end
      else if not !skipping then Buffer.add_char b c)
    path;
  Buffer.contents b

let positives prefix gate fields =
  List.map (fun f -> (gate ^ f, [ set (prefix ^ f) "0" ])) fields

(* Mutants of a violation record at concrete [at], gate path [gate]. *)
let violation_mutants at gate =
  [ (gate ^ "tid", [ set (at ^ "tid") {|"1"|} ]) ]
  @ List.concat_map
      (fun f ->
        [ (gate ^ f, [ drop (at ^ f) ]);
          (gate ^ "cause." ^ f, [ drop (at ^ "cause." ^ f) ]) ])
      [ "loc"; "op"; "mover" ]
  @ [ (gate ^ "cause.seq", [ set (at ^ "cause.seq") "0" ]) ]

let access_mutants at gate =
  [ (gate ^ "tid", [ set (at ^ "tid") "-1" ]);
    (gate ^ "seq", [ set (at ^ "seq") "0" ]);
    (gate ^ "loc", [ drop (at ^ "loc") ]) ]

(* (document, gate path the rejection must name, edits). *)
let mutants =
  List.map (fun (p, e) -> ("table3", p, e))
    ([ ("jobs", [ set "jobs" "0" ]);
       ("workloads", [ set "workloads" "[]" ]);
       ("workloads[].name", [ drop "workloads.0.name" ]);
       ("workloads[].major_collections",
        [ set "workloads.0.major_collections" "-1e-9" ]) ]
    @ positives "workloads.0." "workloads[]."
        [ "events"; "base_s"; "race_s"; "full_s"; "two_pass_s";
          "passes_per_schedule"; "two_pass_passes"; "race_slowdown";
          "full_slowdown"; "two_pass_slowdown"; "race_kev_s"; "full_kev_s";
          "two_pass_kev_s"; "analysis_kev_s"; "minor_words_per_event" ])
  @ List.map (fun (p, e) -> ("profile", p, e))
      ([ ("jobs", [ set "jobs" "0" ]);
         ("workloads", [ set "workloads" "[]" ]);
         ("workloads[].name", [ drop "workloads.0.name" ]);
         ("workloads[].witness_overhead",
          [ set "workloads.0.witness_overhead" {|"n/a"|} ]);
         ("workloads[].checkers", [ set "workloads.0.checkers" "[]" ]);
         ("workloads[].checkers[].checker",
          [ drop "workloads.0.checkers.0.checker" ]);
         ("workloads[].checkers[].words",
          [ set "workloads.0.checkers.0.words" "-1e-9" ]);
         (* Just past each end of [0, 1.0001], the sums staying in range. *)
         ("workloads[].checkers[].share",
          [ set "workloads.0.checkers.0.share" "-1e-9" ]);
         ("workloads[].checkers[].share",
          [ set "workloads.0.checkers.1.share" "1.0002" ]);
         (* Just past each end of the [0.95, 1.05] sum. *)
         ("workloads[].checkers[].share",
          [ set "workloads.1.checkers.0.share" "0.9499" ]);
         ("workloads[].checkers[].share",
          [ set "workloads.2.checkers.1.share" "1.0001" ]) ]
      @ positives "workloads.0." "workloads[]."
          [ "analysis_s"; "witness_off_s"; "witness_on_s" ])
  @ List.map (fun (p, e) -> ("obs", p, e))
      (List.map (fun f -> (f, [ drop f ]))
         [ "counters"; "gauges"; "timers"; "histograms" ]
      @ [ ("timers[].words", [ set "timers.t.words" "-1e-9" ]);
          ("spans", [ set "spans" "{}" ]);
          ("spans[].name", [ drop "spans.0.name" ]);
          ("spans[].start_us", [ set "spans.0.start_us" "null" ]);
          ("spans[].dur_us", [ set "spans.0.dur_us" "-1e-9" ]) ])
  @ List.map (fun (p, e) -> ("chrome", p, e))
      [ ("", [ ("", Some (Json.List [])) ]);
        ("[].name", [ drop "0.name" ]); ("[].ph", [ drop "0.ph" ]);
        ("[].pid", [ set "0.pid" "1.5" ]); ("[].tid", [ set "0.tid" {|"0"|} ]);
        ("[].ts", [ set "1.ts" "0.5" ]); ("[].dur", [ set "1.dur" "-1" ]) ]
  @ List.map (fun (p, e) -> ("vclock", p, e))
      ([ ("ops_per_case", [ set "ops_per_case" "0" ]);
         ("cases", [ set "cases" "[]" ]);
         ("cases[].impl", [ drop "cases.0.impl" ]);
         ("cases[].mix", [ drop "cases.0.mix" ]);
         ("cases[].impl", [ set "cases.1.impl" {|"flat"|} ]);
         ("cases[].mix", [ set "cases.2.mix" {|"tick"|} ]) ]
      @ positives "cases.0." "cases[]." [ "threads"; "ops"; "seconds"; "mops_s" ])
  @ List.map (fun (p, e) -> ("pool", p, e))
      [ ("leaves", [ set "leaves" "0" ]); ("cases", [ set "cases" "[]" ]);
        ("cases[].shape", [ drop "cases.0.shape" ]);
        ("cases[].impl", [ drop "cases.0.impl" ]);
        ("cases[].domains", [ set "cases.0.domains" "0" ]);
        ("cases[].tasks", [ set "cases.0.tasks" "0" ]);
        ("cases[].seconds", [ set "cases.0.seconds" "0" ]);
        ("cases[].shape", [ set "cases.1.shape" {|"balanced"|} ]);
        ("cases[].impl", [ set "cases.1.impl" {|"static"|} ]);
        ("summary", [ set "summary" "[]" ]);
        ("summary.skewed_speedup_8", [ set "summary.skewed_speedup_8" {|"n/a"|} ]);
        ("summary.balanced_overhead_8", [ drop "summary.balanced_overhead_8" ]) ]
  @ List.map (fun (p, e) -> ("codec", p, e))
      ([ ("jobs", [ set "jobs" "0" ]);
         ("workloads", [ set "workloads" "[]" ]);
         ("workloads[].name", [ drop "workloads.0.name" ]);
         ("workloads[].decode_minor_words_per_event",
          [ set "workloads.0.decode_minor_words_per_event" "-1e-9" ]);
         ("workloads[].bytes_ratio", [ set "workloads.0.bytes_ratio" "0.5000001" ]);
         ("workloads[].decode_speedup",
          [ set "workloads.0.decode_speedup" "2.9999999" ]);
         ("aggregate", [ set "aggregate" "1" ]);
         ("aggregate.bytes_ratio", [ set "aggregate.bytes_ratio" "0" ]);
         ("aggregate.bytes_ratio", [ set "aggregate.bytes_ratio" "0.5000001" ]);
         ("aggregate.decode_speedup", [ set "aggregate.decode_speedup" "4.9999999" ]) ]
      @ List.map
          (fun f -> ("workloads[]." ^ f, [ set ("workloads.0." ^ f) "0" ]))
          [ "events"; "text_bytes"; "bin_bytes"; "text_bytes_per_event";
            "bin_bytes_per_event"; "bytes_ratio"; "text_encode_mev_s";
            "bin_encode_mev_s"; "text_parse_mev_s"; "bin_decode_mev_s";
            "decode_speedup" ])
  @ List.map (fun (p, e) -> ("replay", p, e))
      ([ ("jobs", [ set "jobs" "0" ]); ("dpor", [ set "dpor" "[]" ]);
         ("dpor[].name", [ drop "dpor.0.name" ]);
         ("dpor[].verified", [ set "dpor.0.verified" "false" ]);
         ("dpor[].cached_steps", [ set "dpor.0.cached_steps" "0" ]);
         ("dpor[].stateless_steps", [ set "dpor.0.stateless_steps" "0" ]);
         (* The counter relations. *)
         ("dpor[].cached_steps", [ set "dpor.0.cached_steps" "2" ]);
         ("dpor[].steps_reduction", [ set "dpor.0.steps_reduction" "3.00001" ]);
         ("infer", [ set "infer" "[]" ]);
         ("infer[].name", [ drop "infer.0.name" ]);
         ("infer[].verified", [ drop "infer.0.verified" ]);
         ("summary", [ drop "summary" ]);
         (* The medians recomputed from the rows. *)
         ("summary.median_steps_reduction",
          [ set "summary.median_steps_reduction" "3.5" ]);
         ("summary.median_speedup", [ set "summary.median_speedup" "1.6" ]);
         (* The headline gates, rows and summary moved together. *)
         ("dpor[].steps_reduction",
          [ set "dpor.0.cached_steps" "1000"; set "dpor.0.novel_steps" "1000";
            set "dpor.0.stateless_steps" "2999";
            set "dpor.0.steps_reduction" "2.999";
            set "summary.median_steps_reduction" "2.999" ]);
         ("dpor[].speedup",
          [ set "dpor.0.speedup" "1.4999"; set "summary.median_speedup" "1.4999" ]) ]
      @ List.map
          (fun f -> ("dpor[]." ^ f, [ set ("dpor.0." ^ f) "-1" ]))
          [ "novel_steps"; "replayed_steps"; "executions"; "cache_hits" ]
      @ positives "dpor.0." "dpor[]."
          [ "cached_seconds"; "stateless_seconds"; "steps_reduction"; "speedup" ]
      @ List.map
          (fun f -> ("infer[]." ^ f, [ set ("infer.0." ^ f) "-1" ]))
          [ "events_analyzed"; "prefix_events"; "elided_events"; "cache_hits" ]
      @ positives "infer.0." "infer[]."
          [ "cached_seconds"; "stateless_seconds"; "speedup" ])
  @ List.map (fun (p, e) -> ("explain", p, e))
      ([ ("command", [ set "command" {|"run"|} ]);
         ("races", [ set "races" "{}" ]);
         ("races[].var", [ drop "races.0.var" ]);
         ("races[].kind", [ drop "races.0.kind" ]);
         ("races[].verified", [ set "races.1.verified" "false" ]);
         ("races[].witness.race.first_clock",
          [ set "races.0.witness.race.first_clock" "null" ]);
         ("races[].witness.race.second_sees",
          [ drop "races.0.witness.race.second_sees" ]);
         ("violations", [ drop "violations" ]) ]
      @ access_mutants "races.0.witness.race.first." "races[].witness.race.first."
      @ access_mutants "races.0.witness.race.second." "races[].witness.race.second."
      @ violation_mutants "violations.0." "violations[].")
  @ List.map (fun (p, e) -> ("atomize", p, e))
      (("warnings", [ set "warnings" "null" ])
      :: violation_mutants "warnings.0." "warnings[].")
  @ List.map (fun (p, e) -> ("infer", p, e))
      ([ ("yields", [ drop "yields" ]); ("yields[].loc", [ drop "yields.0.loc" ]);
         ("yields[].round", [ set "yields.0.round" "-1" ]);
         ("yields[].sched", [ set "yields.0.sched" "1" ]) ]
      @ violation_mutants "yields.0.violation." "yields[].violation.")

(* ---- Tests ---------------------------------------------------------------- *)

let verify doc =
  Gates.verify (parse doc)

let test_valid_documents_pass () =
  List.iter
    (fun (name, doc) ->
      match verify doc with
      | Ok _ -> ()
      | Error f -> Alcotest.failf "%s rejected: %s" name (Gates.message f))
    docs

let test_every_gate_rejects () =
  let rejected =
    List.map
      (fun (name, gate, edits) ->
        let doc =
          List.fold_left
            (fun d (p, x) ->
              edit (if p = "" then [] else String.split_on_char '.' p) x d)
            (parse (List.assoc name docs)) edits
        in
        match Gates.verify doc with
        | Ok _ -> Alcotest.failf "%s mutant of %s accepted" name gate
        | Error f ->
            Alcotest.(check string)
              (Printf.sprintf "%s mutant names %s (%s)" name gate (Gates.message f))
              gate (abstract f.Gates.path);
            (abstract f.Gates.path, f.Gates.want))
      mutants
  in
  (* Completeness: every gate a valid document meets has a mutant that
     fails exactly it. *)
  List.iter
    (fun (name, doc) ->
      match verify doc with
      | Error _ -> ()
      | Ok (_, applied) ->
          List.iter
            (fun (path, want) ->
              let gate = (abstract path, want) in
              if not (List.mem gate rejected) then
                Alcotest.failf "%s: no mutant rejects %s: want %s" name
                  (fst gate) want)
            applied)
    docs

let test_kinds () =
  let rejects doc path =
    match verify doc with
    | Ok _ -> Alcotest.failf "accepted %s" doc
    | Error f -> Alcotest.(check string) doc path f.Gates.path
  in
  rejects {|{"experiment": "table9"}|} "experiment|schema";
  rejects {|{"schema": "coop-obs/v2"}|} "experiment|schema";
  rejects "3" "experiment|schema";
  (* The replay document is keyed by its schema. *)
  rejects {|{"experiment": "replay"}|} "experiment|schema";
  rejects {|[]|} "";
  match verify {|{"experiment": "table3", "jobs": 0}|} with
  | Error f ->
      Alcotest.(check string) "message" "jobs: want an int >= 1, got 0"
        (Gates.message f)
  | Ok _ -> Alcotest.fail "accepted jobs = 0"

let suite =
  [ Alcotest.test_case "valid documents pass" `Quick test_valid_documents_pass;
    Alcotest.test_case "every gate rejects its mutant" `Quick test_every_gate_rejects;
    Alcotest.test_case "document kinds" `Quick test_kinds ]
