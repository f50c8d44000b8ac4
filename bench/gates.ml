open Coop_util

type failure = { path : string; want : string; got : string }

(* A predicate: its rendering, and a check of the values at a gate's path
   (each with its concrete path) giving the offending path and value. *)
type pred = {
  want : string;
  check : string -> (string * Json.t option) list -> (string * string) option;
}

type gate =
  | Gate of string * pred
  | Case of string * (Json.t option -> gate list)
      (** The gates for each value at the path, relative to it. *)

let message f =
  let path = if f.path = "" then "(document)" else f.path in
  Printf.sprintf "%s: want %s, got %s" path f.want f.got

let show = function
  | None -> "nothing"
  | Some (Json.List xs) -> Printf.sprintf "a list of %d" (List.length xs)
  | Some (Json.Obj _) -> "an object"
  | Some v -> String.trim (Json.to_string v)

let number v =
  match Option.bind v Json.to_float with
  | Some x when Float.is_finite x -> Some x
  | _ -> None

(* The predicates, a closed set: [each] holds of every value at the path,
   [all] of all of them together ([covers], [sum_in], [median_ge]). *)
let each want ok =
  let bad (at, v) = if ok v then None else Some (at, show v) in
  { want; check = (fun _ vs -> List.find_map bad vs) }

let is want p = each want (fun v -> Option.fold ~none:false ~some:p v)
let num want p = each want (fun v -> Option.fold ~none:false ~some:p (number v))
let ge k = num (Printf.sprintf "a number >= %g" k) (fun x -> x >= k)
let le k = num (Printf.sprintf "a number <= %g" k) (fun x -> x <= k)
let positive = num "a number > 0" (fun x -> x > 0.)
let finite = num "a finite number" (fun _ -> true)
let true_ = is "true" (( = ) (Json.Bool true))
let any_int = is "an int" (function Json.Int _ -> true | _ -> false)
let str = is "a string" (function Json.String _ -> true | _ -> false)
let obj = is "an object" (function Json.Obj _ -> true | _ -> false)
let list = is "a list" (function Json.List _ -> true | _ -> false)

let within lo hi =
  num (Printf.sprintf "a number in [%g, %g]" lo hi) (fun x ->
      lo <= x && x <= hi)

let near x tol =
  num (Printf.sprintf "%.10g (within %g)" x tol) (fun y ->
      Float.abs (y -. x) <= tol)

let int_ge k =
  is (Printf.sprintf "an int >= %d" k) (function
    | Json.Int n -> n >= k
    | _ -> false)

let non_empty =
  is "a non-empty list" (function Json.List (_ :: _) -> true | _ -> false)

let one_of xs =
  is ("one of " ^ String.concat "|" xs) (function
    | Json.String s -> List.mem s xs
    | _ -> false)

let all want bad =
  { want; check = (fun at vs -> Option.map (fun got -> (at, got)) (bad vs)) }

let numbers vs = Array.of_list (List.filter_map (fun (_, v) -> number v) vs)

let covers xs =
  all ("values covering {" ^ String.concat ", " xs ^ "}") (fun vs ->
      let str = function _, Some (Json.String s) -> Some s | _ -> None in
      let seen = List.sort_uniq compare (List.filter_map str vs) in
      if List.for_all (fun x -> List.mem x seen) xs then None
      else Some ("{" ^ String.concat ", " seen ^ "}"))

let sum_in lo hi =
  all (Printf.sprintf "a sum in [%g, %g]" lo hi) (fun vs ->
      let sum = Array.fold_left ( +. ) 0. (numbers vs) in
      if lo <= sum && sum <= hi then None else Some (Printf.sprintf "%g" sum))

let median_ge k =
  all (Printf.sprintf "a median >= %g" k) (fun vs ->
      let m = Stats.median (numbers vs) in
      if m >= k then None else Some (Printf.sprintf "%g" m))

let join prefix field =
  if prefix = "" || field = "" then prefix ^ field else prefix ^ "." ^ field

(* The values at [path] below [v], each with its concrete path. *)
let values prefix v path =
  let rec go prefix v = function
    | [] -> [ (prefix, v) ]
    | seg :: rest -> (
        let each = String.ends_with ~suffix:"[]" seg in
        let field = if each then String.(sub seg 0 (length seg - 2)) else seg in
        let prefix = join prefix field in
        let v = if field = "" then v else Option.bind v (Json.member field) in
        let at key x = go (Printf.sprintf "%s[%s]" prefix key) (Some x) rest in
        match v with
        | _ when not each -> go prefix v rest
        | Some (Json.List xs) ->
            List.concat (List.mapi (fun i -> at (string_of_int i)) xs)
        | Some (Json.Obj kvs) -> List.concat_map (fun (k, x) -> at k x) kvs
        | _ -> [])
  in
  go prefix v (if path = "" then [] else String.split_on_char '.' path)

exception Rejected of failure

(* Applies [gates] to [v] in order, recording each gate applied. *)
let rec run applied prefix v gates =
  let apply = function
    | Gate (path, p) ->
        let at = join prefix path in
        applied := (at, p.want) :: !applied;
        p.check at (values prefix v path)
        |> Option.iter (fun (path, got) ->
               raise (Rejected { path; want = p.want; got }))
    | Case (path, select) ->
        values prefix v path
        |> List.iter (fun (at, x) -> run applied at x (select x))
  in
  List.iter apply gates

(* ---- The table: one gate list per document kind -------------------------- *)

let ( --> ) path p = Gate (path, p)
let under path gates = Case (path, fun _ -> gates)
let fields p names = List.map (fun n -> n --> p) names
let member v field = Option.bind v (Json.member field)
let rows path gates = [ path --> non_empty; under (path ^ "[]") gates ]
let jobs = "jobs" --> int_ge 1

let table3 =
  jobs
  :: rows "workloads"
       (("name" --> str)
        :: fields positive
             [ "events"; "base_s"; "race_s"; "full_s"; "two_pass_s";
               "passes_per_schedule"; "two_pass_passes"; "race_slowdown";
               "full_slowdown"; "two_pass_slowdown"; "race_kev_s"; "full_kev_s";
               "two_pass_kev_s"; "analysis_kev_s"; "minor_words_per_event" ]
       @ [ "major_collections" --> ge 0. (* zero is legitimate *) ])

let profile =
  jobs
  :: rows "workloads"
       (("name" --> str)
        :: fields positive [ "analysis_s"; "witness_off_s"; "witness_on_s" ]
       @ [ (* The relative overhead may be slightly negative (timer noise). *)
           "witness_overhead" --> finite; "checkers" --> non_empty;
           "checkers[].checker" --> str; "checkers[].words" --> ge 0.;
           "checkers[].share" --> within 0. 1.0001;
           (* The attribution includes an explicit dispatch/other residual,
              so the rows account for (essentially) all the analysis time. *)
           "checkers[].share" --> sum_in 0.95 1.05 ])

let obs =
  fields obj [ "counters"; "gauges"; "timers"; "histograms" ]
  @ [ "timers[].words" --> ge 0.; "spans" --> list; "spans[].name" --> str;
      "spans[].start_us" --> finite; "spans[].dur_us" --> ge 0. ]

let chrome =
  rows ""
    [ "name" --> str; "ph" --> str; "pid" --> any_int; "tid" --> any_int;
      Case ("", fun e -> if member e "ph" <> Some (Json.String "X") then []
                         else [ "ts" --> any_int; "dur" --> int_ge 0 ]) ]

(* Each comparison needs every side present: both representations and all
   three operation mixes; both tree shapes and both scheduling strategies. *)
let vclock =
  ("ops_per_case" --> positive)
  :: rows "cases"
       ([ "impl" --> str; "mix" --> str ]
       @ fields positive [ "threads"; "ops"; "seconds"; "mops_s" ])
  @ [ "cases[].impl" --> covers [ "flat"; "persistent" ];
      "cases[].mix" --> covers [ "tick"; "join"; "leq" ] ]

(* Rows the machine cannot time honestly (8 domains on fewer cores) are
   "skipped" rather than measured. *)
let skipped v = v = Some (Json.String "skipped")

let pool =
  ("leaves" --> int_ge 1)
  :: rows "cases"
       [ "shape" --> str; "impl" --> str; "domains" --> positive;
         "tasks" --> positive;
         Case ("", fun c ->
             if not (skipped (member c "seconds")) then
               [ "seconds" --> positive ]
             else []) ]
  @ [ "cases[].shape" --> covers [ "balanced"; "skewed" ];
      "cases[].impl" --> covers [ "static"; "per-leaf" ]; "summary" --> obj ]
  @ List.map
      (fun f -> Case (f, fun v -> if skipped v then [] else [ "" --> finite ]))
      [ "summary.skewed_speedup_8"; "summary.balanced_overhead_8" ]

(* Per-workload floors: deterministic size halving, and no stream as slow as
   the text parser. The 5x decode bar is held over the suite: def-heavy
   microtraces (an interner def every other event) bottom out near 4x. *)
let codec =
  jobs
  :: rows "workloads"
       (("name" --> str)
        :: fields (int_ge 1) [ "events"; "text_bytes"; "bin_bytes" ]
       @ fields positive
           [ "text_bytes_per_event"; "bin_bytes_per_event"; "bytes_ratio";
             "text_encode_mev_s"; "bin_encode_mev_s"; "text_parse_mev_s";
             "bin_decode_mev_s"; "decode_speedup" ]
       @ [ "decode_minor_words_per_event" --> ge 0.;
           "bytes_ratio" --> le 0.5; "decode_speedup" --> ge 3.0 ])
  @ [ "aggregate" --> obj; "aggregate.bytes_ratio" --> positive;
      "aggregate.bytes_ratio" --> le 0.5;
      "aggregate.decode_speedup" --> ge 5.0 ]

(* A DPOR row is consistent: cached steps = novel + replayed, and the
   reduction is stateless over cached steps. *)
let replay_counters r =
  let n f = Option.value ~default:nan (number (member r f)) in
  [ "cached_steps" --> near (n "novel_steps" +. n "replayed_steps") 0.;
    "steps_reduction" --> near (n "stateless_steps" /. n "cached_steps") 1e-6 ]

(* The summary medians are the medians of the DPOR rows. *)
let replay_medians d =
  let median f = Stats.median (numbers (values "" d ("dpor[]." ^ f))) in
  [ "summary.median_steps_reduction" --> near (median "steps_reduction") 1e-6;
    "summary.median_speedup" --> near (median "speedup") 1e-6 ]

(* Every row verified against its stateless oracle, and the headline gates:
   suite-median steps reduction >= 3x and wall-clock speedup >= 1.5x. *)
let replay =
  jobs
  :: rows "dpor"
       ([ "name" --> str; "verified" --> true_; "cached_steps" --> int_ge 1;
          "stateless_steps" --> int_ge 1 ]
       @ fields (int_ge 0)
           [ "novel_steps"; "replayed_steps"; "executions"; "cache_hits" ]
       @ fields positive
           [ "cached_seconds"; "stateless_seconds"; "steps_reduction";
             "speedup" ]
       @ [ Case ("", replay_counters) ])
  @ rows "infer"
      ([ "name" --> str; "verified" --> true_ ]
      @ fields (int_ge 0)
          [ "events_analyzed"; "prefix_events"; "elided_events"; "cache_hits" ]
      @ fields positive [ "cached_seconds"; "stateless_seconds"; "speedup" ])
  @ [ "summary" --> obj; Case ("", replay_medians);
      "dpor[].steps_reduction" --> median_ge 3.0;
      "dpor[].speedup" --> median_ge 1.5 ]

let access = [ "tid" --> int_ge 0; "seq" --> int_ge 1; "loc" --> str ]
let described = fields str [ "loc"; "op"; "mover" ]

let violation =
  (("tid" --> any_int) :: described)
  @ [ Case ("cause", function
        | None | Some Json.Null -> []
        | Some _ -> ("seq" --> int_ge 1) :: described) ]

(* A race's witness is null or a race witness: two accesses and the
   clocks that order them. *)
let race_witness = function
  | None | Some Json.Null -> []
  | Some _ ->
      [ under "race.first" access; under "race.second" access;
        "race.first_clock" --> any_int; "race.second_sees" --> any_int ]

(* coop-witness/v1 per command: check/explain carry races and violations,
   atomize warnings, infer yields (round 0: trace-mode inference) with their
   forcing violation. An explain race passed the happens-before self-check. *)
let witness_shape d =
  match member d "command" with
  | Some (Json.String (("check" | "explain") as c)) ->
      [ "races" --> list; "races[].var" --> str; "races[].kind" --> str;
        Case ("races[].witness", race_witness) ]
      @ (if c = "explain" then [ "races[].verified" --> true_ ] else [])
      @ [ "violations" --> list; under "violations[]" violation ]
  | Some (Json.String "atomize") ->
      [ "warnings" --> list; under "warnings[]" violation ]
  | _ ->
      [ "yields" --> list; "yields[].loc" --> str;
        "yields[].round" --> int_ge 0; "yields[].sched" --> str;
        under "yields[].violation" violation ]

let witness =
  [ "command" --> one_of [ "check"; "explain"; "atomize"; "infer" ];
    Case ("", witness_shape) ]

let table =
  [ ("table3", table3); ("profile", profile); ("vclock", vclock);
    ("pool", pool); ("codec", codec); ("coop-replay/v1", replay);
    ("coop-obs/v1", obs); ("coop-witness/v1", witness);
    ("trace_event array", chrome) ]

(* The kind is named by the document's [experiment] or [schema] value. *)
let verify doc =
  let tags = [ "experiment"; "schema" ] and applied = ref [] in
  let known t =
    match Json.member t doc with
    | Some (Json.String k) when List.mem_assoc k table -> Some k
    | _ -> None
  in
  let kind =
    match doc with
    | Json.List _ -> Some "trace_event array"
    | _ -> List.find_map known tags
  in
  match kind with
  | None ->
      let got = show (List.find_map (fun t -> Json.member t doc) tags) in
      let want = "one of " ^ String.concat "|" (List.map fst table) in
      Error { path = String.concat "|" tags; want; got }
  | Some kind -> (
      match run applied "" (Some doc) (List.assoc kind table) with
      | () -> Ok (kind, List.rev !applied)
      | exception Rejected f -> Error f)
