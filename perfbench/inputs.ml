(* The benchmark's inputs and their expected answers.

   Every workload draws its inputs from the fixed tables below; the run
   seed only picks each check's random-scheduler seed from [sched_seeds]
   and the op order. Expected answers live in [expected.txt] beside this
   file, keyed by [key], and are produced by oracle.exe — an independent,
   untimed path (the two-pass engine, stateless DPOR, stateless
   inference) — never by the code the benchmark times. *)

open Coop_trace
open Coop_runtime
module Registry = Coop_workloads.Registry
module Micro = Coop_workloads.Micro

type input = {
  name : string;  (** Program label, one per row of the per-input table. *)
  src : string;  (** CoopLang source. *)
  sched_seed : int;  (** Random-scheduler seed (check/replay only), else 0. *)
}

let key i =
  if i.sched_seed = 0 then i.name else Printf.sprintf "%s@%d" i.name i.sched_seed

let registry_src name ~threads ~size =
  Registry.source_of ~threads ~size (Option.get (Registry.find name))

(* check / replay: every registry program at its default thread count,
   sized so each live check takes roughly 20-150 ms on a 2-core host and
   no program dominates a run. The barrier programs stay small: lufact
   starves the random scheduler into the step limit from size 6, moldyn
   from size 20. *)
let check_sizes =
  [ ("series", 80); ("sparse", 160); ("crypt", 160); ("sor", 24);
    ("lufact", 7); ("moldyn", 10); ("montecarlo", 30); ("raytracer", 80);
    ("philo", 384); ("bank", 400); ("queue", 48); ("elevator", 160);
    ("tsp", 3); ("hedc", 64) ]

let sched_seeds = [| 1; 2; 3 |]

let check_program name =
  let e = Option.get (Registry.find name) in
  registry_src name ~threads:e.Registry.default_threads
    ~size:(List.assoc name check_sizes)

(* The run's check inputs: one scheduler seed per program, drawn from
   [sched_seeds] by the run seed. *)
let check_inputs ~seed =
  let rng = Random.State.make [| seed; 0x636b |] in
  List.map
    (fun (name, _) ->
      let s = sched_seeds.(Random.State.int rng (Array.length sched_seeds)) in
      { name; src = check_program name; sched_seed = s })
    check_sizes

let all_check_inputs () =
  List.concat_map
    (fun (name, _) ->
      let src = check_program name in
      Array.to_list
        (Array.map (fun s -> { name; src; sched_seed = s }) sched_seeds))
    check_sizes

(* dpor: the six replay-elision bench cases plus two registry configs,
   each exploring to completion at default budgets in 20-450 ms. *)
let dpor_inputs () =
  let micro name src = { name; src; sched_seed = 0 } in
  let reg name ~threads ~size =
    { name = Printf.sprintf "%s(t%d_s%d)" name threads size;
      src = registry_src name ~threads ~size; sched_seed = 0 }
  in
  [ micro "racy_counter(2x2)" (Micro.racy_counter ~threads:2 ~incs:2);
    micro "racy_counter(3x1)" (Micro.racy_counter ~threads:3 ~incs:1);
    micro "locked_counter(2x3)"
      (Micro.locked_counter ~threads:2 ~incs:3 ~yield_at_loop:false);
    micro "check_then_act(2)" (Micro.check_then_act ~threads:2);
    micro "single_transaction(3)" (Micro.single_transaction ~threads:3);
    reg "bank" ~threads:2 ~size:2; reg "philo" ~threads:3 ~size:1;
    reg "sparse" ~threads:2 ~size:1 ]

(* infer: two threads, small sizes, one fixed step budget. The first five
   are barrier/spin programs whose portfolio holds a schedule that starves
   into the budget (so the slowest schedule sets the round time); their
   yield sets match the 10 M default budget. The rest finish every
   schedule in milliseconds. An odd count with the cheap programs in the
   majority puts the median on one of them: the long ops swing with the
   load on the second core, the short ones far less. *)
let infer_max_steps = 200_000

let infer_inputs () =
  List.map
    (fun (name, threads, size) ->
      { name = Printf.sprintf "%s(t%d_s%d)" name threads size;
        src = registry_src name ~threads ~size; sched_seed = 0 })
    [ ("moldyn", 2, 2); ("hedc", 2, 2); ("queue", 2, 1); ("sor", 2, 2);
      ("elevator", 2, 2); ("philo", 2, 2); ("bank", 2, 2); ("crypt", 2, 2);
      ("raytracer", 2, 2); ("montecarlo", 2, 1); ("sparse", 2, 1) ]

(* --- canonical answers ------------------------------------------------ *)

(* A list of strings as "<count>:<md5 prefix>", so one line of
   expected.txt pins a verdict of any size. *)
let digest items =
  Printf.sprintf "%d:%s" (List.length items)
    (String.sub (Digest.to_hex (Digest.string (String.concat "\n" items))) 0 12)

let pipeline_answer (r : Coop_pipeline.result) =
  Printf.sprintf "violations=%s racy=%s"
    (digest
       (List.map
          (fun (v : Coop_core.Automaton.violation) ->
            Printf.sprintf "%d@%s" v.Coop_core.Automaton.tid
              (Loc.to_string v.Coop_core.Automaton.loc))
          r.Coop_pipeline.violations))
    (digest
       (List.map (Format.asprintf "%a" Event.pp_var)
          (Event.Var_set.elements r.Coop_pipeline.racy)))

let dpor_answer (r : Dpor.result) =
  Printf.sprintf "executions=%d behaviors=%s complete=%b" r.Dpor.executions
    (digest
       (List.map (Format.asprintf "%a" Behavior.pp)
          (Behavior.Set.elements r.Dpor.behaviors)))
    r.Dpor.complete

let infer_answer (r : Coop_core.Infer.result) =
  Printf.sprintf "yields=%s"
    (digest (List.map Loc.to_string (Loc.Set.elements r.Coop_core.Infer.yields)))

(* --- expected.txt ------------------------------------------------------ *)

(* One line per input: "<family> <key> <answer>", family being check
   (shared by replay, which analyses the same streams), dpor or infer. *)
let load_expected path =
  let tbl = Hashtbl.create 64 in
  let ic = open_in path in
  (try
     while true do
       let line = input_line ic in
       if line <> "" && line.[0] <> '#' then
         match String.index_opt line ' ' with
         | None -> ()
         | Some i -> (
             let rest = String.sub line (i + 1) (String.length line - i - 1) in
             match String.index_opt rest ' ' with
             | None -> ()
             | Some j ->
                 Hashtbl.replace tbl
                   (String.sub line 0 i ^ " " ^ String.sub rest 0 j)
                   (String.sub rest (j + 1) (String.length rest - j - 1)))
     done
   with End_of_file -> close_in ic);
  tbl
