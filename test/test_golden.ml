(* Golden schedule digests. [sched_golden.txt] holds one line per
   (scheduler, workload, budget): the steps, termination, event count
   and an MD5 of the event stream followed by the final [Vm.key], as the
   runner produced them before it skipped credited draws inside the
   scheduler. Recomputing every line checks that the skip changed no
   draw: a different pick anywhere moves the digest. The schedulers are
   the inference portfolio plus cooperative and sequential; each
   workload runs to its end (or to [full_budget]) and once more with a
   budget that stops it while a thread has run ahead of its draws. *)

open Coop_trace
open Coop_runtime
open Coop_core

let golden_file = "sched_golden.txt"

(* Long enough for every workload below to finish under the preemptive
   schedulers; the spinning ones (sequential on a barrier) stop here. *)
let full_budget = 200_000

let schedulers =
  Infer.default_portfolio @ [ Sched.cooperative; (fun () -> Sched.sequential) ]

let workloads = [ ("philo", 3, 2); ("bank", 3, 3); ("sor", 2, 2); ("queue", 2, 2) ]

let program name =
  let _, threads, size = List.find (fun (n, _, _) -> n = name) workloads in
  Coop_workloads.Registry.program_of ~threads ~size
    (Option.get (Coop_workloads.Registry.find name))

let term = function
  | Runner.Completed -> "completed"
  | Runner.Deadlock -> "deadlock"
  | Runner.Step_limit -> "step-limit"

(* The digest part of a line: what one run under [sched] shows. *)
let digest ~max_steps sched prog =
  let buf = Buffer.create 65536 in
  let ppf = Format.formatter_of_buffer buf in
  let events = ref 0 in
  let sink e =
    incr events;
    Format.fprintf ppf "%a;" Event.pp e
  in
  let o = Runner.run ~max_steps ~sched ~sink prog in
  Format.pp_print_flush ppf ();
  Buffer.add_string buf (Vm.key o.Runner.final);
  Printf.sprintf "steps=%d term=%s events=%d md5=%s" o.Runner.steps
    (term o.Runner.termination) !events
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let line ~sched_name ~workload ~budget d =
  Printf.sprintf "%s %s %d %s" sched_name workload budget d

let read_lines file =
  let ic = open_in file in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (if l = "" then acc else l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* Every line recomputed from its own scheduler, workload and budget. *)
let test_recompute () =
  let by_name = List.map (fun f -> ((f ()).Sched.name, f)) schedulers in
  let lines = read_lines golden_file in
  List.iter
    (fun l ->
      match String.split_on_char ' ' l with
      | sched_name :: workload :: budget :: _ ->
          let budget = int_of_string budget in
          let sched =
            match List.assoc_opt sched_name by_name with
            | Some f -> f ()
            | None -> Alcotest.failf "unknown scheduler %s" sched_name
          in
          let d = digest ~max_steps:budget sched (program workload) in
          Alcotest.(check string) l l (line ~sched_name ~workload ~budget d)
      | _ -> Alcotest.failf "malformed line %S" l)
    lines;
  (* Every case is there once: each (scheduler, workload) pair has a
     full run and a cut one. *)
  List.iter
    (fun (sched_name, _) ->
      List.iter
        (fun (workload, _, _) ->
          let n =
            List.length
              (List.filter
                 (fun l ->
                   match String.split_on_char ' ' l with
                   | s :: w :: _ -> s = sched_name && w = workload
                   | _ -> false)
                 lines)
          in
          Alcotest.(check int) (sched_name ^ " " ^ workload) 2 n)
        workloads)
    by_name

let suite = [ Alcotest.test_case "schedule digests match the golden file" `Quick test_recompute ]
