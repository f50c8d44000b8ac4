(* oracle: write the benchmark's expected answers.

     dune build ./perfbench/oracle.exe
     ./_build/default/perfbench/oracle.exe > perfbench/expected.txt

   Every answer comes from a different engine than the one coopbench
   times: the two-pass pipeline instead of the single pass, stateless
   DPOR instead of the checkpointed explorer, and stateless inference on
   a one-domain pool instead of the prefix-sharing pooled one. It is a
   separate executable so the timed binary cannot reach these paths. *)

open Coop_runtime
open Inputs

let () =
  print_endline
    "# Expected answers, written by oracle.exe. Format: family key answer.";
  List.iter
    (fun i ->
      let r =
        Coop_pipeline.run ~two_pass:true
          (Runner.source
             ~sched:(fun () -> Sched.random ~seed:i.sched_seed ())
             (Coop_lang.Compile.source i.src))
      in
      Printf.printf "check %s %s\n%!" (key i) (pipeline_answer r))
    (all_check_inputs ());
  List.iter
    (fun i ->
      let r = Dpor.run ~no_cache:true (Coop_lang.Compile.source i.src) in
      Printf.printf "dpor %s %s\n%!" (key i) (dpor_answer r))
    (dpor_inputs ());
  let pool = Coop_util.Pool.create ~jobs:1 () in
  List.iter
    (fun i ->
      let r =
        Coop_core.Infer.infer ~pool ~no_cache:true ~max_steps:infer_max_steps
          (Coop_lang.Compile.source i.src)
      in
      Printf.printf "infer %s %s\n%!" (key i) (infer_answer r))
    (infer_inputs ());
  Coop_util.Pool.shutdown pool
