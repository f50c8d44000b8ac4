(* coopcheck: command-line front end for the cooperability toolkit.

   Subcommands:
     run      - execute a program under a scheduler and print its output
     trace    - execute and dump the event trace
     check    - run the cooperability checker (races + violations)
     explain  - check and print the causal evidence behind every verdict
     infer    - infer the yield set and report annotation metrics
     atomize  - run the Atomizer-style atomicity baseline
     explore  - enumerate behaviours preemptively vs cooperatively
     list     - list built-in workloads
     dump     - disassemble the compiled bytecode *)

open Cmdliner
open Coop_runtime

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* A program argument is either a path to a .coop file or the name of a
   built-in workload (optionally at non-default parameters). *)
let load ~threads ~size spec =
  if Sys.file_exists spec then Coop_lang.Compile.source (read_file spec)
  else begin
    match Coop_workloads.Registry.find spec with
    | Some e -> Coop_workloads.Registry.program_of ?threads ?size e
    | None ->
        Printf.eprintf
          "coopcheck: %s is neither a file nor a built-in workload\n\
           (built-ins: %s)\n"
          spec
          (String.concat ", " Coop_workloads.Registry.names);
        exit 2
  end

(* Every malformed argument value — a flag's or an environment variable's,
   non-numeric, out of range, unknown spelling — exits 2 with one error
   shape naming the argument kind, where the value came from and what it
   wants. Arguments are taken as raw strings and validated here, because
   cmdliner's own conversions would exit 124 instead. *)
let invalid ~kind ~wants source arg =
  Printf.eprintf "coopcheck: invalid %s argument %S: %s wants %s\n" kind arg
    source wants;
  exit 2

let validate ~kind ~wants parse source arg =
  match parse arg with Some v -> v | None -> invalid ~kind ~wants source arg

let int_at_least lo s =
  match int_of_string_opt s with Some n when n >= lo -> Some n | _ -> None

let positive = "a positive integer"

(* A quantum below 1 would make round-robin spin forever and is rejected
   like any other malformed scheduler argument. *)
let scheduler_of = function
  | "cooperative" -> Sched.cooperative ()
  | "sequential" -> Sched.sequential
  | "random" -> Sched.random ~seed:42 ()
  | "rr" -> Sched.round_robin ~quantum:5 ()
  | s -> (
      let unknown () =
        Printf.eprintf
          "coopcheck: unknown scheduler %s (have: random[:seed], \
           rr[:quantum], cooperative, sequential)\n"
          s;
        exit 2
      in
      match String.index_opt s ':' with
      | Some i -> (
          let kind = String.sub s 0 i in
          let arg = String.sub s (i + 1) (String.length s - i - 1) in
          match kind with
          | "random" ->
              let seed =
                validate ~kind:"scheduler" ~wants:"a seed >= 0"
                  (int_at_least 0) "random" arg
              in
              Sched.random ~seed ()
          | "rr" ->
              let quantum =
                validate ~kind:"scheduler" ~wants:"a quantum >= 1"
                  (int_at_least 1) "rr" arg
              in
              Sched.round_robin ~quantum ()
          | _ -> unknown ())
      | None -> unknown ())

(* Common arguments *)

let prog_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"PROGRAM" ~doc:"A .coop file or a built-in workload name.")

let threads_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "t"; "threads" ] ~docv:"N" ~doc:"Worker threads (built-ins only).")

let size_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "s"; "size" ] ~docv:"N" ~doc:"Problem size (built-ins only).")

let sched_arg =
  Arg.(
    value & opt string "random:42"
    & info [ "sched" ] ~docv:"SCHED"
        ~doc:
          "Scheduler: random[:seed], rr[:quantum], cooperative, sequential.")

(* Exploration budgets (--max-steps, --max-states, --max-executions,
   --max-depth, --max-segment) go through [validate]: 0, negatives and
   garbage all exit 2. *)
let parse_budget ~flag =
  Option.map
    (validate ~kind:flag ~wants:positive Coop_util.Pool.parse_jobs
       ("--" ^ flag))

(* A validated budget option as an [int Term.t] (or [int option Term.t]
   without a default), so call sites stay oblivious to the raw-string
   plumbing. *)
let budget_opt_term ~flag ~doc =
  let name = flag in
  let arg =
    Arg.(value & opt (some string) None & info [ name ] ~docv:"N" ~doc)
  in
  Term.(const (fun s -> parse_budget ~flag s) $ arg)

let budget_term ~flag ~default ~doc =
  Term.(
    const (fun s -> Option.value s ~default) $ budget_opt_term ~flag ~doc)

let max_steps_arg =
  budget_term ~flag:"max-steps" ~default:10_000_000
    ~doc:"Step budget before giving up."

let two_pass_arg =
  Arg.(
    value & flag
    & info [ "two-pass" ]
        ~doc:
          "Use the historical two-pass checker (race pass first, mover \
           pass over a second replay) instead of the single-pass engine. \
           Same results, twice the streaming; kept as the reference \
           oracle. Requires a replayable input.")

(* --jobs and COOP_JOBS share Pool.parse_jobs through [validate]: 0, -3
   and "abc" all exit 2. *)
let jobs_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the parallel analyses (yield inference runs \
           its schedule portfolio concurrently; explore runs its \
           preemptive and cooperative searches side by side). Defaults to \
           \\$(b,COOP_JOBS), then the machine's domain count. 1 forces the \
           sequential path; results are identical either way.")

let validate_jobs =
  validate ~kind:"jobs" ~wants:positive Coop_util.Pool.parse_jobs

(* Resolve --jobs (> COOP_JOBS > recommended_domain_count) into the shared
   pool every parallel backend draws from, monitored when telemetry is on
   (so --profile carries the pool/* timer and histograms). A count the
   runtime cannot start (OCaml caps the number of live domains) is a bad
   jobs argument too, reported against whichever setting asked for it. *)
let pool_of_jobs jobs =
  Option.iter
    (fun s -> Coop_util.Pool.set_default_jobs (validate_jobs "--jobs" s))
    jobs;
  let pool =
    try Coop_util.Pool.shared ()
    with Invalid_argument _ as e ->
      let source, arg =
        match (jobs, Sys.getenv_opt "COOP_JOBS") with
        | Some s, _ -> ("--jobs", s)
        | None, Some s -> ("COOP_JOBS", s)
        | None, None -> raise e
      in
      invalid ~kind:"jobs" ~wants:"a domain count the runtime can start"
        source arg
  in
  if Coop_obs.enabled () then
    Coop_util.Pool.set_monitor pool (Some Coop_obs.pool_monitor);
  pool

(* A malformed COOP_JOBS is rejected up front rather than silently falling
   back to the machine's domain count. *)
let validate_env_jobs () =
  Option.iter
    (fun s -> ignore (validate_jobs "COOP_JOBS" s))
    (Sys.getenv_opt "COOP_JOBS")

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* --- trace files: formats, symbols, shared --trace plumbing ------------- *)

module Symtab = Coop_trace.Symtab
module Serialize = Coop_trace.Serialize
module Source = Coop_trace.Source

(* --format / --to: any spelling format_of_string rejects exits 2. *)
let format_of flag =
  Option.map
    (validate ~kind:"format" ~wants:"text or binary"
       Serialize.format_of_string flag)

let format_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "format" ] ~docv:"FMT"
        ~doc:
          "Wire format for --save: $(b,text) (one event per line, \
           greppable) or $(b,binary) (coop-trace/v1: length-prefixed \
           chunks over interned ids — decodes several times faster in \
           less than half the bytes). Every reader auto-detects, so the \
           choice only matters when writing. Default text.")

(* Saved traces carry the program's display names, so reports off a
   trace file can name functions and locks like reports off a live
   run. *)
let symtab_of_program (prog : Coop_lang.Bytecode.program) =
  let t = Symtab.create () in
  Array.iteri
    (fun i (f : Coop_lang.Bytecode.func) ->
      Symtab.set t Symtab.Func i f.Coop_lang.Bytecode.name)
    prog.Coop_lang.Bytecode.funcs;
  Array.iteri
    (fun i n -> Symtab.set t Symtab.Lock i n)
    prog.Coop_lang.Bytecode.lock_names;
  Array.iteri
    (fun i n -> Symtab.set t Symtab.Global i n)
    prog.Coop_lang.Bytecode.global_names;
  Array.iteri
    (fun i n -> Symtab.set t Symtab.Array i n)
    prog.Coop_lang.Bytecode.array_names;
  t

let from_trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Analyze a trace saved with `trace --save` — either format, \
           auto-detected — instead of running the program (which is then \
           ignored). The file is streamed incrementally, never loaded \
           whole. Use `-` to read a trace from standard input \
           (single-pass only).")

let opt_prog_arg =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"PROGRAM"
        ~doc:
          "A .coop file or a built-in workload name (optional when \
           --trace is given).")

let stdin_source ?syms () =
  set_binary_mode_in stdin true;
  Source.of_channel ?syms stdin

(* The shared --trace resolution: a saved file (re-streamable, either
   format), stdin (single-pass only — a pipe cannot be replayed), or a
   re-execution of the program under a fresh identically seeded
   scheduler. *)
let source_of ?syms ~command ~two_pass ~threads ~size ~sched ~max_steps
    ~from_trace spec =
  match from_trace with
  | Some "-" ->
      if two_pass then begin
        Printf.eprintf
          "coopcheck: --two-pass needs a replayable input; a piped trace \
           (--trace -) can only be read once\n";
        exit 2
      end;
      stdin_source ?syms ()
  | Some path -> Source.of_file ?syms path
  | None -> (
      match spec with
      | Some spec ->
          let prog = load ~threads ~size spec in
          Runner.source ~max_steps
            ~sched:(fun () -> scheduler_of sched)
            prog
      | None ->
          Printf.eprintf "coopcheck: %s wants a PROGRAM or --trace FILE\n"
            command;
          exit 2)

(* --- witnesses (the Coop_provenance surface) ---------------------------- *)

module Witness = Coop_provenance.Witness
module Json = Coop_util.Json

(* --witness: any spelling parse_mode rejects exits 2. *)
let witness_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "witness" ] ~docv:"MODE"
        ~doc:
          "Attach causal evidence to every verdict: the unordered access \
           pair and clock comparison behind each race, the commit point \
           behind each violation or atomicity warning, the forcing \
           violation behind each inferred yield. MODE is $(b,text) \
           (append the evidence to the report), $(b,json) (emit a \
           coop-witness/v1 document on stdout) or $(b,json:FILE) (write \
           the document to FILE; validate with `bench/main.exe \
           json-verify FILE`).")

let witness_mode_of =
  Option.map
    (validate ~kind:"witness" ~wants:"text, json or json:FILE"
       Witness.parse_mode "--witness")

(* Every coop-witness/v1 document leads with its schema and the
   subcommand that produced it, mirroring coop-obs/v1. *)
let witness_doc ~command fields =
  Json.Obj
    (("schema", Json.String Witness.schema)
    :: ("command", Json.String command)
    :: fields)

let emit_witness_doc dest doc =
  let s = Json.to_string doc in
  match dest with
  | None ->
      print_string s;
      print_newline ()
  | Some path -> write_file path s

let loc_string = Coop_trace.Loc.to_string

let cause_json (c : Coop_core.Online.cause) =
  Json.Obj
    [ ("seq", Json.Int c.Coop_core.Online.cseq);
      ("loc", Json.String (loc_string c.Coop_core.Online.cloc));
      ("op",
       Json.String
         (Format.asprintf "%a" Coop_trace.Event.pp_op c.Coop_core.Online.cop));
      ("mover", Json.String (Coop_core.Mover.to_string c.Coop_core.Online.cmover))
    ]

let opt_cause_json = function None -> Json.Null | Some c -> cause_json c

let pp_cause ppf (c : Coop_core.Online.cause) =
  Format.fprintf ppf "commit at %a (%s %a, event #%d)" Coop_trace.Loc.pp
    c.Coop_core.Online.cloc
    (Coop_core.Mover.to_string c.Coop_core.Online.cmover)
    Coop_trace.Event.pp_op c.Coop_core.Online.cop c.Coop_core.Online.cseq

let kind_string = function
  | Coop_race.Report.Write_write -> "write-write"
  | Coop_race.Report.Read_write -> "read-write"
  | Coop_race.Report.Write_read -> "write-read"

let race_json (r : Coop_race.Report.t) =
  Json.Obj
    [ ("var",
       Json.String
         (Format.asprintf "%a" Coop_trace.Event.pp_var r.Coop_race.Report.var));
      ("kind", Json.String (kind_string r.Coop_race.Report.kind));
      ("first_tid", Json.Int r.Coop_race.Report.first_tid);
      ("second_tid", Json.Int r.Coop_race.Report.second_tid);
      ("second_loc", Json.String (loc_string r.Coop_race.Report.second_loc));
      ("witness",
       match r.Coop_race.Report.witness with
       | Some w -> Witness.to_json w
       | None -> Json.Null) ]

let violation_json (v : Coop_core.Automaton.violation) =
  Json.Obj
    [ ("tid", Json.Int v.Coop_core.Automaton.tid);
      ("loc", Json.String (loc_string v.Coop_core.Automaton.loc));
      ("op",
       Json.String
         (Format.asprintf "%a" Coop_trace.Event.pp_op v.Coop_core.Automaton.op));
      ("mover",
       Json.String (Coop_core.Mover.to_string v.Coop_core.Automaton.mover));
      ("cause", opt_cause_json v.Coop_core.Automaton.cause) ]

(* Text-mode rendering: the evidence rides under its verdict, indented,
   so the default report shape is unchanged when --witness is off. *)
let print_race_witness wmode (race : Coop_race.Report.t) =
  match (wmode, race.Coop_race.Report.witness) with
  | Some Witness.Text, Some w -> Format.printf "    witness: %a@." Witness.pp w
  | _ -> ()

let print_cause wmode = function
  | Some c when wmode = Some Witness.Text ->
      Format.printf "    cause: %a@." pp_cause c
  | _ -> ()

(* The events/races/violations block of [check] and [explain]: every race,
   then the first violation at each location, each followed by the
   evidence lines the caller prints under it. *)
let print_verdicts (r : Coop_pipeline.result) ~race_evidence ~cause =
  Format.printf "events: %d@." r.Coop_pipeline.events;
  Format.printf "races: %d on %d variable(s)@."
    (List.length r.Coop_pipeline.races)
    (Coop_trace.Event.Var_set.cardinal r.Coop_pipeline.racy);
  List.iter
    (fun race ->
      Format.printf "  %a@." Coop_race.Report.pp race;
      race_evidence race)
    r.Coop_pipeline.races;
  let vs = r.Coop_pipeline.violations in
  Format.printf "cooperability violations: %d at %d location(s)@."
    (List.length vs)
    (Coop_trace.Loc.Set.cardinal (Coop_core.Cooperability.violation_locs vs));
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (v : Coop_core.Automaton.violation) ->
      if not (Hashtbl.mem seen v.Coop_core.Automaton.loc) then begin
        Hashtbl.add seen v.Coop_core.Automaton.loc ();
        Format.printf "  %a@." Coop_core.Automaton.pp_violation v;
        cause v.Coop_core.Automaton.cause
      end)
    vs

(* --- profiling (the Coop_obs surface) ----------------------------------- *)

type profile_opts = {
  p_table : bool;
  p_json : string option;
  p_chrome : string option;
}

let profile_term =
  let table_arg =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Record in-process telemetry and print the per-checker \
             attribution table (time per checker, share of the analysis \
             sink time, events, ns/event) plus counters, timers and \
             histogram digests.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "profile-json" ] ~docv:"FILE"
          ~doc:
            "Write the full telemetry snapshot (schema coop-obs/v1) to \
             FILE; validate with `bench/main.exe json-verify FILE`.")
  in
  let chrome_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome-trace" ] ~docv:"FILE"
          ~doc:
            "Write the recorded spans as Chrome trace_event JSON to FILE \
             (load in chrome://tracing or Perfetto; one thread per \
             domain).")
  in
  Term.(
    const (fun p_table p_json p_chrome -> { p_table; p_json; p_chrome })
    $ table_arg $ json_arg $ chrome_arg)

let profile_wanted p = p.p_table || p.p_json <> None || p.p_chrome <> None

let profile_setup p = if profile_wanted p then Coop_obs.enable ()

(* Emit the requested telemetry views. Called before any non-zero exit so
   a violating run still produces its profile. *)
let profile_emit p =
  if profile_wanted p then begin
    let snap = Coop_obs.snapshot () in
    if p.p_table then print_string (Coop_obs.render_summary snap);
    Option.iter
      (fun path ->
        write_file path (Coop_util.Json.to_string (Coop_obs.to_json snap)))
      p.p_json;
    Option.iter
      (fun path ->
        write_file path
          (Coop_util.Json.to_string (Coop_obs.chrome_trace snap)))
      p.p_chrome;
    Coop_obs.disable ()
  end

let run_outcome ~sched ~max_steps ?(yields = Coop_trace.Loc.Set.empty) prog =
  Runner.run ~yields ~max_steps ~sched:(scheduler_of sched)
    ~sink:Coop_trace.Trace.Sink.ignore prog

(* --- run --------------------------------------------------------------- *)

let run_cmd =
  let action spec threads size sched max_steps =
    let prog = load ~threads ~size spec in
    let o = run_outcome ~sched ~max_steps prog in
    List.iter (fun v -> Printf.printf "%d\n" v) (Vm.output o.Runner.final);
    List.iter
      (fun (tid, msg) -> Printf.printf "thread %d faulted: %s\n" tid msg)
      (Vm.failures o.Runner.final);
    Format.printf "[%a in %d steps]@." Runner.pp_termination
      o.Runner.termination o.Runner.steps
  in
  Cmd.v (Cmd.info "run" ~doc:"Execute a program and print its output.")
    Term.(const action $ prog_arg $ threads_arg $ size_arg $ sched_arg
          $ max_steps_arg)

(* --- trace ------------------------------------------------------------- *)

let trace_cmd =
  let dump ~limit ~timeline trace =
    if timeline then
      print_string
        (Coop_trace.Timeline.render_filtered ?max_events:limit
           ~keep:(fun e ->
             match e.Coop_trace.Event.op with
             | Coop_trace.Event.Enter _ | Coop_trace.Event.Exit _ -> false
             | _ -> true)
           trace)
    else begin
      let n = Coop_trace.Trace.length trace in
      let shown = match limit with Some l -> min l n | None -> n in
      for i = 0 to shown - 1 do
        Format.printf "%6d %a@." i Coop_trace.Event.pp
          (Coop_trace.Trace.get trace i)
      done;
      if shown < n then Format.printf "... (%d more events)@." (n - shown)
    end
  in
  let action spec threads size sched max_steps limit save timeline from_trace
      format =
    let format =
      Option.value (format_of "--format" format) ~default:Serialize.Text
    in
    match from_trace with
    | Some file ->
        (* Offline mode: dump (or re-encode) a saved trace instead of
           executing. *)
        let syms = Symtab.create () in
        let source =
          if file = "-" then stdin_source ~syms ()
          else Source.of_file ~syms file
        in
        let trace = Source.record source in
        (match save with
        | Some path ->
            Serialize.save ~format ~syms path trace;
            Format.printf "saved %d events to %s@."
              (Coop_trace.Trace.length trace)
              path
        | None -> dump ~limit ~timeline trace)
    | None -> (
        let prog =
          match spec with
          | Some spec -> load ~threads ~size spec
          | None ->
              Printf.eprintf "coopcheck: trace wants a PROGRAM or --trace FILE\n";
              exit 2
        in
        match save with
        | Some path ->
            (* Stream events straight to disk; the trace is never held in
               memory. *)
            let saved =
              Serialize.with_file_sink ~format ~syms:(symtab_of_program prog)
                path (fun sink ->
                  let n = ref 0 in
                  let counting e = incr n; sink e in
                  ignore
                    (Runner.run ~max_steps ~sched:(scheduler_of sched)
                       ~sink:counting prog);
                  !n)
            in
            Format.printf "saved %d events to %s@." saved path
        | None ->
            let _, trace =
              Runner.record ~max_steps ~sched:(scheduler_of sched) prog
            in
            dump ~limit ~timeline trace)
  in
  let limit_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "limit" ] ~docv:"N" ~doc:"Print only the first N events.")
  in
  let save_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE"
          ~doc:"Write the trace to FILE (reload with check --trace).")
  in
  let timeline_arg =
    Arg.(
      value & flag
      & info [ "timeline" ] ~doc:"Render per-thread swim lanes instead of a flat list.")
  in
  Cmd.v (Cmd.info "trace" ~doc:"Execute and dump the event trace.")
    Term.(const action $ opt_prog_arg $ threads_arg $ size_arg $ sched_arg
          $ max_steps_arg $ limit_arg $ save_arg $ timeline_arg
          $ from_trace_arg $ format_arg)

(* --- convert ------------------------------------------------------------ *)

let convert_cmd =
  let action src dst to_fmt =
    let to_fmt = format_of "--to" to_fmt in
    let syms = Symtab.create () in
    (* Materialize: conversion needs the symbol table before the first
       output byte (pragmas and name records lead), and src may be a
       pipe readable only once. *)
    let src_format, trace =
      if src = "-" then begin
        set_binary_mode_in stdin true;
        Serialize.of_string_any ~syms (In_channel.input_all stdin)
      end
      else
        let fmt = Source.format_of_file src in
        (fmt, Source.record (Source.of_file ~syms src))
    in
    let dst_format =
      match to_fmt with
      | Some f -> f
      | None -> (
          (* Round-trip by default: convert twice and you are back. *)
          match src_format with
          | Serialize.Text -> Serialize.Binary
          | Serialize.Binary -> Serialize.Text)
    in
    let summary oc =
      Printf.fprintf oc "converted %d events (%s -> %s)\n"
        (Coop_trace.Trace.length trace)
        (Serialize.format_to_string src_format)
        (Serialize.format_to_string dst_format)
    in
    if dst = "-" then begin
      set_binary_mode_out stdout true;
      print_string
        (match dst_format with
        | Serialize.Binary -> Coop_trace.Codec.to_string ~syms trace
        | Serialize.Text -> Serialize.to_string ~syms trace);
      (* stdout is the trace stream; the summary goes to stderr. *)
      summary stderr
    end
    else begin
      Serialize.save ~format:dst_format ~syms dst trace;
      summary stdout
    end
  in
  let src_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SRC"
          ~doc:
            "Trace file to read (either format, auto-detected), or `-` \
             for standard input.")
  in
  let dst_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"DST"
          ~doc:"File to write, or `-` for standard output.")
  in
  let to_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "to" ] ~docv:"FMT"
          ~doc:
            "Target format: $(b,text) or $(b,binary). Default: the \
             opposite of the source's format, so a bare convert \
             round-trips.")
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:
         "Convert a saved trace between the text and coop-trace/v1 binary \
          formats, display names included. Events and verdicts are \
          identical across formats; only the bytes change.")
    Term.(const action $ src_arg $ dst_arg $ to_arg)

(* --- check ------------------------------------------------------------- *)

let check_cmd =
  let action spec threads size sched max_steps from_trace two_pass
      witness profile =
    profile_setup profile;
    let wmode = witness_mode_of witness in
    (* All inputs are streamed, never materialized. *)
    let source =
      source_of ~command:"check" ~two_pass ~threads ~size ~sched ~max_steps
        ~from_trace spec
    in
    let r =
      Coop_pipeline.run ~two_pass ~witness:(wmode <> None) source
    in
    print_verdicts r ~race_evidence:(print_race_witness wmode)
      ~cause:(print_cause wmode);
    let vs = r.Coop_pipeline.violations in
    let dl = r.Coop_pipeline.deadlock in
    if dl.Coop_core.Deadlock.cycles <> [] then begin
      Format.printf "potential deadlocks (lock-order cycles):@.";
      List.iter
        (fun c -> Format.printf "  %a@." Coop_core.Deadlock.pp_cycle c)
        dl.Coop_core.Deadlock.cycles
    end;
    if vs = [] && dl.Coop_core.Deadlock.cycles = [] then
      Format.printf "program trace is COOPERABLE (and lock-order acyclic)@."
    else if vs = [] then
      Format.printf "program trace is cooperable, but see deadlock warnings@.";
    (match wmode with
    | Some (Witness.Json dest) ->
        emit_witness_doc dest
          (witness_doc ~command:"check"
             [ ("events", Json.Int r.Coop_pipeline.events);
               ("races", Json.List (List.map race_json r.Coop_pipeline.races));
               ("violations", Json.List (List.map violation_json vs)) ])
    | _ -> ());
    profile_emit profile;
    if vs <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Race + cooperability check of one execution. Exits 1 on violations.")
    Term.(const action $ opt_prog_arg $ threads_arg $ size_arg $ sched_arg
          $ max_steps_arg $ from_trace_arg $ two_pass_arg
          $ witness_arg $ profile_term)

(* --- explain ------------------------------------------------------------ *)

(* check with witnesses always on, plus the self-check: the trace is
   recorded (not streamed) so every race witness can be replayed through
   the vector-clock oracle — a verdict whose evidence fails there is a
   detector bug, and explain says so loudly. *)
let explain_cmd =
  let action spec threads size sched max_steps from_trace two_pass
      witness profile =
    profile_setup profile;
    let wmode = witness_mode_of witness in
    (* The oracle replays the trace, so explain always materializes it —
       which is also what lets a piped trace through, --two-pass
       included: one read suffices, and the recording replays. *)
    let trace =
      match from_trace with
      | Some "-" -> Source.record (stdin_source ())
      | Some path -> Source.record (Source.of_file path)
      | None -> (
          match spec with
          | Some spec ->
              let prog = load ~threads ~size spec in
              snd (Runner.record ~max_steps ~sched:(scheduler_of sched) prog)
          | None ->
              Printf.eprintf
                "coopcheck: explain wants a PROGRAM or --trace FILE\n";
              exit 2)
    in
    let r =
      Coop_pipeline.run ~two_pass ~witness:true (Source.of_trace trace)
    in
    (* One oracle replay serves every witness on this trace; each race
       is checked as it is printed. *)
    let clocks = Coop_race.Witness_check.oracle trace in
    let verdicts = ref [] in
    print_verdicts r
      ~race_evidence:(fun race ->
        (match race.Coop_race.Report.witness with
        | Some w -> Format.printf "    witness: %a@." Witness.pp w
        | None -> ());
        let verdict = Coop_race.Witness_check.check_report ~clocks trace race in
        verdicts := (race, verdict) :: !verdicts;
        match verdict with
        | Ok () -> Format.printf "    hb-check: verified@."
        | Error e -> Format.printf "    hb-check: FAILED (%s)@." e)
      ~cause:(function
        | Some c -> Format.printf "    cause: %a@." pp_cause c
        | None -> ());
    let verdicts = List.rev !verdicts in
    let vs = r.Coop_pipeline.violations in
    let failed =
      List.filter (fun (_, verdict) -> Result.is_error verdict) verdicts
    in
    Format.printf "witness self-check: %d/%d race witness(es) verified@."
      (List.length verdicts - List.length failed)
      (List.length verdicts);
    (match wmode with
    | Some (Witness.Json dest) ->
        let race_entry (race, verdict) =
          match race_json race with
          | Json.Obj fields ->
              Json.Obj
                (fields @ [ ("verified", Json.Bool (Result.is_ok verdict)) ])
          | j -> j
        in
        emit_witness_doc dest
          (witness_doc ~command:"explain"
             [ ("events", Json.Int r.Coop_pipeline.events);
               ("races", Json.List (List.map race_entry verdicts));
               ("violations", Json.List (List.map violation_json vs)) ])
    | _ -> ());
    profile_emit profile;
    if failed <> [] then begin
      List.iter
        (fun ((race : Coop_race.Report.t), verdict) ->
          match verdict with
          | Error e ->
              Format.eprintf "coopcheck: witness self-check failed for %a: %s@."
                Coop_race.Report.pp race e
          | Ok () -> ())
        failed;
      exit 1
    end;
    if vs <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Check one execution with witnesses on and print the causal \
          evidence behind every verdict: the unordered access pair (and \
          clock comparison) behind each race — replayed through the \
          happens-before oracle as a self-check — and the commit point \
          behind each violation. Exits 1 on violations or a failed \
          self-check.")
    Term.(const action $ opt_prog_arg $ threads_arg $ size_arg $ sched_arg
          $ max_steps_arg $ from_trace_arg $ two_pass_arg
          $ witness_arg $ profile_term)

(* --- infer ------------------------------------------------------------- *)

(* Trace-mode inference: with no program to re-execute there is no
   fixpoint — one single-pass analysis of the recorded execution, whose
   distinct violation locations are exactly what round 0 of the full
   inference would plant yields at. A lower bound on the final yield
   set, reported as round 0 under schedule "trace"; the re-execution
   metrics are unavailable and skipped. *)
let infer_from_trace ~wmode file =
  let syms = Symtab.create () in
  let source =
    if file = "-" then stdin_source ~syms () else Source.of_file ~syms file
  in
  let r = Coop_pipeline.run ~witness:(wmode <> None) source in
  let vs = r.Coop_pipeline.violations in
  let yields = Coop_core.Cooperability.violation_locs vs in
  Format.printf "initial violations: %d@." (List.length vs);
  Format.printf "inference rounds: 0 (trace mode: no re-execution)@.";
  Format.printf "inferred yields: %d@." (Coop_trace.Loc.Set.cardinal yields);
  let viol_at l =
    List.find_opt
      (fun (v : Coop_core.Automaton.violation) ->
        Coop_trace.Loc.equal v.Coop_core.Automaton.loc l)
      vs
  in
  Coop_trace.Loc.Set.iter
    (fun l ->
      let fname =
        match Symtab.find syms Symtab.Func l.Coop_trace.Loc.func with
        | Some name -> name
        | None -> Printf.sprintf "f%d" l.Coop_trace.Loc.func
      in
      Format.printf "  yield before %s line %d (%a)@." fname
        l.Coop_trace.Loc.line Coop_trace.Loc.pp l;
      match (wmode, viol_at l) with
      | Some Witness.Text, Some v ->
          Format.printf "    forced by trace in round 0: %a@."
            Coop_core.Automaton.pp_violation v;
          print_cause wmode v.Coop_core.Automaton.cause
      | _ -> ())
    yields;
  match wmode with
  | Some (Witness.Json dest) ->
      let yield_json l (v : Coop_core.Automaton.violation) =
        Json.Obj
          [ ("loc", Json.String (loc_string l));
            ("round", Json.Int 0);
            ("sched", Json.String "trace");
            ("violation", violation_json v) ]
      in
      let yields_json =
        Coop_trace.Loc.Set.fold
          (fun l acc ->
            match viol_at l with Some v -> yield_json l v :: acc | None -> acc)
          yields []
        |> List.rev
      in
      emit_witness_doc dest
        (witness_doc ~command:"infer"
           [ ("rounds", Json.Int 0); ("yields", Json.List yields_json) ])
  | _ -> ()

(* --no-cache / --stats are shared by explore and infer. *)
let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:
          "With $(b,--dpor) and for $(b,infer): keep no replay-elision \
           checkpoints and re-derive every prefix from the initial state \
           (the stateless differential oracle). Identical results, more \
           re-executed work. The stateful explorer keeps no checkpoints, \
           so it ignores the flag.")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "After the report, print a replay-elision table: executions, \
           novel vs replayed steps, cache hit rate and peak checkpoint \
           bytes (states and novel steps for the stateful explorer).")

(* A replay-elision statistics table of (metric, value) rows. *)
let print_replay_stats ~title rows =
  let t =
    Coop_util.Table.create
      ~headers:
        [ ("metric", Coop_util.Table.Left); ("value", Coop_util.Table.Right) ]
  in
  List.iter (fun (k, v) -> Coop_util.Table.add_row t [ k; v ]) rows;
  Coop_util.Table.print ~title t

(* The hit rate and peak bytes of a checkpoint budget ([None] when
   caching was off). *)
let ckpt_rows = function
  | None -> [ ("cache hit rate", "off"); ("peak checkpoint bytes", "0") ]
  | Some s ->
      let open Coop_util.Ckpt_cache in
      let total = s.hits + s.misses in
      [ ( "cache hit rate",
          if total = 0 then "n/a"
          else
            Printf.sprintf "%.1f%%"
              (100. *. float_of_int s.hits /. float_of_int total) );
        ("peak checkpoint bytes", string_of_int s.peak_bytes) ]

let infer_cmd =
  let action spec threads size max_steps max_executions max_depth no_cache
      stats jobs witness profile from_trace =
    profile_setup profile;
    let wmode = witness_mode_of witness in
    match from_trace with
    | Some file ->
        infer_from_trace ~wmode file;
        profile_emit profile
    | None ->
    let prog =
      match spec with
      | Some spec -> load ~threads ~size spec
      | None ->
          Printf.eprintf "coopcheck: infer wants a PROGRAM or --trace FILE\n";
          exit 2
    in
    let pool = pool_of_jobs jobs in
    (* Budget mapping for the inference engine: --max-executions caps the
       total portfolio runs (rounded down to whole rounds, at least one);
       --max-depth bounds the transitions of any single run, tightening
       --max-steps. *)
    let max_rounds =
      Option.map
        (fun n ->
          max 1 (n / List.length Coop_core.Infer.default_portfolio))
        max_executions
    in
    let max_steps =
      match max_depth with None -> max_steps | Some d -> min max_steps d
    in
    let ckpt =
      if no_cache then None else Some (Coop_core.Infer.prefix_cache ())
    in
    let inf =
      Coop_core.Infer.infer ~pool ?max_rounds ~max_steps ~no_cache ?ckpt prog
    in
    Format.printf "initial violations: %d@."
      inf.Coop_core.Infer.initial_violations;
    Format.printf "inference rounds: %d@." inf.Coop_core.Infer.rounds;
    Format.printf "inferred yields: %d@."
      (Coop_trace.Loc.Set.cardinal inf.Coop_core.Infer.yields);
    (* The witness chain lives on the inference result: per yield, the
       round, schedule and first violation that forced it. *)
    let witness_of_loc l =
      List.find_opt
        (fun (yw : Coop_core.Infer.yield_witness) ->
          Coop_trace.Loc.equal yw.Coop_core.Infer.yw_loc l)
        inf.Coop_core.Infer.witnesses
    in
    Coop_trace.Loc.Set.iter
      (fun l ->
        let f = prog.Coop_lang.Bytecode.funcs.(l.Coop_trace.Loc.func) in
        Format.printf "  yield before %s line %d (%a)@."
          f.Coop_lang.Bytecode.name l.Coop_trace.Loc.line Coop_trace.Loc.pp l;
        match (wmode, witness_of_loc l) with
        | Some Witness.Text, Some yw ->
            Format.printf "    forced by %s in round %d: %a@."
              yw.Coop_core.Infer.yw_sched yw.Coop_core.Infer.yw_round
              Coop_core.Automaton.pp_violation yw.Coop_core.Infer.yw_viol;
            print_cause wmode yw.Coop_core.Infer.yw_viol.Coop_core.Automaton.cause
        | _ -> ())
      inf.Coop_core.Infer.yields;
    (match wmode with
    | Some (Witness.Json dest) ->
        let yield_json (yw : Coop_core.Infer.yield_witness) =
          Json.Obj
            [ ("loc", Json.String (loc_string yw.Coop_core.Infer.yw_loc));
              ("round", Json.Int yw.Coop_core.Infer.yw_round);
              ("sched", Json.String yw.Coop_core.Infer.yw_sched);
              ("violation", violation_json yw.Coop_core.Infer.yw_viol) ]
        in
        emit_witness_doc dest
          (witness_doc ~command:"infer"
             [ ("rounds", Json.Int inf.Coop_core.Infer.rounds);
               ("yields",
                Json.List
                  (List.map yield_json inf.Coop_core.Infer.witnesses)) ])
    | _ -> ());
    let _, m =
      Runner.analyze ~yields:inf.Coop_core.Infer.yields ~max_steps
        ~sched:(Sched.random ~seed:17 ())
        (Coop_core.Metrics.analysis prog ~inferred:inf.Coop_core.Infer.yields ())
        prog
    in
    Format.printf "%a@." Coop_core.Metrics.pp m;
    if stats then begin
      let executions =
        inf.Coop_core.Infer.rounds
        * List.length Coop_core.Infer.default_portfolio
      in
      print_replay_stats ~title:"replay elision (infer)"
        ([ ("rounds", string_of_int inf.Coop_core.Infer.rounds);
          ("schedule executions", string_of_int executions);
          ("events analyzed", string_of_int inf.Coop_core.Infer.events_analyzed);
          ("prefix events", string_of_int inf.Coop_core.Infer.prefix_events);
          ("elided events", string_of_int inf.Coop_core.Infer.elided_events);
          ("cache hits", string_of_int inf.Coop_core.Infer.cache_hits) ]
        @ ckpt_rows (Option.map Coop_util.Ckpt_cache.stats ckpt))
    end;
    profile_emit profile
  in
  Cmd.v
    (Cmd.info "infer"
       ~doc:
         "Infer the yield set and report annotation metrics. With --trace, \
          report the violation locations of the recorded execution as the \
          round-0 yield set (no re-execution, so no fixpoint or metrics).")
    Term.(const action $ opt_prog_arg $ threads_arg $ size_arg $ max_steps_arg
          $ budget_opt_term ~flag:"max-executions"
              ~doc:
                "Cap the total portfolio schedule executions across \
                 inference rounds (rounded down to whole rounds)."
          $ budget_opt_term ~flag:"max-depth"
              ~doc:
                "Transition budget for any single portfolio run (tightens \
                 --max-steps)."
          $ no_cache_arg $ stats_arg $ jobs_arg $ witness_arg $ profile_term
          $ from_trace_arg)

(* --- atomize ------------------------------------------------------------ *)

let atomize_cmd =
  let action spec threads size sched max_steps from_trace two_pass
      witness profile =
    profile_setup profile;
    let wmode = witness_mode_of witness in
    let source =
      source_of ~command:"atomize" ~two_pass ~threads ~size ~sched ~max_steps
        ~from_trace spec
    in
    let p =
      Coop_pipeline.run ~atomize:true ~conflict:true ~two_pass
        ~witness:(wmode <> None) source
    in
    let r = Option.get p.Coop_pipeline.atomizer in
    Format.printf "transactions: %d, violated: %d@."
      r.Coop_atomicity.Atomizer.activations
      r.Coop_atomicity.Atomizer.violated_activations;
    Format.printf "atomicity warnings: %d in %d function(s)@."
      (List.length r.Coop_atomicity.Atomizer.warnings)
      (List.length r.Coop_atomicity.Atomizer.flagged_functions);
    let shown = ref 0 in
    List.iter
      (fun (w : Coop_atomicity.Atomizer.warning) ->
        if !shown < 20 then begin
          incr shown;
          Format.printf "  %a@." Coop_atomicity.Atomizer.pp_warning w;
          print_cause wmode w.Coop_atomicity.Atomizer.cause
        end)
      r.Coop_atomicity.Atomizer.warnings;
    let c = Option.get p.Coop_pipeline.conflict in
    Format.printf
      "conflict graph: %d transactions, %d edges, serializable=%b@."
      c.Coop_atomicity.Conflict.transactions c.Coop_atomicity.Conflict.edges
      (not c.Coop_atomicity.Conflict.cyclic);
    (match wmode with
    | Some (Witness.Json dest) ->
        let txn_json = function
          | Coop_atomicity.Atomizer.Func i -> Json.Obj [ ("func", Json.Int i) ]
          | Coop_atomicity.Atomizer.Block l ->
              Json.Obj [ ("block", Json.String (loc_string l)) ]
        in
        let warning_json (w : Coop_atomicity.Atomizer.warning) =
          Json.Obj
            [ ("tid", Json.Int w.Coop_atomicity.Atomizer.tid);
              ("txn", txn_json w.Coop_atomicity.Atomizer.txn);
              ("loc", Json.String (loc_string w.Coop_atomicity.Atomizer.loc));
              ("op",
               Json.String
                 (Format.asprintf "%a" Coop_trace.Event.pp_op
                    w.Coop_atomicity.Atomizer.op));
              ("mover",
               Json.String
                 (Coop_core.Mover.to_string w.Coop_atomicity.Atomizer.mover));
              ("cause", opt_cause_json w.Coop_atomicity.Atomizer.cause) ]
        in
        emit_witness_doc dest
          (witness_doc ~command:"atomize"
             [ ("warnings",
                Json.List
                  (List.map warning_json r.Coop_atomicity.Atomizer.warnings))
             ])
    | _ -> ());
    profile_emit profile
  in
  Cmd.v
    (Cmd.info "atomize" ~doc:"Atomicity baseline (Atomizer + conflict graph).")
    Term.(const action $ opt_prog_arg $ threads_arg $ size_arg $ sched_arg
          $ max_steps_arg $ from_trace_arg $ two_pass_arg
          $ witness_arg $ profile_term)

(* --- explore ------------------------------------------------------------ *)

let explore_cmd =
  let action spec threads size max_states max_executions max_depth max_segment
      with_inferred use_dpor no_cache stats jobs profile =
    (* The DPOR budgets mean nothing to the stateful explorer: asking for
       one without --dpor is a malformed invocation, not a no-op. *)
    if not use_dpor then
      List.iter
        (fun (flag, v) ->
          Option.iter
            (fun n ->
              invalid ~kind:flag ~wants:"--dpor" ("--" ^ flag)
                (string_of_int n))
            v)
        [ ("max-executions", max_executions); ("max-depth", max_depth) ];
    profile_setup profile;
    let prog = load ~threads ~size spec in
    let pool = pool_of_jobs jobs in
    let yields =
      if with_inferred then
        (Coop_core.Infer.infer ~pool prog).Coop_core.Infer.yields
      else Coop_trace.Loc.Set.empty
    in
    if use_dpor then begin
      (* One explicit budget per invocation so --stats can read its
         counters afterwards; omitted entirely when the oracle path is
         requested. *)
      let ckpt = if no_cache then None else Some (Dpor.default_cache ()) in
      (* DPOR counts executions, not states: --max-executions defaults to
         the --max-states budget, as before the flags were split. *)
      let max_executions = Option.value max_executions ~default:max_states in
      let r =
        Dpor.run ~yields ~max_executions ?max_depth ?max_segment
          ~no_cache ?ckpt prog
      in
      Format.printf "dpor: %d executions, %d transitions, complete=%b@."
        r.Dpor.executions r.Dpor.steps r.Dpor.complete;
      Behavior.Set.iter
        (fun b -> Format.printf "  %a@." Behavior.pp b)
        r.Dpor.behaviors;
      if stats then
        print_replay_stats ~title:"replay elision (dpor)"
          ([ ("executions", string_of_int r.Dpor.executions);
             ("novel steps", string_of_int r.Dpor.novel_steps);
             ("replayed steps", string_of_int r.Dpor.replayed_steps);
             ("total steps", string_of_int r.Dpor.steps);
             ("cache hits", string_of_int r.Dpor.cache_hits) ]
          @ ckpt_rows (Option.map Coop_util.Ckpt_cache.stats ckpt))
    end
    else begin
      ignore (no_cache : bool);
      let v =
        Coop_core.Equivalence.compare ~pool ~yields ~max_states ?max_segment
          prog
      in
      Format.printf "%a@." Coop_core.Equivalence.pp v;
      Behavior.Set.iter
        (fun b -> Format.printf "  preemptive:  %a@." Behavior.pp b)
        v.Coop_core.Equivalence.preemptive.Explore.behaviors;
      Behavior.Set.iter
        (fun b -> Format.printf "  cooperative: %a@." Behavior.pp b)
        v.Coop_core.Equivalence.cooperative.Explore.behaviors;
      if stats then begin
        let pre = v.Coop_core.Equivalence.preemptive in
        let coop = v.Coop_core.Equivalence.cooperative in
        print_replay_stats ~title:"replay elision (explore)"
          [ ("states (preemptive)", string_of_int pre.Explore.states);
            ("states (cooperative)", string_of_int coop.Explore.states);
            ( "novel steps",
              string_of_int
                (pre.Explore.novel_steps + coop.Explore.novel_steps) ) ]
      end
    end;
    profile_emit profile
  in
  let max_states_arg =
    budget_term ~flag:"max-states" ~default:200_000
      ~doc:"State budget for exploration."
  in
  let with_inferred_arg =
    Arg.(
      value & flag
      & info [ "with-inferred-yields" ]
          ~doc:"Infer yields first and explore with them injected.")
  in
  let dpor_arg =
    Arg.(
      value & flag
      & info [ "dpor" ]
          ~doc:
            "Use stateless sleep-set DPOR instead of the stateful DFS \
             (preemptive behaviours only; terminating programs only).")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:"Enumerate behaviours under preemptive vs cooperative scheduling.")
    Term.(const action $ prog_arg $ threads_arg $ size_arg $ max_states_arg
          $ budget_opt_term ~flag:"max-executions"
              ~doc:
                "Execution budget for the DPOR explorer (defaults to the \
                 --max-states value). Requires $(b,--dpor)."
          $ budget_opt_term ~flag:"max-depth"
              ~doc:
                "Transition budget per DPOR execution (default 10_000). \
                 Requires $(b,--dpor)."
          $ budget_opt_term ~flag:"max-segment"
              ~doc:
                "Invisible-instruction fuel per scheduling decision \
                 (default 100_000)."
          $ with_inferred_arg $ dpor_arg $ no_cache_arg $ stats_arg
          $ jobs_arg $ profile_term)

(* --- static ------------------------------------------------------------- *)

let static_cmd =
  let action spec threads size =
    let prog = load ~threads ~size spec in
    let r = Coop_static.Check.infer prog in
    Format.printf "static may-racy regions: %d@."
      (List.length r.Coop_static.Check.races.Coop_static.Races.racy);
    List.iter
      (fun region ->
        Format.printf "  %a@." (Coop_static.Races.pp_region prog) region)
      r.Coop_static.Check.races.Coop_static.Races.racy;
    Format.printf "shared lock groups: %s@."
      (String.concat ", "
         (List.map
            (fun g -> prog.Coop_lang.Bytecode.lock_names.(g))
            r.Coop_static.Check.races.Coop_static.Races.shared_groups));
    Format.printf "static violations: %d@."
      (List.length r.Coop_static.Check.violations);
    Format.printf "static yields: %d (in %d rounds)@."
      (Coop_trace.Loc.Set.cardinal r.Coop_static.Check.yields)
      r.Coop_static.Check.rounds;
    Coop_trace.Loc.Set.iter
      (fun l ->
        Format.printf "  yield before %s line %d (%a)@."
          prog.Coop_lang.Bytecode.funcs.(l.Coop_trace.Loc.func)
            .Coop_lang.Bytecode.name l.Coop_trace.Loc.line Coop_trace.Loc.pp l)
      r.Coop_static.Check.yields
  in
  Cmd.v
    (Cmd.info "static"
       ~doc:
         "Purely static cooperability analysis (no execution): abstract \
          lockset dataflow, may-race regions, static yield inference.")
    Term.(const action $ prog_arg $ threads_arg $ size_arg)

(* --- list / dump -------------------------------------------------------- *)

let list_cmd =
  let action () =
    let t =
      Coop_util.Table.create
        ~headers:
          [ ("workload", Coop_util.Table.Left);
            ("threads", Coop_util.Table.Right);
            ("size", Coop_util.Table.Right);
            ("description", Coop_util.Table.Left) ]
    in
    List.iter
      (fun (e : Coop_workloads.Registry.entry) ->
        Coop_util.Table.add_row t
          [ e.Coop_workloads.Registry.name;
            string_of_int e.Coop_workloads.Registry.default_threads;
            string_of_int e.Coop_workloads.Registry.default_size;
            e.Coop_workloads.Registry.description ])
      Coop_workloads.Registry.all;
    Coop_util.Table.print ~title:"Built-in workloads (defaults shown)" t
  in
  Cmd.v (Cmd.info "list" ~doc:"List built-in workloads.")
    Term.(const action $ const ())

let dump_cmd =
  let action spec threads size =
    let prog = load ~threads ~size spec in
    print_string (Coop_lang.Bytecode.disassemble prog)
  in
  Cmd.v (Cmd.info "dump" ~doc:"Disassemble the compiled bytecode.")
    Term.(const action $ prog_arg $ threads_arg $ size_arg)

let () =
  validate_env_jobs ();
  let info =
    Cmd.info "coopcheck" ~version:"1.0.0"
      ~doc:"Cooperative reasoning for preemptive execution"
  in
  let group =
    Cmd.group info
      [ run_cmd; trace_cmd; convert_cmd; check_cmd; explain_cmd; infer_cmd;
        atomize_cmd; explore_cmd; static_cmd; list_cmd; dump_cmd ]
  in
  (* Uniform trace-error surface: whatever subcommand touched a trace,
     a malformed or truncated file exits 2 with the decoder's position
     ("(line N)" for text, "(byte N)" for binary) rather than dying
     with a backtrace. ~catch:false keeps cmdliner from eating the
     exceptions first. *)
  match Cmd.eval ~catch:false group with
  | exception Coop_trace.Wire.Parse_error (msg, _) ->
      Printf.eprintf "coopcheck: malformed trace: %s\n" msg;
      exit 2
  | exception Coop_trace.Wire.Encode_error msg ->
      Printf.eprintf "coopcheck: %s\n" msg;
      exit 2
  | exception Sys_error msg ->
      Printf.eprintf "coopcheck: %s\n" msg;
      exit 2
  | code -> exit code
