open Coop_trace
module P = Vclock.Persistent
module W = Coop_provenance.Witness

type oracle = P.t array

let oracle = Naive_hb.event_clocks

let err fmt = Format.kasprintf (fun s -> Error s) fmt

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

(* Check that a witnessed access names a real trace position holding the
   claimed event: right thread, right location, an access to the racy
   variable of the claimed kind. Returns the event for clock checks. *)
let check_access trace var (a : W.access) ~want_write ~role =
  let n = Trace.length trace in
  let i = a.W.a_seq - 1 in
  if i < 0 || i >= n then
    err "%s access position %d out of range (trace has %d events)" role
      a.W.a_seq n
  else
    let e = Trace.get trace i in
    if e.Event.tid <> a.W.a_tid then
      err "%s access at position %d: thread t%d recorded but trace has t%d"
        role a.W.a_seq a.W.a_tid e.Event.tid
    else if not (Loc.equal e.Event.loc a.W.a_loc) then
      err "%s access at position %d: location %s recorded but trace has %s"
        role a.W.a_seq (Loc.to_string a.W.a_loc) (Loc.to_string e.Event.loc)
    else
      let ok =
        match (e.Event.op, want_write) with
        | Event.Write v, true | Event.Read v, false -> Event.equal_var v var
        | _ -> false
      in
      if ok then Ok e
      else
        err "%s access at position %d is not a %s of the racy variable" role
          a.W.a_seq
          (if want_write then "write" else "read")

(* A race witness must point at two conflicting accesses the oracle deems
   unordered, and its recorded clock components must match the oracle's. *)
let check_race ~clocks trace (r : Report.t) (w : W.race) =
  let first_write, second_write =
    match r.Report.kind with
    | Report.Write_write -> (true, true)
    | Report.Read_write -> (false, true)
    | Report.Write_read -> (true, false)
  in
  let* ef =
    check_access trace r.Report.var w.W.r_first ~want_write:first_write
      ~role:"first"
  in
  let* _es =
    check_access trace r.Report.var w.W.r_second
      ~want_write:second_write ~role:"second"
  in
  if w.W.r_first.W.a_seq >= w.W.r_second.W.a_seq then
    err "witness accesses out of trace order (%d >= %d)" w.W.r_first.W.a_seq
      w.W.r_second.W.a_seq
  else
    let ftid = ef.Event.tid in
    let first_clock = P.get clocks.(w.W.r_first.W.a_seq - 1) ftid in
    let second_sees = P.get clocks.(w.W.r_second.W.a_seq - 1) ftid in
    if first_clock <> w.W.r_first_clock then
      err "first access clock mismatch: witness says t%d@%d, oracle says %d"
        ftid w.W.r_first_clock first_clock
    else if second_sees <> w.W.r_second_sees then
      err "second access view mismatch: witness says it sees t%d@%d, oracle \
           says %d"
        ftid w.W.r_second_sees second_sees
    else if first_clock <= second_sees then
      err "accesses are ordered: second access sees t%d@%d >= first's clock %d"
        ftid second_sees first_clock
    else Ok ()

let check_report ~clocks trace (r : Report.t) =
  match r.Report.witness with
  | None -> err "report on %a carries no witness" Event.pp_var r.Report.var
  | Some (W.Race w) -> check_race ~clocks trace r w

let check_all trace reports =
  let clocks = oracle trace in
  List.fold_left
    (fun acc r ->
      let* n = acc in
      let* () = check_report ~clocks trace r in
      Ok (n + 1))
    (Ok 0) reports
