(** Machine-checking race witnesses against the happens-before oracle.

    A {!Coop_provenance.Witness.Race} names two trace positions and two
    clock components; this module replays the witnessed slice through
    the {!Naive_hb} vector-clock oracle and confirms that the claimed
    evidence is real: the positions hold the claimed accesses, the
    recorded clock components match the oracle's, and the comparison
    proves the pair unordered.

    This is the "self-check mode" of [coopcheck explain] and the
    backbone of the witness differential test suite: a verdict whose
    witness fails here is a detector bug, not a prose disagreement. *)

open Coop_trace

type oracle = Vclock.Persistent.t array
(** Per-event thread clocks, as computed by {!Naive_hb.event_clocks}. *)

val oracle : Trace.t -> oracle
(** [Naive_hb.event_clocks], re-exported so callers checking many
    witnesses against one trace pay for the replay once. *)

val check_report :
  clocks:oracle -> Trace.t -> Report.t -> (unit, string) result
(** Check one report's witness against the trace it was produced from.
    [Error] carries a human-readable reason: no witness attached, a
    position out of range or holding the wrong event, a clock component
    that disagrees with the oracle, or an ordered pair. *)

val check_all : Trace.t -> Report.t list -> (int, string) result
(** Check every report (computing the oracle once); [Ok n] is the number
    of witnesses verified, [Error] the first failure. *)
