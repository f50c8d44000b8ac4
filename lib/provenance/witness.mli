(** First-class witnesses: the causal evidence behind a verdict.

    Every verdict the toolchain emits — "these two accesses race", "a
    yield is missing here" — is backed by a small, machine-checkable
    record of {e why} it holds. This module owns the shape that only
    needs trace vocabulary (locations, variables, thread ids): the
    happens-before access pair behind a FastTrack race. The Eraser
    lockset baseline is an offline ablation and carries no evidence.
    Commit-point causes for mover violations live with the
    transaction engine ([Coop_core.Online.cause]), which owns the mover
    vocabulary.

    Witnesses are plain data: capturing them is optional (detectors take
    a [?witness] flag and pay nothing when it is off), comparing them is
    structural, and serializing them is the [coop-witness/v1] JSON
    schema emitted here and validated by [bench/main.exe json-verify].
    The HB self-check that replays a race witness against the vector
    clock oracle lives in [Coop_race.Witness_check] (it needs the
    oracle). *)

open Coop_trace

type access = {
  a_tid : int;  (** Original thread id of the access. *)
  a_seq : int;  (** 1-based global position in the event stream. *)
  a_loc : Loc.t;  (** Source location of the access. *)
}
(** One end of an evidence pair. [a_seq] indexes the stream the verdict
    was produced from: event [a_seq - 1] of the materialized trace. *)

type race = {
  r_first : access;  (** The earlier conflicting access. *)
  r_second : access;  (** The access that exposed the race. *)
  r_first_clock : int;
      (** The first thread's own clock component at its access (the
          epoch FastTrack stored). *)
  r_second_sees : int;
      (** The second thread's view of the first thread's clock at the
          second access. [r_second_sees < r_first_clock] is exactly
          "first does not happen-before second"; trace order gives the
          other direction, so the pair is concurrent. *)
}
(** Evidence for a happens-before race: the two conflicting accesses and
    the clock comparison that proves them unordered. *)

type t = Race of race
(** A witness, tagged ["race"] in JSON. *)

val pp : Format.formatter -> t -> unit
(** One-line human-readable evidence, e.g.
    ["t0#12 @.. clock 3, t1#20 @.. sees 2: unordered"]. *)

val schema : string
(** ["coop-witness/v1"] — the value of the ["schema"] field of every
    witness JSON document. *)

val to_json : t -> Coop_util.Json.t
(** The witness under its variant tag, as embedded in [coop-witness/v1]
    documents ([{"race": ...}]). *)

(** {2 CLI surface} *)

type mode =
  | Text  (** Append witness text to the human-readable report. *)
  | Json of string option
      (** Emit a [coop-witness/v1] document — to the named file, or to
          stdout when [None]. *)

val parse_mode : string -> mode option
(** [parse_mode s] accepts ["text"], ["json"] and ["json:FILE"] (with a
    non-empty [FILE]); anything else is [None]. CLIs reject [None] with
    exit 2, mirroring the [--jobs] convention. *)
