(** Race reports produced by the detectors. *)

type kind =
  | Write_write  (** Two concurrent writes. *)
  | Read_write  (** A read concurrent with a later write. *)
  | Write_read  (** A write concurrent with a later read. *)

type t = {
  var : Coop_trace.Event.var;  (** The variable raced on. *)
  kind : kind;  (** The flavour of the conflict. *)
  first_tid : int;  (** Thread of the earlier access. *)
  second_tid : int;  (** Thread of the later access. *)
  second_loc : Coop_trace.Loc.t;  (** Location of the access that exposed the race. *)
  witness : Coop_provenance.Witness.t option;
      (** Causal evidence, when FastTrack ran with [~witness:true]: the
          unordered access pair. [None] otherwise (and always for the
          Eraser baseline) — capture is opt-in so the default hot path
          pays nothing. *)
}

val pp : Format.formatter -> t -> unit
(** Human-readable one-liner. *)

val racy_vars : t list -> Coop_trace.Event.Var_set.t
(** The set of variables mentioned by any report. *)
