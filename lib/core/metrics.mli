(** Annotation-burden metrics (Table 2 material).

    Quantifies how many yields a program needs and how much of the code is
    yield-free — the paper's measure of how cheap cooperative reasoning is
    compared to whole-program preemptive reasoning. *)

open Coop_trace

type t = {
  static_yields : int;  (** [yield;] statements in the source. *)
  inferred_yields : int;  (** Locations added by inference. *)
  total_yields : int;  (** Sum of the above. *)
  code_size : int;  (** Bytecode instructions. *)
  functions : int;  (** Function count. *)
  yield_free_functions : int;
      (** Functions containing no static or inferred yield. *)
  pct_yield_free : float;  (** 100 * yield_free / functions. *)
  events : int;  (** Events in the measured trace. *)
  yield_events : int;  (** Dynamic yield events in the trace. *)
  yields_per_kevent : float;  (** Dynamic yield density per 1000 events. *)
}

val analysis :
  Coop_lang.Bytecode.program -> inferred:Loc.Set.t -> unit -> t Analysis.t
(** Single-pass online variant: the dynamic event/yield densities are
    counted as the stream flows by (O(1) state); the static counts are
    folded in at finalize. Feed it straight from the VM sink to measure a
    run without recording it. *)

val compute :
  Coop_lang.Bytecode.program -> inferred:Loc.Set.t -> trace:Trace.t -> t
(** Static counts come from the program and the inferred set; dynamic
    density from the trace. Offline wrapper over {!analysis}. *)

val pp : Format.formatter -> t -> unit
(** Multi-line summary. *)
