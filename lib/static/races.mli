(** Static race approximation.

    A sound over-approximation of the dynamic racy set, at region
    granularity (a scalar global, or a whole array). Two accesses may race
    when:

    - they touch the same region and at least one writes;
    - they belong to {e concurrent contexts}: different thread roots, or
      the same spawned root (several instances may run), excluding code in
      [main] that no path reaches after a [Spawn];
    - their must-held lock-handle sets are disjoint (an array element
      known only up to its group is never must-held).

    Similarly, a lock group is {e shared} when two concurrent contexts may
    acquire it; non-shared groups are the static analogue of the dynamic
    thread-local-lock refinement. *)

(** A memory region. *)
type region =
  | Rglobal of int
  | Rarray of int

val pp_region :
  Coop_lang.Bytecode.program -> Format.formatter -> region -> unit
(** Named rendering, e.g. ["counter"] or ["grid[]"]. *)

type result = {
  racy : region list;  (** May-racy regions, sorted. *)
  shared_groups : int list;  (** Lock groups acquirable by >= 2 contexts. *)
  roots : int list;  (** Thread-root functions ([main] + spawn targets). *)
}

val analyze :
  Coop_lang.Bytecode.program -> (int -> Flow.info array) -> result
(** [analyze prog flow_of] computes the approximation; [flow_of f] supplies
    the per-function dataflow facts (memoized by the caller). *)

val is_racy_region : result -> Coop_trace.Event.var -> bool
(** Whether a dynamic variable falls in a may-racy region. *)
