(** A domain-safe byte budget for checkpoints.

    The replay-elision layer keeps checkpoints — VM states, analysis
    snapshots, scheduler prefixes — so a re-execution can resume from
    them instead of replaying from the root. Each consumer holds its
    checkpoints itself: DPOR in its DFS frames, inference in the round
    it is running. This module is the budget they share. A consumer
    {!charge}s a checkpoint's estimated weight before keeping it, keeps
    nothing when the charge is refused (it re-derives the state when it
    needs it), and {!release}s the charge when the checkpoint goes, so a
    finished run leaves [bytes] at 0. Checkpoints share no mutable
    structure with each other, so with weights that count each value in
    full the cap is a ceiling on what the consumers can pin (a refused
    charge costs a replay, never correctness).

    Every operation is lock-free — the counters are atomics — so one
    budget may be charged concurrently by every task of a parallel run.
    Counters ({!stats}) are cumulative since {!create}; consumers flush
    deltas into [Coop_obs] (this library deliberately has no telemetry
    dependency). *)

type 'v t
(** A budget for values of type ['v]. *)

type stats = {
  hits : int;  (** Tallied fetches of a held checkpoint. *)
  misses : int;  (** Tallied fetches that re-derived a refused one. *)
  evictions : int;  (** Charges refused: values the cap kept out. *)
  bytes : int;  (** Currently charged weight. *)
  peak_bytes : int;  (** High-water mark of [bytes]. *)
}

val create : ?cap_bytes:int -> weight:('v -> int) -> unit -> 'v t
(** [create ~weight ()] builds an empty budget. [weight v] estimates the
    retained size of [v] in bytes (clamped to at least 1); [cap_bytes]
    (default 64 MiB) bounds the charged sum. Raises [Invalid_argument]
    on a non-positive cap. *)

val charge : 'v t -> 'v -> int
(** [charge t v] charges [v]'s weight to the budget and returns it, or
    returns [0], charges nothing and counts an eviction when the weight
    does not fit under the cap beside everything already charged. One
    compare-and-set on the byte count. *)

val release : _ t -> int -> unit
(** [release t w] returns a weight [w] obtained from {!charge}. *)

val tally : _ t -> hits:int -> misses:int -> unit
(** [tally t ~hits ~misses] adds a run's fetches to the {!stats}
    counters: a hit is a fetch of a checkpoint the caller holds, a miss
    one it had to re-derive because its charge was refused. *)

val stats : _ t -> stats
(** Cumulative counters and the current charge. *)
