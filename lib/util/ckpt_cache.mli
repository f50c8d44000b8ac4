(** A bounded, domain-safe LRU checkpoint store.

    The replay-elision layer (exploration, inference) keys checkpoints —
    VM states, analysis snapshots, scheduler prefixes — by execution-tree
    node (exploration: run nonce and tid path; inference: run nonce,
    yields and step budget) and fetches the deepest cached ancestor
    instead of replaying from the root. This store is the shared
    substrate: a hash table threaded with an LRU list, capped by the {e
    sum of estimated entry weights} in bytes. DPOR, whose checkpoints
    live and die with its DFS frames, keeps them itself and uses only
    the budget ({!charge}, {!release}). Cached values are never mutated: consumers park a private copy
    of a mutable VM state and copy it again on every fetch, so an entry
    may be read from several domains at once. Copies share no mutable
    structure, so with weights that count each value in full the sum
    bounds real retention — the cap is a guaranteed ceiling on what the
    cache can pin, which is the property the exploration layer needs
    (dropping an entry costs a replay, never correctness).

    Keyed operations are mutex-protected and {!charge}/{!release} are
    lock-free: one store may be hit concurrently by every shard of a
    parallel exploration. Counters ({!stats}) are
    cumulative since {!create}; consumers flush deltas into [Coop_obs]
    (this library deliberately has no telemetry dependency). *)

type 'v t
(** A store holding values of type ['v]. *)

type stats = {
  hits : int;  (** [find] calls that returned an entry, plus tallied hits. *)
  misses : int;  (** [find] calls that found nothing, plus tallied misses. *)
  evictions : int;  (** Entries dropped to respect the cap. *)
  bytes : int;  (** Current estimated retained bytes, charges included. *)
  peak_bytes : int;  (** High-water mark of [bytes]. *)
  entries : int;  (** Current entry count. *)
}

val create : ?cap_bytes:int -> weight:('v -> int) -> unit -> 'v t
(** [create ~weight ()] builds an empty store. [weight v] estimates the
    retained size of [v] in bytes (clamped to at least 1); [cap_bytes]
    (default 64 MiB) bounds the weight sum. Raises [Invalid_argument] on a
    non-positive cap. *)

val find : 'v t -> string -> 'v option
(** [find t key] returns the cached value and marks it most recently
    used. Counted as a hit or miss. *)

val add : 'v t -> string -> 'v -> unit
(** [add t key v] inserts (or replaces) the entry and evicts least
    recently used entries until the weight sum fits the cap again. A
    value heavier than the whole cap is evicted immediately — the store
    never retains more than [cap_bytes]. *)

val charge : 'v t -> 'v -> int
(** [charge t v] is the accounting-only use of the store, for a caller
    that keeps [v] itself instead of handing it over: it charges
    [v]'s weight (as {!add} computes it) to the byte budget and returns
    it, or returns [0] and charges nothing when the weight does not fit
    under the cap beside everything already charged. It takes no key and
    no lock — one compare-and-set on the byte count — and never evicts:
    a caller refused a charge keeps nothing and re-derives the value when
    it needs it. DPOR parks each frame's pre-choice state this way. The
    charge counts in [bytes] and [peak_bytes] until {!release}d, but not
    in [entries]. *)

val release : _ t -> int -> unit
(** [release t w] returns a weight [w] obtained from {!charge}. Lock-free. *)

val tally : _ t -> hits:int -> misses:int -> unit
(** [tally t ~hits ~misses] adds fetches of charged values made outside
    the table to the {!stats} counters: a hit is a fetch of a value the
    caller holds, a miss one it had to re-derive because its charge was
    refused. *)

val stats : _ t -> stats
(** Cumulative counters and current occupancy. *)

val cap_bytes : _ t -> int
(** The configured budget. *)
