(** A bounded, domain-safe LRU checkpoint store.

    The replay-elision layer (DPOR, exploration, inference) keys
    checkpoints — VM states, analysis snapshots, scheduler prefixes — by
    execution-tree node (DPOR: run nonce and frame counter; exploration:
    run nonce and tid path; inference: run nonce, yields and step budget)
    and fetches the deepest cached ancestor instead of replaying from the
    root. This store is the shared substrate: a hash table threaded with
    an LRU list, capped by the {e sum of estimated entry weights} in
    bytes. Cached values are never mutated: consumers park a private copy
    of a mutable VM state and copy it again on every fetch, so an entry
    may be read from several domains at once. Copies share no mutable
    structure, so with weights that count each value in full the sum
    bounds real retention — the cap is a guaranteed ceiling on what the
    cache can pin, which is the property the exploration layer needs
    (dropping an entry costs a replay, never correctness).

    All operations are mutex-protected: one store may be hit concurrently
    by every shard of a parallel exploration. Counters ({!stats}) are
    cumulative since {!create}; consumers flush deltas into [Coop_obs]
    (this library deliberately has no telemetry dependency). *)

type 'v t
(** A store holding values of type ['v]. *)

type stats = {
  hits : int;  (** [find] calls that returned an entry. *)
  misses : int;  (** [find] calls that found nothing. *)
  evictions : int;  (** Entries dropped to respect the cap. *)
  bytes : int;  (** Current estimated retained bytes. *)
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

val remove : 'v t -> string -> 'v option
(** [remove t key] drops the entry, if any, releasing its weight, and
    returns its value. Not counted as a hit, miss or eviction. DPOR calls
    it when a frame pops, since no later lookup can name that frame's
    key, and reuses the returned state's memory. *)

val stats : _ t -> stats
(** Cumulative counters and current occupancy. *)

val cap_bytes : _ t -> int
(** The configured budget. *)
