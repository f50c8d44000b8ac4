(** Deterministic pseudo-random number generation.

    All randomized components of the system (schedulers, workload generators,
    property tests that need auxiliary entropy) draw from this splitmix64
    generator so that every run is reproducible from a single integer seed.
    The global [Random] module is deliberately never used. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator. Equal seeds yield equal streams. *)

val copy : t -> t
(** [copy t] is an independent generator that will produce the same future
    stream as [t]. *)

val next : t -> int64
(** [next t] advances the state and returns 64 fresh pseudo-random bits. *)

val int : t -> int -> int
(** [int t bound] is a uniform integer in [\[0, bound)]. [bound] must be
    positive. *)

val draw_while : t -> int -> keys:int array -> counts:int array -> max:int -> int
(** [draw_while t bound ~keys ~counts ~max] takes the draws [i = int t
    bound] in turn while the key drawn, [keys.(i)], has a positive count
    [counts.(keys.(i))] (keys past the end of [counts] count 0),
    decrementing that count at each, and at most [max] of them. The draw
    that finds a zero count is not taken: the next [int t bound] returns
    it. Returns the number of draws taken. The same draws as the loop
    over [int], with the state in a local: it allocates nothing.
    [keys] must hold at least [bound] keys, all non-negative. *)

val last_int : t -> int -> int
(** [last_int t bound] is what the draw that left [t] in its current
    state returned, if that draw was an [int t bound]. *)

val bool : t -> bool
(** [bool t] is a uniform boolean. *)

val float : t -> float -> float
(** [float t bound] is a uniform float in [\[0, bound)]. *)

val pick : t -> 'a array -> 'a
(** [pick t arr] is a uniformly chosen element of [arr], which must be
    non-empty. *)

val shuffle : t -> 'a array -> unit
(** [shuffle t arr] permutes [arr] in place with a Fisher-Yates shuffle. *)

val split : t -> t
(** [split t] derives a new generator whose stream is statistically
    independent of the future stream of [t]. *)
