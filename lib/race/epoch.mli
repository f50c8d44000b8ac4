(** Epochs: the scalar clock representation at the heart of FastTrack.

    An epoch [c@t] records that thread [t] performed an access at its local
    time [c]. FastTrack's insight is that the last write (and usually the
    last read) of a variable is totally ordered with respect to everything
    that matters, so a full vector clock can be replaced by one epoch. *)

type t [@@immediate]
(** An epoch, or the distinguished bottom element. Immediate, so arrays
    of epochs are flat int arrays. *)

val bottom : t
(** The minimal epoch; [leq bottom c] holds for every clock [c]. *)

val read_shared : t
(** FastTrack's READ_SHARED marker: not the epoch of any access, so it
    is {!equal} to no epoch built by {!make} nor to {!bottom}. It marks a
    read state promoted to a vector clock kept elsewhere; only {!equal}
    may be applied to it. *)

val make : tid:int -> clock:int -> t
(** [make ~tid ~clock] is the epoch [clock@tid]. Raises [Invalid_argument]
    when [tid] does not fit the tid field or [clock] exceeds {!max_clock}
    (the packed representation would overflow). *)

val max_clock : int
(** The largest clock value an epoch can carry. *)

val tid : t -> int
(** The thread of a non-bottom epoch. Raises [Invalid_argument] on
    {!bottom}. *)

val clock : t -> int
(** The local time of a non-bottom epoch. Raises [Invalid_argument] on
    {!bottom}. *)

val is_bottom : t -> bool
(** Whether this is {!bottom}. *)

val of_thread : int -> Vclock.t -> t
(** [of_thread t c] is thread [t]'s current epoch under clock [c]. *)

val leq : t -> Vclock.t -> bool
(** [leq e c] iff the access recorded by [e] happens-before the time [c];
    the O(1) comparison FastTrack relies on. *)

val equal : t -> t -> bool
(** Structural equality. *)

val pp : Format.formatter -> t -> unit
(** Renders as ["7@2"] or ["_|_"]. *)
