(** Lipton mover classification.

    The reduction argument assigns each dynamic operation a commutativity
    class with respect to concurrent operations of other threads:

    - a {b right mover} commutes later in time past any subsequent operation
      of another thread (lock acquires: nothing another thread does while we
      hold the lock can conflict before our next operation);
    - a {b left mover} commutes earlier (lock releases);
    - a {b both mover} commutes either way (race-free accesses — any
      conflicting access is ordered by happens-before);
    - a {b non mover} commutes neither way (racy accesses).

    Thread fork is a right mover and join a left mover, mirroring
    acquire/release. *)

open Coop_trace

type t =
  | Right
  | Left
  | Both
  | Non

val classify :
  ?local_locks:(int -> bool) -> racy:Event.Var_set.t -> Event.op -> t option
(** [classify ~racy op] is the mover class of [op] given the set of racy
    variables, or [None] for operations irrelevant to reduction (yields,
    function enter/exit, atomic markers, output). [Out] is classified [Both]
    — output is externally observable but not a shared-memory conflict.

    [local_locks] (default: none) identifies locks only ever touched by a
    single thread; their acquires and releases commute with everything and
    are classified [Both] — the standard thread-local-lock refinement of
    dynamic reduction checkers. *)

val pp : Format.formatter -> t -> unit
(** "right-mover", "left-mover", "both-mover" or "non-mover". *)

val to_string : t -> string
(** Same as {!pp}, as a string. *)
