(** Immutable values made from dense ids, built once per process.

    [create make] stands for the infinite array [make 0, make 1, ...],
    materialised as far as it has been asked for. Every caller gets the
    same values, so a table of status values built here is shared by
    every state that uses those ids. A published array is never mutated:
    asking past its end builds a longer one that replaces it whole, so
    domains read the table without a lock, and two domains growing it at
    once at worst build the same values twice. The values stay for the
    life of the process. *)

type 'a t

val create : (int -> 'a) -> 'a t
(** A table of [make i] for every id [i >= 0]; [make] must be pure. *)

val get : 'a t -> int -> 'a
(** [get t i] is the table's value for [i]. Past the materialised end it
    grows the table to at least twice its length, so a run of growing ids
    allocates O(log n) times. Raises [Invalid_argument] for a negative
    [i]. *)
