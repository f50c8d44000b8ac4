(** Source and bytecode locations.

    Violations and inferred yields are reported against locations. A location
    identifies a bytecode instruction ([func], [pc]) together with the source
    line it was compiled from, so reports are meaningful both to the VM
    (which keys yield sets by instruction) and to the user (who reads source
    lines). *)

type t = {
  func : int;  (** Index of the enclosing function in the program. *)
  pc : int;  (** Bytecode offset within the function. *)
  line : int;  (** 1-based source line, or 0 when synthesized. *)
}

val make : func:int -> pc:int -> line:int -> t
(** Build a location. *)

val none : t
(** A placeholder location for synthesized events (fork of the main thread,
    etc.). *)

val compare : t -> t -> int
(** Total order, suitable for [Map]/[Set]. *)

val equal : t -> t -> bool
(** Structural equality. *)

val to_string : t -> string
(** Renders as ["f3:pc17(line 42)"] — [Printf.sprintf "f%d:pc%d(line %d)"]
    of the three fields — or ["<none>"] when [func] is negative. One
    exact-length string is the only allocation. *)

val pp : Format.formatter -> t -> unit
(** Prints {!to_string}. *)

module Set : Set.S with type elt = t
(** Sets of locations (used for yield sets). *)

module Map : Map.S with type key = t
(** Maps keyed by location (used for violation counts). *)
