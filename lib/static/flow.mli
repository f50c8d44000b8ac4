(** Intra-procedural abstract interpretation over the bytecode.

    For every reachable instruction of a function this computes the abstract
    operand stack (to resolve lock handles) and the set of lock handles
    {e must}-held — the ingredients of the static race approximation and
    the static transaction-automaton pass.

    Assumption (documented, checked against the compiler): functions are
    entered with an empty operand stack, and callees do not change the
    caller's held-lock set (CoopLang's [sync] is block-structured within a
    function; unstructured [acquire]/[release] pairs that cross function
    boundaries would be approximated). *)

module Iset : Set.S with type elt = int

type info = {
  reachable : bool;  (** Whether any path reaches this pc. *)
  stack : Absval.t list;  (** Abstract operand stack before the instruction. *)
  locals : Absval.t Map.Make(Int).t;  (** Abstract local-slot values. *)
  held : Iset.t;
      (** Lock handles must-held before the instruction. Only an exactly
          known handle counts: acquiring an array element known only up to
          its group adds nothing, and releasing one drops the group's
          handles. *)
  spawned_before : bool;
      (** Whether a [Spawn] may have executed on some path to this pc
          (used to recognize pre-fork initialization code in [main]). *)
  spawns_may : int;
      (** Maximum number of [Spawn]s over paths reaching this pc (saturating). *)
  joins_must : int;
      (** Minimum number of [Join]s over paths reaching this pc (saturating).
          [joins_must >= spawns_may] at a pc of [main] means every spawned
          thread has been joined on every path — the structured fork/join
          quiescence idiom. The inference assumes each thread id is joined at
          most once, which that idiom guarantees. *)
}

val analyze : Coop_lang.Bytecode.program -> int -> info array
(** [analyze prog f] runs the dataflow to fixpoint over function [f] and
    returns per-pc facts (indexed like the code array). *)

val lock_at :
  Coop_lang.Bytecode.program -> info array -> int -> Absval.lock option
(** [lock_at prog infos pc] resolves the lock manipulated by an
    [Acquire]/[Release] at [pc], reading the handle off the abstract stack;
    [None] when [pc] is unreachable or not a lock operation. *)
