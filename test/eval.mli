(** A reference big-step evaluator for the sequential fragment of CoopLang.

    This is the executable semantics the compiler + VM are tested against:
    for any single-threaded program (no [spawn]/[join]/[sync]/[acquire]/
    [release]/[yield]/[atomic]), running the compiled bytecode under any
    scheduler must produce exactly the evaluator's output and final global
    store. The fuzzing property in the test suite generates random
    well-formed sequential programs and checks this agreement.

    The evaluator interprets the AST directly — it shares no code with the
    compiler or VM, which is what makes the agreement meaningful. *)

open Coop_lang

exception Unsupported of string
(** Raised when the program uses a concurrency construct. *)

exception Fault of string
(** Runtime faults: division by zero, out-of-bounds access, failed assert. *)

type outcome = {
  output : int list;  (** [print] values in order. *)
  globals : int list;  (** Final value of each global slot. *)
  fault : string option;  (** The first fault, if any ended the run. *)
}

val run : ?fuel:int -> Ast.program -> outcome
(** [run p] evaluates [p] from [main]. [fuel] (default 1_000_000) bounds the
    number of statements executed; exceeding it raises [Fault "out of
    fuel"] so non-terminating generated programs cannot hang the tests.
    Raises {!Unsupported} on concurrency constructs, and {!Resolve.Error}
    via the embedded name resolution. *)
