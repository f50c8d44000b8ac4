(** Shared CoopLang code snippets used by several workloads. *)

val barrier_decls : string
(** Global declarations for the reusable sense-counter barrier. *)

val barrier_fn : string
(** A [barrier(n)] function: the classic counter/generation barrier. The
    spin loop carries an explicit [yield] — under cooperative semantics a
    spin-wait must be a scheduling point, which is precisely the kind of
    yield the paper says programmers must write by hand. *)
