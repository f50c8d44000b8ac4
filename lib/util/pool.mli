(** A domain pool over one shared task queue.

    A pool is [jobs - 1] spawned worker domains and one mutex-guarded
    FIFO of tasks with one condition variable. {!spawn}, from any
    domain, pushes at the back and wakes the sleepers; workers pop from
    the front and sleep only while the queue is empty. Load balance is
    decided at runtime by whichever domain goes idle first, so uneven
    tasks do not leave domains idle behind a static shard boundary.
    The tasks submitted here are coarse (a whole program run, a bench
    row), so one central queue costs them nothing measurable
    (EXPERIMENTS.md, "Shared-queue pool").

    The independent-run layers of the system (the inference portfolio,
    [Equivalence.compare]'s two explorations, the bench harness's
    per-workload rows) fan out through {!spawn}/{!await} or
    {!parallel_map}; the explorers themselves are sequential.
    Determinism is the callers' contract: results are collected keyed by
    task identity and merged in a deterministic order, so a parallel run
    is observably identical to the sequential one, just faster.

    Awaiters {e help}: while a promise is outstanding, the awaiting
    domain pops and runs queued tasks. This makes nested
    {!spawn}/{!await} — a pool task spawning and awaiting subtasks on
    the same pool — deadlock-free by construction: a waiter sleeps only
    while the queue is empty, and a promise whose task is in flight on
    another domain completes by induction on nesting depth, broadcasting
    on completion.

    A pool of [jobs = 1] spawns no domains; {!parallel_map} degrades to
    [List.map] and {!await} runs queued tasks inline on the calling
    domain. *)

type t

(** Telemetry hooks. The pool only depends on the stdlib clock, so
    observability is injected per pool ({!create}'s [?monitor] or
    {!set_monitor}): [Coop_obs.pool_monitor] exports queue depth,
    per-task latency and per-worker busy time; with no monitor installed
    (the default) the dispatch path takes no timestamps. The pool calls
    [on_submit] and [wrap_task] and never calls [on_steal] or
    [on_deque_depth]. *)
type monitor = {
  on_submit : queued:int -> unit;
      (** Called once per {!spawn} with the shared queue's length just
          after the push. *)
  wrap_task : (unit -> unit) -> unit -> unit;
      (** Wraps every task execution (worker or helping awaiter); the
          monitor owns the timing. Must call the task exactly once. *)
  on_steal : thief:int -> victim:int -> latency_s:float -> unit;
  on_deque_depth : slot:int -> depth:int -> unit;
}

val create : ?monitor:monitor -> jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs - 1] worker domains ([jobs >= 1]; the
    creating domain participates when it awaits).
    [monitor] installs a per-pool monitor from the start. Raises
    [Invalid_argument] when [jobs < 1], or when the runtime cannot start
    [jobs - 1] more domains (OCaml caps the number of live domains); in
    that case the workers already started are stopped and joined first,
    so a failed [create] holds no domains. *)

val jobs : t -> int
(** Parallelism of the pool (including the creating domain). *)

val shutdown : t -> unit
(** Stop and join the workers. Outstanding tasks are drained first,
    the calling domain helping (so a [jobs = 1] pool runs them itself).
    Idempotent. *)

val set_monitor : t -> monitor option -> unit
(** Install or remove this pool's monitor. *)

type 'a promise
(** The result of a {!spawn}ed task: pending, a value, or an exception
    with its backtrace. *)

val spawn : t -> (unit -> 'a) -> 'a promise
(** Submit [f] as a task. Safe from any domain, including from inside a
    task running on the same pool (nested spawning is how the dynamic
    fan-out layers feed the scheduler). *)

val await : t -> 'a promise -> 'a
(** Block until the promise settles, helping with queued work while
    waiting. Returns the task's value or re-raises its exception with
    the original backtrace. Safe to call from inside a pool task. *)

val parallel_map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [parallel_map pool f xs] is [List.map f xs], computed concurrently
    ({!spawn} per element, {!await} in input order). Results are
    returned in input order. If any application raises, the first (in
    input order) exception is re-raised in the caller with its
    backtrace, after all tasks of the batch have settled. Safe to call
    from inside a pool task (nesting). *)

val parse_jobs : string -> int option
(** Parse a parallelism argument: a positive integer, or [None] for
    anything else ([0], negatives, garbage). CLIs share this so
    [--jobs] and [COOP_JOBS] reject bad values identically. *)

val default_jobs : unit -> int
(** Size for the shared pool when nothing explicit is given: the
    [COOP_JOBS] environment variable if it parses to a positive integer,
    else {!Domain.recommended_domain_count}. (CLIs validate [COOP_JOBS]
    up front with {!parse_jobs} and exit 2 on garbage; the library
    itself stays tolerant.) *)

val set_default_jobs : int -> unit
(** Override the shared pool size (the CLI's [--jobs] lands here). If
    the shared pool already exists at a different size it is shut down
    and recreated lazily. *)

val shared : unit -> t
(** The process-wide pool, created on first use at {!default_jobs} (or
    the {!set_default_jobs} override). *)

val map : ('a -> 'b) -> 'a list -> 'b list
(** [map f xs] is [parallel_map (shared ()) f xs]. *)
