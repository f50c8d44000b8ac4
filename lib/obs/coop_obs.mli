(** In-process telemetry for the whole analysis stack.

    A zero-dependency (stdlib + unix clock) instrumentation library:
    monotonic-intent spans with parent nesting, named counters, gauges,
    duration-accumulating timers, and log-scale (power-of-two)
    latency/size histograms. Everything is {e pay-for-what-you-use}:

    - Disabled (the default), every recording entry point is a single
      branch on a [bool ref] and allocates {e nothing} — no per-domain
      state, no registry entry, no closure. The guard test asserts
      {!domains_registered} stays [0] across a disabled run.
    - Enabled, each domain records into its own buffer (created lazily on
      first use, via domain-local storage) and the buffers are merged into
      one {!snapshot} on demand — so [Coop_util.Pool] workers record
      without taking any shared lock on the hot path.

    A {!Coop_util.Pool} given {!pool_monitor} ([Pool.create ~monitor] or
    [Pool.set_monitor]) exports the shared queue's depth
    ([pool/queue_depth]), per-task latency ([pool/task_us]) and
    per-worker busy time ([pool/worker_busy]). Like every other entry
    point it records only while telemetry is enabled.

    {!snapshot} is a best-effort merge: call it at quiescence (after the
    runs being profiled have completed) for exact totals. *)

(** {1 Switch} *)

val enabled : unit -> bool
(** Whether telemetry is being recorded. *)

val enable : unit -> unit
(** Turn recording on (idempotent; the span epoch is set on the first
    call after a {!reset}). *)

val disable : unit -> unit
(** Turn recording off. Recorded data survives until {!reset}. *)

val pool_monitor : Coop_util.Pool.monitor
(** The pool monitor behind the [pool/worker_busy] timer and the
    [pool/queue_depth] and [pool/task_us] histograms; install it on each
    pool to be profiled. Its [on_steal] and [on_deque_depth] hooks
    record nothing (the shared-queue pool never calls them). *)

val reset : unit -> unit
(** Drop all recorded data and every per-domain buffer. *)

external now_s : unit -> (float[@unboxed])
  = "caml_unix_gettimeofday" "caml_unix_gettimeofday_unboxed"
[@@noalloc]
(** The clock used for all measurements, in seconds. Monotonic-intent:
    the primitive behind [Unix.gettimeofday], the only in-distribution
    clock, bound unboxed so per-event timers read it without allocating. *)

(** {1 Recording} *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] times [f ()] as a named span. Spans nest: a span opened
    inside another records the enclosing depth, and Chrome-trace viewers
    reconstruct the hierarchy from the containment of [(start, dur)]
    intervals on the same domain. Exceptions propagate; the span is
    closed either way. *)

val count : string -> int -> unit
(** [count name n] adds [n] to the named counter. *)

val gauge : string -> float -> unit
(** [gauge name v] sets the named gauge; the merged snapshot keeps the
    most recently written value across all domains. *)

val observe : string -> float -> unit
(** [observe name v] records one sample into the named log-scale
    histogram (see {!Hist}). *)

val timer_add : ?words:float -> string -> float -> int -> unit
(** [timer_add ~words name seconds calls] folds an already-measured
    duration, and the minor-heap words allocated during it (default 0),
    into the named timer. This is the hot-path alternative to {!span}
    for per-event instrumentation: accumulate locally, flush once (what
    [Coop_trace.Analysis.instrument] does at finalize). *)

val sample : string -> float -> unit
(** [sample name v] appends a timestamped point to the named series on
    the recording domain. Series merge by concatenation (sorted by
    timestamp) rather than by aggregation, and render as [ph:"C"]
    counter lanes in {!chrome_trace}. *)

val flow_begin : string -> id:int -> unit
(** [flow_begin name ~id] records the start of a cross-domain flow — a
    causal edge from the recording domain to wherever the matching
    {!flow_end} fires. The provenance layer uses flows for fact
    propagation: a flow starts where a race/shared-lock fact is
    published and ends where an engine learns it. [id] correlates the
    two ends (the fact's packed id); one begin may have several ends. *)

val flow_end : string -> id:int -> unit
(** The receiving end of a flow; see {!flow_begin}. *)

val domains_registered : unit -> int
(** Number of per-domain buffers currently registered — [0] while
    disabled (the no-allocation guard). *)

(** {1 Histograms} *)

module Hist : sig
  val min_exp : int
  (** Smallest bucket exponent; samples [<= 2.^min_exp] (and non-positive
      ones) land in this bucket. *)

  val max_exp : int
  (** Largest bucket exponent; larger samples are clamped into it. *)

  val bucket_exp : float -> int
  (** [bucket_exp v] is the exponent [e] of the bucket holding [v]:
      the smallest [e] with [v <= 2. ** e] (i.e. bucket [e] covers
      [(2.^(e-1), 2.^e]]), clamped to [[min_exp, max_exp]]. *)

  type t = {
    counts : (int * int) list;  (** [(exponent, count)], non-empty buckets
                                    in increasing exponent order. *)
    count : int;  (** Total samples. *)
    sum : float;  (** Sum of samples. *)
    min : float;  (** Smallest sample. *)
    max : float;  (** Largest sample. *)
  }
end

(** {1 Snapshots} *)

type span_record = {
  span_name : string;
  domain : int;  (** Id of the recording domain. *)
  start_us : float;  (** Microseconds since the recording epoch. *)
  dur_us : float;
  depth : int;  (** Number of enclosing open spans on the same domain. *)
}

type timer = {
  time_s : float;  (** Accumulated seconds, all domains. *)
  calls : int;
  words : float;  (** Minor-heap words allocated inside the timed calls. *)
  by_domain : (int * float) list;  (** Seconds per recording domain —
                                       per-worker utilization. *)
}

type sample_record = {
  s_domain : int;  (** Id of the recording domain. *)
  ts_us : float;  (** Microseconds since the recording epoch. *)
  value : float;
}

type flow_phase = Flow_begin | Flow_end

type flow_record = {
  fl_name : string;
  fl_id : int;  (** Correlates begin and end(s) of one flow. *)
  fl_domain : int;  (** Id of the recording domain. *)
  fl_ts_us : float;  (** Microseconds since the recording epoch. *)
  fl_phase : flow_phase;
}

type snapshot = {
  spans : span_record list;  (** Sorted by start time. *)
  counters : (string * int) list;  (** Sorted by name, summed over domains. *)
  gauges : (string * float) list;
      (** Sorted by name, last write wins. *)
  timers : (string * timer) list;  (** Sorted by name. *)
  hists : (string * Hist.t) list;  (** Sorted by name, merged over domains. *)
  samples : (string * sample_record list) list;
      (** Sorted by name; each series concatenated over domains and
          sorted by timestamp. *)
  flows : flow_record list;  (** Sorted by timestamp. *)
}

val snapshot : unit -> snapshot
(** Merge every per-domain buffer into one consistent view. *)

(** {1 Reporting} *)

type attribution_row = {
  checker : string;  (** Checker name ([checker/] prefix stripped), or
                         ["(dispatch/other)"] for the residual. *)
  seconds : float;
  events : int;  (** Instrumented step calls; [0] for the residual row. *)
  words : float;  (** Minor words allocated inside those calls. *)
  share : float;  (** Fraction of the total analysis sink time. *)
}

val attribution : snapshot -> attribution_row list * float
(** Per-checker attribution, largest share first, from the [checker/*]
    timers measured against the [analysis/*] phase totals (falling back
    to the checkers' own sum when no phase timer was recorded). The
    residual row makes the shares sum to 1, so the table accounts for
    100% of the measured analysis time. Returns [([], 0.)] when nothing
    was instrumented. *)

val render_summary : snapshot -> string
(** The attribution rendered as a [Coop_util.Table] (time, share, events,
    ns/event and minor words/event per checker, or a one-line notice
    when nothing was instrumented), followed by counters, gauges, timers
    (with per-domain busy breakdown) and histogram digests — the
    [--profile] output. *)

val to_json : snapshot -> Coop_util.Json.t
(** The stable machine-readable schema ([{"schema": "coop-obs/v1", ...}])
    validated by [bench/main.exe json-verify]. *)

val chrome_trace : snapshot -> Coop_util.Json.t
(** The snapshot's spans as a Chrome [trace_event] JSON array (one
    pseudo-process, one thread per domain, [ph:"X"] complete events with
    [ts]/[dur] in microseconds), plus one [ph:"C"] counter lane per
    sample series so progress graphs alongside the span timeline, plus
    flow events ([ph:"s"]/[ph:"f"], matched by [id]) drawing
    fact-propagation arrows between domain lanes. Loadable in [chrome://tracing] and
    Perfetto. *)
