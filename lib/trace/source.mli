(** Replayable event streams.

    A source pushes the same totally ordered event sequence into a sink
    each time it is invoked, without the caller ever holding the events in
    memory: a recorded trace, a serialized trace streamed off disk, or a
    deterministic re-execution of the program itself (see
    [Runner.source]). Multi-phase analyses (the racy set is only complete
    at the end of the stream) re-stream from the source instead of
    buffering events, which is what keeps the fused pipeline at
    O(threads·vars) memory.

    File and channel sources are {e format-agnostic}: the first bytes are
    sniffed ({!Serialize.sniff}) and dispatched to the {!Codec} binary
    decoder (magic match) or the {!Serialize} text parser (anything else
    — the magic's first byte is non-ASCII, so the two cannot collide).
    Both decode paths
    charge their time to the ["trace/decode"] timer when observability
    is on, so [--profile] shows what share of a run is parsing.

    Replays must be deterministic: every invocation must produce the
    identical event sequence, or phase results cannot be combined. The
    one deliberate exception is {!of_channel}: a live pipe cannot be
    replayed at all, which is exactly why the single-pass engine exists —
    it is the only consumer that needs each event once. *)

type t = Trace.Sink.t -> unit
(** [source sink] streams every event into [sink], in program order.
    Events delivered by file/channel sources may be {e scratch} events
    (see {!Event.copy}); sinks that retain them must copy. *)

val of_trace : Trace.t -> t
(** Stream a recorded trace (no copy). *)

val of_file : ?syms:Symtab.t -> string -> t
(** Stream a trace file in either format, auto-detected per replay (the
    file is re-opened and re-sniffed each invocation, so mixed-format
    workflows just work and the source stays replayable; it is never
    loaded whole). Display names found in the file populate [syms].
    Raises [Sys_error] and {!Serialize.Parse_error}. *)

val of_channel : ?syms:Symtab.t -> in_channel -> t
(** Stream a serialized trace from an open channel — stdin, a pipe, a
    socket — in either format, auto-detected. A binary stream is
    consumed exactly to its end-of-stream marker (nothing read past
    it). Unlike every other constructor this source is {b not
    replayable}: the underlying bytes are gone once read, so a second
    invocation raises [Invalid_argument] instead of silently producing
    an empty (and thus wrong) replay. Only single-pass consumers (the
    online cooperability engine) can analyze it; the two-pass pipeline
    needs {!of_file} or {!of_trace}. Raises [Sys_error] and
    {!Serialize.Parse_error} while streaming. The channel is not
    closed. *)

val format_of_file : string -> Serialize.format
(** Which format a trace file holds, by {!Serialize.sniff} of its first
    bytes (reads at most 8). Raises [Sys_error]; raises
    {!Serialize.Parse_error} on a file that is a truncated binary
    header. *)

val run : t -> 'r Analysis.t -> 'r
(** One streaming pass: feed every event to the analysis and finalize. *)

val count : t -> int
(** Number of events in one replay. *)

val record : t -> Trace.t
(** Materialize a source into a trace (tests and offline tooling only —
    the streaming pipeline never calls this). *)
