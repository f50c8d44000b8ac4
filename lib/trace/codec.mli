(** [coop-trace/v1]: the length-prefixed binary trace encoding.

    The wire format the production surface (sockets, pipes, disk at
    scale) speaks, replacing the line-oriented text format where
    throughput matters — parsing text is a measurable share of the
    streaming-analysis profile. Layout:

    {v
    magic (8 bytes)  89 43 50 54 0d 0a 1a 0a   ("\x89CPT\r\n\x1a\n")
    version          uvarint (= 1)
    chunk*           uvarint payload-length, then that many bytes
    end-of-stream    a zero-length chunk (one 0x00 byte)
    v}

    Each chunk payload is a sequence of whole records (records never
    span chunks), each a tag byte plus varint fields:

    {v
    0x01 def-var    g                 next dense var id := Global g
    0x02 def-var    a i               next dense var id := Cell (a,i)
    0x03 def-lock   handle            next dense lock id
    0x04 def-thread tid               next dense thread id
    0x05 name       kind id len bytes symbol display name (Symtab)
    0x10..0x1b      event             see below
    v}

    Events reference their thread and operand through {e dense ids}
    assigned by the shared {!Interner} discipline: the encoder interns
    as it writes and emits a def record the first time an id appears
    (ids are defined in increasing order, so def records need not carry
    the id), making every stream self-describing — a decoder needs no
    side table, and a reader joining a file at the top needs no
    trailer. An event record is

    {v
    tag  uvarint(thread-id)  [operand]  [svarint func, pc, line]
    v}

    where the operand is a dense var id (rd/wr), dense lock id
    (acq/rel), dense thread id (fork/join), or raw svarint
    (enter/exit/out). Two tag bits elide the location fields: [0x40]
    means "same location as {e this thread's} previous event" and
    [0x20] means "same location as the {e stream's} previous event"
    (any thread; checked only when [0x40] does not apply). The first
    survives thread interleavings — each thread runs long same-location
    stretches — and the second catches lockstep workloads where many
    threads repeat one location. When either bit is set the three
    location fields are omitted.

    The length-prefixed chunks make the stream self-delimiting: a
    decoder on a pipe or socket consumes exactly the encoded bytes
    (stopping at the end-of-stream chunk without reading ahead), and
    truncation anywhere — header, chunk length, mid-chunk — raises
    {!Parse_error} with the byte offset rather than yielding a silent
    prefix.

    Decoding is allocation-free on the hot path, reusing the VM's
    scratch-event discipline: callbacks receive one mutable
    {!Event.t} whose fields are rewritten per event (a consumer that
    retains events must {!Event.copy}), operand [op] values and
    locations are cached per dense id, and chunk buffers are reused.

    Versioning policy: the magic never changes; [version] bumps on any
    incompatible layout change and decoders reject versions they do not
    know. New {e record tags} may be added within a version only if
    streams remain readable by skipping unknown tags is NOT assumed —
    i.e. adding a tag requires a version bump; the self-describing
    symbol discipline is the extension point instead. *)

exception Parse_error of string * int
(** Alias of {!Wire.Parse_error}: [(message, byte offset)]. *)

val format_name : string
(** ["coop-trace/v1"]. *)

val magic : string
(** The 8-byte header prefix; no text trace can start with it (the
    first byte is non-ASCII), which is what format auto-detection keys
    on. *)

val version : int

(** {1 Encoding} *)

val with_sink : ?syms:Symtab.t -> out_channel -> (Trace.Sink.t -> 'a) -> 'a
(** [with_sink oc k] writes the header (and [syms]' name records, if
    given) to [oc], passes [k] a sink that encodes each event, and on
    return (or raise) flushes the final chunk and the end-of-stream
    marker. The channel is not closed. Events are encoded as they
    arrive — a live run streams to disk without materializing. *)

val to_string : ?syms:Symtab.t -> Trace.t -> string
(** Encode a whole trace. *)

val save : ?syms:Symtab.t -> string -> Trace.t -> unit
(** [save path t] writes [to_string t] to [path]. *)

(** {1 Decoding} *)

val iter_string : ?syms:Symtab.t -> string -> (Event.t -> unit) -> unit
(** [iter_string s f] decodes [s] and calls [f] on each event in order.
    [f] receives a {e scratch} event (copy to retain). Name records
    populate [syms] when given. Raises {!Parse_error}. *)

val of_string : ?syms:Symtab.t -> string -> Trace.t
(** Decode into a fresh trace (events are copied). Raises
    {!Parse_error}. *)

val iter_channel_body :
  ?syms:Symtab.t -> offset:int -> in_channel -> (Event.t -> unit) -> unit
(** Stream-decode from a channel whose magic the caller has already
    consumed (and checked) — the format auto-detection path. [offset]
    is the number of bytes already consumed, for error positions.
    Stops after the end-of-stream chunk without reading past it — safe
    on pipes carrying further data. Constant memory. Raises
    {!Parse_error} (with absolute byte offsets) on corruption or
    truncation, including EOF before the end-of-stream marker. *)

val load : ?syms:Symtab.t -> string -> Trace.t
(** Read and decode a whole file. Raises [Sys_error] and
    {!Parse_error}. *)
