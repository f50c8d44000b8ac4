(** Line-oriented trace serialization, and the format-selection layer.

    Recorded traces can be saved to disk and re-analyzed later (or diffed
    across runs) without re-executing the program — the workflow RoadRunner
    users rely on. The text format is one event per line:

    {v
    <tid> <op> [args] @ <func> <pc> <line>
    v}

    e.g. ["1 wr g4 @ 0 17 12"] or ["0 acq 2 @ 1 3 9"]. Lines starting
    with ['#'] are pragmas: ["#kind id name"] binds a display name (see
    {!Symtab}; [kind] is [func|lock|global|array]), anything else after
    ['#'] is a comment. The format is stable, human-greppable, and
    round-trips exactly ([of_string (to_string t)] equals [t] event for
    event).

    Where throughput or exact name round-tripping matters, the same
    traces serialize to the {!Codec} binary format instead: {!save} and
    {!with_file_sink} take a {!format}, and {!load} (like
    [Source.of_file]) auto-detects which of the two a file contains by
    its magic bytes. The text entry points ({!of_string},
    {!iter_channel_from}, …) parse text only. *)

exception Parse_error of string * int
(** [(message, position)] on malformed input — an alias of
    {!Wire.Parse_error}, shared with {!Codec}. For text input the
    position is a 1-based line number and the message ends in
    ["(line N)"]; for binary input it is a byte offset and the message
    ends in ["(byte N)"] — either way the message is self-describing. *)

exception Encode_error of string
(** Alias of {!Wire.Encode_error}: raised when a value cannot be
    represented in the requested format — today, a {!Symtab} display
    name containing whitespace or ['@'], which the text line grammar
    would corrupt. The binary format encodes any name. *)

(** Which wire format to write. Readers never need this: every decode
    entry point that touches a file or channel auto-detects by magic. *)
type format = Text | Binary

val format_to_string : format -> string
(** ["text" | "binary"]. *)

val format_of_string : string -> format option
(** Inverse of {!format_to_string} (CLI argument parsing). *)

val to_string : ?syms:Symtab.t -> Trace.t -> string
(** Serialize a whole trace as text, [syms]' bindings first as pragma
    lines. Raises {!Encode_error} on a name the text grammar cannot
    carry. *)

val of_string : ?syms:Symtab.t -> string -> Trace.t
(** Parse a serialized text trace; name pragmas populate [syms] when
    given. Raises {!Parse_error}. *)

val iter_string : ?syms:Symtab.t -> string -> (Event.t -> unit) -> unit
(** [iter_string s f] parses [s] and calls [f] on each event in order,
    without building a trace. Raises {!Parse_error}. *)

val iter_channel_from :
  ?syms:Symtab.t -> prefix:string -> in_channel -> (Event.t -> unit) -> unit
(** [iter_channel_from ~prefix ic f] reads serialized events from [ic]
    until end-of-file, calling [f] on each — constant memory, works on
    a non-seekable channel (a pipe, stdin). [prefix] holds the bytes a
    format sniffer already consumed off the channel ([""] for none):
    they are re-interpreted as the start of the text, embedded newlines
    and a trailing partial line included. The channel is {e not}
    closed. Raises {!Parse_error}. *)

val save : ?format:format -> ?syms:Symtab.t -> string -> Trace.t -> unit
(** [save path t] writes [t] to [path] in the chosen format (default
    [Text]). Raises {!Encode_error} as {!to_string}. *)

val with_file_sink :
  ?format:format -> ?syms:Symtab.t -> string -> (Trace.Sink.t -> 'a) -> 'a
(** [with_file_sink path k] opens [path] for writing and passes [k] a
    sink that serializes each event straight to the file (default
    [Text]), so a live run can be saved without ever materializing the
    trace. [syms]' bindings are written up front. The channel is closed
    when [k] returns (or raises). *)

val sniff : string -> format
(** [sniff head] decides a stream's format from its first bytes: at most
    [String.length Codec.magic] of them, fewer only when the stream is
    that short. [Binary] on the full magic, [Text] otherwise (including
    the empty stream). Raises {!Parse_error} ["truncated header: ...
    (byte N)"] on a non-empty strict prefix of the magic — a binary
    stream cut off mid-header. The one decision behind every
    auto-detecting entry point. *)

val of_string_any : ?syms:Symtab.t -> string -> format * Trace.t
(** Decode a string in {e either} format, auto-detected by magic bytes,
    reporting which it was. Raises {!Parse_error} (including on a
    truncated binary header). *)

val load : ?syms:Symtab.t -> string -> Trace.t
(** [load path] reads a trace file in {e either} format, auto-detected
    by magic bytes. Raises [Sys_error] and {!Parse_error}. *)
