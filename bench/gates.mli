(** The [json-verify] gate table: what every machine-readable document the
    toolchain emits must satisfy, one gate list per document kind, and the
    interpreter that applies it.

    A gate is a field path plus a predicate. A path is a dot-separated list
    of members; a [[]] suffix fans out over a list's elements (or an
    object's members), e.g. [workloads[].decode_speedup]. The few real
    relations between fields — the replay counters and medians, the profile
    share sum, the pool "skipped" rows, the per-command witness shapes — are
    closures that choose or compute the gates for the value they sit on. *)

type failure = {
  path : string;  (** Where: the gate's path with each [[]] made concrete. *)
  want : string;  (** The predicate, rendered. *)
  got : string;  (** The offending value, rendered. *)
}

val verify :
  Coop_util.Json.t -> (string * (string * string) list, failure) result
(** [verify doc] looks up the document's kind (its [experiment] or [schema]
    value, or ["trace_event array"] for a top-level list) and applies that
    kind's gates in order. [Ok (kind, applied)] lists every gate applied as
    a [(path, want)] pair; [Error] is the first gate that rejects. *)

val message : failure -> string
(** ["<path>: want <want>, got <got>"]. *)
