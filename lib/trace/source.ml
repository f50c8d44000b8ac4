type t = Trace.Sink.t -> unit

let of_trace trace : t = fun sink -> Trace.iter sink trace

(* ---- format auto-detection -------------------------------------------- *)

(* Read up to |magic| bytes; a short read means the stream itself is
   shorter than a binary header, which only a text (or empty) trace can
   be. *)
let read_head ic =
  let n = String.length Codec.magic in
  let buf = Bytes.create n in
  let rec go off =
    if off = n then n
    else
      match input ic buf off (n - off) with 0 -> off | k -> go (off + k)
  in
  Bytes.sub_string buf 0 (go 0)

let dispatch ?syms head ic sink =
  match Serialize.sniff head with
  | Binary ->
      Codec.iter_channel_body ?syms ~offset:(String.length Codec.magic) ic
        sink
  | Text -> Serialize.iter_channel_from ?syms ~prefix:head ic sink

let format_of_file path =
  let ic = open_in_bin path in
  Serialize.sniff
    (Fun.protect
       ~finally:(fun () -> close_in_noerr ic)
       (fun () -> read_head ic))

(* ---- decode timing ---------------------------------------------------- *)

(* Attribute to "trace/decode" the time a streaming pass spends between
   sink callbacks — reading and parsing, whichever format — excluding
   the sink's own (analysis) time, so --profile shows the parse share
   honestly for text vs binary. Free when observability is off. *)
let with_decode_timer f sink =
  if not (Coop_obs.enabled ()) then f sink
  else begin
    let acc = ref 0.0 in
    let calls = ref 0 in
    let last = ref (Coop_obs.now_s ()) in
    let sink' e =
      acc := !acc +. (Coop_obs.now_s () -. !last);
      incr calls;
      sink e;
      last := Coop_obs.now_s ()
    in
    let flush () = Coop_obs.timer_add "trace/decode" !acc !calls in
    match f sink' with
    | () -> flush ()
    | exception e ->
        flush ();
        raise e
  end

(* ---- sources ---------------------------------------------------------- *)

let of_file ?syms path : t =
 fun sink ->
  (* Re-open and re-sniff per replay: the source stays replayable no
     matter which format the file holds. *)
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      with_decode_timer (fun sink -> dispatch ?syms (read_head ic) ic sink) sink)

let of_channel ?syms ic : t =
  let consumed = ref false in
  fun sink ->
    if !consumed then
      invalid_arg "Source.of_channel: a channel source cannot be replayed";
    consumed := true;
    with_decode_timer (fun sink -> dispatch ?syms (read_head ic) ic sink) sink

let run source analysis =
  source (Analysis.sink analysis);
  Analysis.finalize analysis

let count source = run source (Analysis.count ())

let record source =
  let trace = Trace.create () in
  source (Trace.Sink.recording trace);
  trace
