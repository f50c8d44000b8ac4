exception Parse_error = Wire.Parse_error

let format_name = "coop-trace/v1"

(* PNG-style magic: a non-ASCII lead byte (no text trace can collide),
   CRLF + ^Z + LF to catch line-ending translation and accidental
   text-mode reads early. *)
let magic = "\x89CPT\r\n\x1a\n"
let magic_len = String.length magic
let version = 1

(* Record tags. *)
let tag_def_global = 0x01
let tag_def_cell = 0x02
let tag_def_lock = 0x03
let tag_def_tid = 0x04
let tag_name = 0x05
let tag_event = 0x10 (* + op code, 0x10..0x1b *)

(* Location-elision bits, OR-ed into event tags. Threads run long
   same-location stretches (per-thread bit) but lockstep workloads also
   repeat one location ACROSS threads (stream bit); carrying both costs
   nothing and lets the encoder elide the location fields in either
   case. *)
let same_loc_bit = 0x40 (* same loc as this thread's previous event *)
let stream_loc_bit = 0x20 (* same loc as the stream's previous event *)
let loc_bits = same_loc_bit lor stream_loc_bit

let op_code : Event.op -> int = function
  | Event.Read _ -> 0
  | Event.Write _ -> 1
  | Event.Acquire _ -> 2
  | Event.Release _ -> 3
  | Event.Fork _ -> 4
  | Event.Join _ -> 5
  | Event.Yield -> 6
  | Event.Enter _ -> 7
  | Event.Exit _ -> 8
  | Event.Atomic_begin -> 9
  | Event.Atomic_end -> 10
  | Event.Out _ -> 11

let n_op_codes = 12

let kind_byte = function
  | Symtab.Func -> 0
  | Symtab.Lock -> 1
  | Symtab.Global -> 2
  | Symtab.Array -> 3

let kind_of_byte = function
  | 0 -> Some Symtab.Func
  | 1 -> Some Symtab.Lock
  | 2 -> Some Symtab.Global
  | 3 -> Some Symtab.Array
  | _ -> None

let errf off fmt = Printf.ksprintf (fun m -> Wire.parse_error m off) fmt

let bad_operand id rec_off =
  errf rec_off "undefined operand id %d (byte %d)" id rec_off

(* ---------------------------------------------------------------------- *)
(* Encoder                                                                 *)
(* ---------------------------------------------------------------------- *)

let grown a n fill =
  let bigger = Array.make (max n (2 * Array.length a)) fill in
  Array.blit a 0 bigger 0 (Array.length a);
  bigger

(* Flushing only ever happens between records, so chunks always contain
   whole records — the framing invariant decoders rely on. *)
let chunk_target = 1 lsl 15

type encoder = {
  buf : Buffer.t;  (* payload of the chunk being built *)
  lenbuf : Buffer.t;  (* scratch for length prefixes *)
  write : string -> unit;
  itn : Interner.t;  (* dense ids, assigned in stream order *)
  mutable def_vars : int;  (* ids already written as def records *)
  mutable def_locks : int;
  mutable def_tids : int;
  mutable prev_loc : Loc.t;  (* the stream's previous event, any thread *)
  mutable prev_locs : Loc.t array;  (* per dense thread id *)
}

let flush_chunk enc =
  if Buffer.length enc.buf > 0 then begin
    Buffer.clear enc.lenbuf;
    Wire.add_uvarint enc.lenbuf (Buffer.length enc.buf);
    enc.write (Buffer.contents enc.lenbuf);
    enc.write (Buffer.contents enc.buf);
    Buffer.clear enc.buf
  end

(* The end-of-stream marker is a zero-length chunk: exactly one 0x00
   byte, the self-delimiting full stop that lets a pipe reader hand the
   channel back at a known position and a truncation check distinguish
   "complete" from "cut off at a chunk boundary". *)
let finish enc =
  flush_chunk enc;
  enc.write "\x00"

let add_name_record buf kind id name =
  Buffer.add_char buf (Char.chr tag_name);
  Buffer.add_char buf (Char.chr (kind_byte kind));
  Wire.add_uvarint buf id;
  Wire.add_uvarint buf (String.length name);
  Buffer.add_string buf name

let create_encoder ?syms write =
  write magic;
  let vbuf = Buffer.create 4 in
  Wire.add_uvarint vbuf version;
  write (Buffer.contents vbuf);
  let enc =
    {
      buf = Buffer.create (2 * chunk_target);
      lenbuf = Buffer.create 8;
      write;
      itn = Interner.create ();
      def_vars = 0;
      def_locks = 0;
      def_tids = 0;
      prev_loc = Loc.none;
      prev_locs = Array.make 16 Loc.none;
    }
  in
  (* Name records ride in the first chunk, before any event, so a
     symbol's display name is known by the time anything references
     it. Arbitrary bytes round-trip: names are length-prefixed. *)
  (match syms with
  | Some t -> Symtab.iter t (fun kind id name -> add_name_record enc.buf kind id name)
  | None -> ());
  enc

(* Emit def records for every dense id the interner assigned that the
   stream has not yet declared. At most one id per category is new per
   event, but the loop keeps encoder and interner in sync regardless. *)
let flush_defs enc =
  let b = enc.buf in
  let n = Interner.n_vars enc.itn in
  while enc.def_vars < n do
    (match Interner.var_of_id enc.itn enc.def_vars with
    | Event.Global g ->
        Buffer.add_char b (Char.chr tag_def_global);
        Wire.add_svarint b g
    | Event.Cell (a, i) ->
        Buffer.add_char b (Char.chr tag_def_cell);
        Wire.add_svarint b a;
        Wire.add_svarint b i);
    enc.def_vars <- enc.def_vars + 1
  done;
  let n = Interner.n_locks enc.itn in
  while enc.def_locks < n do
    Buffer.add_char b (Char.chr tag_def_lock);
    Wire.add_svarint b (Interner.lock_of_id enc.itn enc.def_locks);
    enc.def_locks <- enc.def_locks + 1
  done;
  let n = Interner.n_tids enc.itn in
  while enc.def_tids < n do
    Buffer.add_char b (Char.chr tag_def_tid);
    Wire.add_svarint b (Interner.tid_of_id enc.itn enc.def_tids);
    enc.def_tids <- enc.def_tids + 1
  done

let encode_event enc (e : Event.t) =
  let tid_id = Interner.tid_id enc.itn e.Event.tid in
  (* Intern the operand (assigning a dense id on first sight), then
     declare any new ids before the event that references them. *)
  let operand =
    match e.Event.op with
    | Event.Read v | Event.Write v -> Interner.var_id enc.itn v
    | Event.Acquire l | Event.Release l -> Interner.lock_id enc.itn l
    | Event.Fork u | Event.Join u -> Interner.tid_id enc.itn u
    | Event.Yield | Event.Enter _ | Event.Exit _ | Event.Atomic_begin
    | Event.Atomic_end | Event.Out _ ->
        -1
  in
  flush_defs enc;
  let b = enc.buf in
  let loc = e.Event.loc in
  if tid_id >= Array.length enc.prev_locs then
    enc.prev_locs <- grown enc.prev_locs (tid_id + 1) Loc.none;
  let bits =
    if Loc.equal loc enc.prev_locs.(tid_id) then same_loc_bit
    else if Loc.equal loc enc.prev_loc then stream_loc_bit
    else 0
  in
  let tag = tag_event lor op_code e.Event.op lor bits in
  Buffer.add_char b (Char.chr tag);
  Wire.add_uvarint b tid_id;
  (match e.Event.op with
  | Event.Read _ | Event.Write _ | Event.Acquire _ | Event.Release _
  | Event.Fork _ | Event.Join _ ->
      Wire.add_uvarint b operand
  | Event.Enter f | Event.Exit f -> Wire.add_svarint b f
  | Event.Out n -> Wire.add_svarint b n
  | Event.Yield | Event.Atomic_begin | Event.Atomic_end -> ());
  if bits = 0 then begin
    Wire.add_svarint b loc.Loc.func;
    Wire.add_svarint b loc.Loc.pc;
    Wire.add_svarint b loc.Loc.line
  end;
  if bits <> same_loc_bit then enc.prev_locs.(tid_id) <- loc;
  enc.prev_loc <- loc;
  if Buffer.length b >= chunk_target then flush_chunk enc

let with_sink ?syms oc k =
  let enc = create_encoder ?syms (output_string oc) in
  let r = k (fun e -> encode_event enc e) in
  finish enc;
  r

let to_string ?syms trace =
  let out = Buffer.create (Trace.length trace * 8) in
  let enc = create_encoder ?syms (Buffer.add_string out) in
  Trace.iter (encode_event enc) trace;
  finish enc;
  Buffer.contents out

let save ?syms path trace =
  let oc = open_out_bin path in
  match
    let enc = create_encoder ?syms (output_string oc) in
    Trace.iter (encode_event enc) trace;
    finish enc
  with
  | () -> close_out oc
  | exception e ->
      close_out_noerr oc;
      raise e

(* ---------------------------------------------------------------------- *)
(* Decoder                                                                 *)
(* ---------------------------------------------------------------------- *)

(* The decode hot path is allocation-free: one scratch event is rewritten
   per event (the [Event.copy] contract producers and sinks already
   share with the VM), [op] values are built once per dense id at def
   time and reused, and locations are cached by content so loops re-use
   the same [Loc.t]. *)

let dummy_op = Event.Yield

let loc_tab_size = 1024

type decoder = {
  mutable vars : Event.var array;
  mutable read_ops : Event.op array;
  mutable write_ops : Event.op array;
  mutable nv : int;
  mutable acq_ops : Event.op array;
  mutable rel_ops : Event.op array;
  mutable nl : int;
  mutable tids : int array;
  mutable fork_ops : Event.op array;
  mutable join_ops : Event.op array;
  mutable prev_locs : Loc.t array;  (* per dense tid, mirrors the encoder *)
  mutable nt : int;
  enter_ops : (int, Event.op) Hashtbl.t;
  exit_ops : (int, Event.op) Hashtbl.t;
  loc_tab : Loc.t array;  (* direct-mapped, power-of-two sized *)
  scratch : Event.t;
  mutable prev_loc : Loc.t;  (* last EXPLICITLY decoded loc (cache seed) *)
  mutable last_loc : Loc.t;  (* the stream's previous event, any thread *)
}

let create_decoder () =
  {
    vars = Array.make 512 (Event.Global min_int);
    read_ops = Array.make 512 dummy_op;
    write_ops = Array.make 512 dummy_op;
    nv = 0;
    acq_ops = Array.make 16 dummy_op;
    rel_ops = Array.make 16 dummy_op;
    nl = 0;
    tids = Array.make 16 0;
    fork_ops = Array.make 16 dummy_op;
    join_ops = Array.make 16 dummy_op;
    prev_locs = Array.make 16 Loc.none;
    nt = 0;
    enter_ops = Hashtbl.create 64;
    exit_ops = Hashtbl.create 64;
    loc_tab = Array.make loc_tab_size Loc.none;
    scratch = Event.make ~tid:0 ~op:dummy_op ~loc:Loc.none;
    prev_loc = Loc.none;
    last_loc = Loc.none;
  }

(* Var [op] values are built lazily on first use, not at def time: a
   def-heavy stream (one def per few events — sparse array sweeps) pays
   for the ops it touches, and a variable only ever read never gets a
   [Write] built at all. [dummy_op] marks an empty slot; a real
   [Read]/[Write] is a block, so the physical comparison cannot
   confuse the two. *)
let def_var dec v =
  if dec.nv = Array.length dec.vars then begin
    dec.vars <- grown dec.vars (dec.nv + 1) v;
    dec.read_ops <- grown dec.read_ops (dec.nv + 1) dummy_op;
    dec.write_ops <- grown dec.write_ops (dec.nv + 1) dummy_op
  end;
  (* Dense ids are never reused, so the op slots past [nv] still hold
     the [dummy_op] they were created (or grown) with — only the var
     itself needs writing. Def-heavy streams run this once per record. *)
  dec.vars.(dec.nv) <- v;
  dec.nv <- dec.nv + 1

let def_lock dec l =
  if dec.nl = Array.length dec.acq_ops then begin
    dec.acq_ops <- grown dec.acq_ops (dec.nl + 1) dummy_op;
    dec.rel_ops <- grown dec.rel_ops (dec.nl + 1) dummy_op
  end;
  dec.acq_ops.(dec.nl) <- Event.Acquire l;
  dec.rel_ops.(dec.nl) <- Event.Release l;
  dec.nl <- dec.nl + 1

let def_tid dec t =
  if dec.nt = Array.length dec.tids then begin
    dec.tids <- grown dec.tids (dec.nt + 1) 0;
    dec.fork_ops <- grown dec.fork_ops (dec.nt + 1) dummy_op;
    dec.join_ops <- grown dec.join_ops (dec.nt + 1) dummy_op;
    dec.prev_locs <- grown dec.prev_locs (dec.nt + 1) Loc.none
  end;
  dec.prev_locs.(dec.nt) <- Loc.none;
  dec.tids.(dec.nt) <- t;
  dec.fork_ops.(dec.nt) <- Event.Fork t;
  dec.join_ops.(dec.nt) <- Event.Join t;
  dec.nt <- dec.nt + 1

(* Content-addressed location cache: a direct-mapped table, not a
   Hashtbl — this sits on the hot path of every event whose thread
   changed location, and a masked array load plus three int compares
   beats a hash call and a bucket walk. Slots are verified
   field-by-field on hit; a collision just evicts (correctness never
   depends on the cache, it only makes loops re-use one [Loc.t]). *)
let loc_of dec func pc line =
  let prev = dec.prev_loc in
  if prev.Loc.func = func && prev.Loc.pc = pc && prev.Loc.line = line then prev
  else begin
    let key = ((func * 8388617) + pc) * 8388617 + line in
    let idx = key land (loc_tab_size - 1) in
    let l = Array.unsafe_get dec.loc_tab idx in
    if l.Loc.func = func && l.Loc.pc = pc && l.Loc.line = line then l
    else begin
      let l = Loc.make ~func ~pc ~line in
      Array.unsafe_set dec.loc_tab idx l;
      l
    end
  end

let enter_op dec f =
  match Hashtbl.find dec.enter_ops f with
  | op -> op
  | exception Not_found ->
      let op = Event.Enter f in
      Hashtbl.add dec.enter_ops f op;
      op

let exit_op dec f =
  match Hashtbl.find dec.exit_ops f with
  | op -> op
  | exception Not_found ->
      let op = Event.Exit f in
      Hashtbl.add dec.exit_ops f op;
      op

(* Decode the records in [s.[!pos .. stop-1]]; [base] is the absolute
   stream offset of [s.[0]] (0 when [s] is the whole stream). *)
let decode_records dec ?syms s ~pos ~stop ~base f =
  (* Inlined 1- and 2-byte varint fast paths: [Wire.read_uvarint] is a
     cross-module call ocamlopt will not inline, and nearly every field
     here (dense ids, tids, loc deltas) fits in one or two bytes. The
     closures are built once per chunk, not per record, and the slow
     path falls back to [Wire] for bounds errors and longer values. *)
  let uv () =
    let p = !pos in
    if p < stop then begin
      let b = Char.code (String.unsafe_get s p) in
      if b < 0x80 then begin
        pos := p + 1;
        b
      end
      else if p + 1 < stop then begin
        let b1 = Char.code (String.unsafe_get s (p + 1)) in
        if b1 < 0x80 then begin
          pos := p + 2;
          b land 0x7f lor (b1 lsl 7)
        end
        else Wire.read_uvarint s ~pos ~base
      end
      else Wire.read_uvarint s ~pos ~base
    end
    else Wire.read_uvarint s ~pos ~base
  in
  let sv () = Wire.unzigzag (uv ()) in
  while !pos < stop do
    let rec_off = base + !pos in
    let tag = Char.code (String.unsafe_get s !pos) in
    incr pos;
    if tag >= tag_event then begin
      let code = (tag land lnot loc_bits) - tag_event in
      if code < 0 || code >= n_op_codes then
        errf rec_off "unknown record tag 0x%02x (byte %d)" tag rec_off;
      let tid_id = uv () in
      if tid_id < 0 || tid_id >= dec.nt then
        errf rec_off "undefined thread id %d (byte %d)" tid_id rec_off;
      let scratch = dec.scratch in
      scratch.Event.tid <- Array.unsafe_get dec.tids tid_id;
      let op =
        match code with
        | 0 ->
            let id = uv () in
            if id < 0 || id >= dec.nv then bad_operand id rec_off;
            let op = Array.unsafe_get dec.read_ops id in
            if op != dummy_op then op
            else begin
              let op = Event.Read (Array.unsafe_get dec.vars id) in
              Array.unsafe_set dec.read_ops id op;
              op
            end
        | 1 ->
            let id = uv () in
            if id < 0 || id >= dec.nv then bad_operand id rec_off;
            let op = Array.unsafe_get dec.write_ops id in
            if op != dummy_op then op
            else begin
              let op = Event.Write (Array.unsafe_get dec.vars id) in
              Array.unsafe_set dec.write_ops id op;
              op
            end
        | 2 ->
            let id = uv () in
            if id < 0 || id >= dec.nl then bad_operand id rec_off;
            Array.unsafe_get dec.acq_ops id
        | 3 ->
            let id = uv () in
            if id < 0 || id >= dec.nl then bad_operand id rec_off;
            Array.unsafe_get dec.rel_ops id
        | 4 ->
            let id = uv () in
            if id < 0 || id >= dec.nt then bad_operand id rec_off;
            Array.unsafe_get dec.fork_ops id
        | 5 ->
            let id = uv () in
            if id < 0 || id >= dec.nt then bad_operand id rec_off;
            Array.unsafe_get dec.join_ops id
        | 6 -> Event.Yield
        | 7 -> enter_op dec (sv ())
        | 8 -> exit_op dec (sv ())
        | 9 -> Event.Atomic_begin
        | 10 -> Event.Atomic_end
        | _ -> Event.Out (sv ())
      in
      scratch.Event.op <- op;
      let loc =
        if tag land same_loc_bit <> 0 then Array.unsafe_get dec.prev_locs tid_id
        else begin
          let l =
            if tag land stream_loc_bit <> 0 then dec.last_loc
            else begin
              let func = sv () in
              let pc = sv () in
              let line = sv () in
              let l = loc_of dec func pc line in
              dec.prev_loc <- l;
              l
            end
          in
          Array.unsafe_set dec.prev_locs tid_id l;
          l
        end
      in
      dec.last_loc <- loc;
      scratch.Event.loc <- loc;
      f scratch
    end
    else if tag = tag_def_global then def_var dec (Event.Global (sv ()))
    else if tag = tag_def_cell then begin
      let a = sv () in
      let i = sv () in
      def_var dec (Event.Cell (a, i))
    end
    else if tag = tag_def_lock then def_lock dec (sv ())
    else if tag = tag_def_tid then def_tid dec (sv ())
    else if tag = tag_name then begin
      if !pos >= stop then errf rec_off "truncated name record (byte %d)" rec_off;
      let kb = Char.code s.[!pos] in
      incr pos;
      let id = uv () in
      let n = uv () in
      if n < 0 || !pos + n > stop then
        errf rec_off "truncated name record (byte %d)" rec_off;
      let name = String.sub s !pos n in
      pos := !pos + n;
      match kind_of_byte kb with
      | None -> errf rec_off "bad symbol kind %d (byte %d)" kb rec_off
      | Some kind -> (
          match syms with Some t -> Symtab.set t kind id name | None -> ())
    end
    else errf rec_off "unknown record tag 0x%02x (byte %d)" tag rec_off
  done;
  if !pos > stop then
    errf (base + stop) "record overruns its chunk (byte %d)" (base + stop)

let max_chunk = 1 lsl 26

let check_version v ~off =
  if v <> version then
    errf off "unsupported %s version %d, this reader speaks %d (byte %d)"
      format_name v version off

(* ---- whole-string decoding ---- *)

let iter_string ?syms s f =
  let len = String.length s in
  if len < magic_len || String.sub s 0 magic_len <> magic then
    Wire.parse_error
      (Printf.sprintf "bad magic: not a %s stream (byte 0)" format_name)
      0;
  let pos = ref magic_len in
  let dec = create_decoder () in
  check_version (Wire.read_uvarint s ~pos ~base:0) ~off:magic_len;
  let finished = ref false in
  while not !finished do
    if !pos >= len then
      errf len "truncated stream: missing end-of-stream chunk (byte %d)" len;
    let chunk_off = !pos in
    let n = Wire.read_uvarint s ~pos ~base:0 in
    if n = 0 then finished := true
    else begin
      if n > max_chunk then
        errf chunk_off "oversized chunk of %d bytes (byte %d)" n chunk_off;
      let stop = !pos + n in
      if stop > len then
        errf chunk_off "truncated chunk: wanted %d bytes, stream ends (byte %d)"
          n chunk_off;
      decode_records dec ?syms s ~pos ~stop ~base:0 f;
      pos := stop
    end
  done

let of_string ?syms s =
  let trace = Trace.create () in
  iter_string ?syms s (Trace.Sink.recording trace);
  trace

(* ---- channel decoding ---- *)

let iter_channel_body ?syms ~offset ic f =
  let off = ref offset in
  let voff = !off in
  check_version (Wire.input_uvarint ic ~offset:off) ~off:voff;
  let dec = create_decoder () in
  (* One chunk buffer, grown to the largest chunk seen and reused; the
     string view is refreshed only between chunks. *)
  let scratch = ref (Bytes.create chunk_target) in
  let finished = ref false in
  while not !finished do
    let chunk_off = !off in
    let n =
      match Wire.input_uvarint ic ~offset:off with
      | n -> n
      | exception End_of_file ->
          errf chunk_off
            "truncated stream: missing end-of-stream chunk (byte %d)" chunk_off
    in
    if n = 0 then finished := true
    else begin
      if n > max_chunk then
        errf chunk_off "oversized chunk of %d bytes (byte %d)" n chunk_off;
      if Bytes.length !scratch < n then scratch := Bytes.create n;
      (match really_input ic !scratch 0 n with
      | () -> ()
      | exception End_of_file ->
          errf chunk_off "truncated chunk: wanted %d bytes, stream ends (byte %d)"
            n chunk_off);
      let base = !off in
      off := !off + n;
      let s = Bytes.unsafe_to_string !scratch in
      decode_records dec ?syms s ~pos:(ref 0) ~stop:n ~base f
    end
  done

let iter_channel ?syms ic f =
  let head =
    match really_input_string ic magic_len with
    | s -> s
    | exception End_of_file ->
        Wire.parse_error
          (Printf.sprintf "truncated header: not a %s stream (byte 0)"
             format_name)
          0
  in
  if head <> magic then
    Wire.parse_error
      (Printf.sprintf "bad magic: not a %s stream (byte 0)" format_name)
      0;
  iter_channel_body ?syms ~offset:magic_len ic f

let load ?syms path =
  let trace = Trace.create () in
  let ic = open_in_bin path in
  (match iter_channel ?syms ic (Trace.Sink.recording trace) with
  | () -> close_in ic
  | exception e ->
      close_in_noerr ic;
      raise e);
  trace
