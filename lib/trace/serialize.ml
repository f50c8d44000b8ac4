exception Parse_error = Wire.Parse_error
exception Encode_error = Wire.Encode_error

type format = Text | Binary

let format_to_string = function Text -> "text" | Binary -> "binary"

let format_of_string = function
  | "text" -> Some Text
  | "binary" -> Some Binary
  | _ -> None

(* Every parse failure names its line so the CLI can report a position
   without re-deriving it; the line number also travels separately in
   the exception for callers that want it structured. *)
let fail lineno msg =
  raise (Parse_error (Printf.sprintf "%s (line %d)" msg lineno, lineno))

let var_to_string = function
  | Event.Global g -> Printf.sprintf "g%d" g
  | Event.Cell (a, i) -> Printf.sprintf "a%d.%d" a i

let op_to_string = function
  | Event.Read v -> "rd " ^ var_to_string v
  | Event.Write v -> "wr " ^ var_to_string v
  | Event.Acquire l -> Printf.sprintf "acq %d" l
  | Event.Release l -> Printf.sprintf "rel %d" l
  | Event.Fork t -> Printf.sprintf "fork %d" t
  | Event.Join t -> Printf.sprintf "join %d" t
  | Event.Yield -> "yield"
  | Event.Enter f -> Printf.sprintf "enter %d" f
  | Event.Exit f -> Printf.sprintf "exit %d" f
  | Event.Atomic_begin -> "abegin"
  | Event.Atomic_end -> "aend"
  | Event.Out n -> Printf.sprintf "out %d" n

let event_to_string (e : Event.t) =
  Printf.sprintf "%d %s @ %d %d %d" e.tid (op_to_string e.op) e.loc.Loc.func
    e.loc.Loc.pc e.loc.Loc.line

(* The line grammar is whitespace-split tokens with '@' delimiting the
   location, so a display name containing either would be sliced apart
   on re-parse — silent corruption. Rejecting at encode time keeps
   every text file re-readable; the binary format has no such limit. *)
let text_name_ok name =
  name <> ""
  && String.for_all
       (fun c -> not (c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '@'))
       name

let check_text_name kind id name =
  if not (text_name_ok name) then
    raise
      (Encode_error
         (Printf.sprintf
            "text format cannot encode %s %d display name %S: names with \
             whitespace or '@' only round-trip in binary — keep the binary \
             format, or see 'coopcheck convert'"
            (Symtab.kind_to_string kind) id name))

let pragma_line kind id name =
  check_text_name kind id name;
  Printf.sprintf "#%s %d %s" (Symtab.kind_to_string kind) id name

let to_string ?syms trace =
  let buf = Buffer.create (Trace.length trace * 24) in
  (match syms with
  | Some t ->
      Symtab.iter t (fun kind id name ->
          Buffer.add_string buf (pragma_line kind id name);
          Buffer.add_char buf '\n')
  | None -> ());
  Trace.iter
    (fun e ->
      Buffer.add_string buf (event_to_string e);
      Buffer.add_char buf '\n')
    trace;
  Buffer.contents buf

let parse_var lineno s =
  let bad () = fail lineno ("bad variable " ^ s) in
  if String.length s < 2 then bad ();
  match s.[0] with
  | 'g' -> (
      match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
      | Some g -> Event.Global g
      | None -> bad ())
  | 'a' -> (
      match String.index_opt s '.' with
      | Some dot -> (
          let a = String.sub s 1 (dot - 1) in
          let i = String.sub s (dot + 1) (String.length s - dot - 1) in
          match (int_of_string_opt a, int_of_string_opt i) with
          | Some a, Some i -> Event.Cell (a, i)
          | _ -> bad ())
      | None -> bad ())
  | _ -> bad ()

let parse_int lineno s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> fail lineno ("bad integer " ^ s)

(* ["#kind id name"] binds a display name (see {!Symtab}); any other
   '#' line is a comment. Files written before pragmas existed contain
   no '#' lines, so the grammar extension is backward compatible. *)
let parse_pragma ?syms lineno line =
  let body = String.sub line 1 (String.length line - 1) in
  match String.split_on_char ' ' body |> List.filter (fun w -> w <> "") with
  | [ kind; id; name ] -> (
      match Symtab.kind_of_string kind with
      | None -> ()
      | Some k -> (
          let id =
            match int_of_string_opt id with
            | Some id when id >= 0 -> id
            | _ -> fail lineno ("bad symbol id in pragma: " ^ line)
          in
          match syms with Some t -> Symtab.set t k id name | None -> ()))
  | _ -> ()

let parse_line lineno line =
  let words =
    String.split_on_char ' ' line |> List.filter (fun w -> w <> "")
  in
  let op_and_loc tid rest =
    let op, loc_words =
      match rest with
      | "rd" :: v :: tl -> (Event.Read (parse_var lineno v), tl)
      | "wr" :: v :: tl -> (Event.Write (parse_var lineno v), tl)
      | "acq" :: l :: tl -> (Event.Acquire (parse_int lineno l), tl)
      | "rel" :: l :: tl -> (Event.Release (parse_int lineno l), tl)
      | "fork" :: t :: tl -> (Event.Fork (parse_int lineno t), tl)
      | "join" :: t :: tl -> (Event.Join (parse_int lineno t), tl)
      | "yield" :: tl -> (Event.Yield, tl)
      | "enter" :: f :: tl -> (Event.Enter (parse_int lineno f), tl)
      | "exit" :: f :: tl -> (Event.Exit (parse_int lineno f), tl)
      | "abegin" :: tl -> (Event.Atomic_begin, tl)
      | "aend" :: tl -> (Event.Atomic_end, tl)
      | "out" :: n :: tl -> (Event.Out (parse_int lineno n), tl)
      | _ -> fail lineno ("bad operation in: " ^ line)
    in
    match loc_words with
    | [ "@"; func; pc; ln ] ->
        Event.make ~tid ~op
          ~loc:
            (Loc.make ~func:(parse_int lineno func) ~pc:(parse_int lineno pc)
               ~line:(parse_int lineno ln))
    | _ -> fail lineno ("bad location in: " ^ line)
  in
  match words with
  | tid :: rest -> op_and_loc (parse_int lineno tid) rest
  | [] -> fail lineno "empty line"

let handle_line ?syms lineno line f =
  let line = String.trim line in
  if line <> "" then
    if line.[0] = '#' then parse_pragma ?syms lineno line
    else f (parse_line lineno line)

let iter_string ?syms s f =
  let lines = String.split_on_char '\n' s in
  List.iteri (fun i line -> handle_line ?syms (i + 1) line f) lines

let of_string ?syms s =
  let trace = Trace.create () in
  iter_string ?syms s (Trace.add trace);
  trace

(* [prefix] is whatever a format sniffer already pulled off the channel
   (at most a handful of bytes, but possibly spanning newlines): its
   complete lines are parsed here, its trailing fragment is glued onto
   the first line read from the channel. *)
let iter_channel_from ?syms ~prefix ic f =
  let lineno = ref 0 in
  let handle line =
    incr lineno;
    handle_line ?syms !lineno line f
  in
  let frag = ref "" in
  (let rec go = function
     | [] -> ()
     | [ last ] -> frag := last
     | l :: tl ->
         handle l;
         go tl
   in
   go (String.split_on_char '\n' prefix));
  (try
     while true do
       let rest = input_line ic in
       let line = !frag ^ rest in
       frag := "";
       handle line
     done
   with End_of_file -> ());
  if !frag <> "" then handle !frag

let save ?(format = Text) ?syms path trace =
  match format with
  | Binary -> Codec.save ?syms path trace
  | Text ->
      let oc = open_out_bin path in
      (match output_string oc (to_string ?syms trace) with
      | () -> close_out oc
      | exception e ->
          close_out_noerr oc;
          raise e)

let with_file_sink ?(format = Text) ?syms path k =
  let oc = open_out_bin path in
  match
    match format with
    | Binary -> Codec.with_sink ?syms oc k
    | Text ->
        (match syms with
        | Some t ->
            Symtab.iter t (fun kind id name ->
                output_string oc (pragma_line kind id name);
                output_char oc '\n')
        | None -> ());
        k (fun e ->
            output_string oc (event_to_string e);
            output_char oc '\n')
  with
  | r ->
      close_out oc;
      r
  | exception e ->
      close_out_noerr oc;
      raise e

(* The first magic byte is non-ASCII, so no text trace can collide with
   a binary header; a non-empty strict prefix of the magic can only be
   a binary stream cut off mid-header, which deserves a truncation
   error rather than a baffling text-parse one. *)
let sniff head =
  if String.starts_with ~prefix:Codec.magic head then Binary
  else if head <> "" && String.starts_with ~prefix:head Codec.magic then
    let n = String.length head in
    Wire.parse_error
      (Printf.sprintf "truncated header: not a complete %s stream (byte %d)"
         Codec.format_name n)
      n
  else Text

let of_string_any ?syms s =
  let n = min (String.length s) (String.length Codec.magic) in
  match sniff (String.sub s 0 n) with
  | Binary -> (Binary, Codec.of_string ?syms s)
  | Text -> (Text, of_string ?syms s)

let load ?syms path =
  let ic = open_in_bin path in
  match
    let n = in_channel_length ic in
    snd (of_string_any ?syms (really_input_string ic n))
  with
  | t ->
      close_in ic;
      t
  | exception e ->
      close_in_noerr ic;
      raise e
