type t = { func : int; pc : int; line : int }

let make ~func ~pc ~line = { func; pc; line }

let none = { func = -1; pc = -1; line = 0 }

let compare a b =
  let c = Int.compare a.func b.func in
  if c <> 0 then c
  else begin
    let c = Int.compare a.pc b.pc in
    if c <> 0 then c else Int.compare a.line b.line
  end

let equal a b = compare a b = 0

(* Digits are produced from the non-positive value, so [min_int] needs no
   special case. *)
let rec digits v k = if v > -10 then k else digits (v / 10) (k + 1)

let width n = digits (if n > 0 then -n else n) 1 + if n < 0 then 1 else 0

(* Writes [n] so that it ends just before [stop]; returns its start. *)
let put_int b stop n =
  let start = stop - width n and v = ref (if n > 0 then -n else n) in
  for p = stop - 1 downto start + if n < 0 then 1 else 0 do
    Bytes.unsafe_set b p (Char.unsafe_chr (48 - (!v mod 10)));
    v := !v / 10
  done;
  if n < 0 then Bytes.unsafe_set b start '-';
  start

(* "f" ^ func ^ ":pc" ^ pc ^ "(line " ^ line ^ ")" written right to left
   into one string of the exact length: violations and yields are
   rendered in bulk, and a formatter costs ~20x more. *)
let to_string t =
  if t.func < 0 then "<none>"
  else begin
    let b = Bytes.create (11 + width t.func + width t.pc + width t.line) in
    let n = Bytes.length b in
    Bytes.unsafe_set b (n - 1) ')';
    let p = put_int b (n - 1) t.line - 6 in
    Bytes.blit_string "(line " 0 b p 6;
    let p = put_int b p t.pc - 3 in
    Bytes.blit_string ":pc" 0 b p 3;
    let p = put_int b p t.func in
    Bytes.unsafe_set b (p - 1) 'f';
    Bytes.unsafe_to_string b
  end

let pp ppf t = Format.pp_print_string ppf (to_string t)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
