(* Splitmix64: tiny, fast, and passes BigCrush for our purposes. The state is
   a single 64-bit counter advanced by a fixed odd constant; output is a
   finalizer over the state. The counter lives in 8 bytes rather than an
   [int64] field, which would box a fresh value on every draw: with the
   draw inlined, [int] allocates nothing. *)

type t = Bytes.t

let gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)
  [@@inline]

let next t =
  let s = Int64.add (Bytes.get_int64_ne t 0) gamma in
  Bytes.set_int64_ne t 0 s;
  mix s
  [@@inline]

(* The non-negative 62 bits of an output that [int] reduces modulo its
   bound. Rejection-free modulo is fine here: bound is tiny relative to
   2^62. *)
let bits out = Int64.to_int (Int64.shift_right_logical out 2) [@@inline]

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  bits (next t) mod bound

let draw_while t bound ~keys ~counts ~max =
  if bound <= 0 then invalid_arg "Rng.draw_while: bound must be positive";
  (* For a power of two the mask is the modulo of the non-negative bits. *)
  let mask = if bound land (bound - 1) = 0 then bound - 1 else -1 in
  let n_counts = Array.length counts in
  let s = ref (Bytes.get_int64_ne t 0) in
  let taken = ref 0 and going = ref true in
  while !going && !taken < max do
    let s' = Int64.add !s gamma in
    let v = bits (mix s') in
    let key = keys.(if mask >= 0 then v land mask else v mod bound) in
    if key < n_counts && counts.(key) > 0 then begin
      counts.(key) <- counts.(key) - 1;
      s := s';
      incr taken
    end
    else going := false
  done;
  Bytes.set_int64_ne t 0 !s;
  !taken

let last_int t bound = bits (mix (Bytes.get_int64_ne t 0)) mod bound

let bool t = Int64.logand (next t) 1L = 1L

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  bound *. (v /. 9007199254740992.0)

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let split t = of_state (mix (next t))
