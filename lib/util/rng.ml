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

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free modulo is fine here: bound is tiny relative to 2^62. *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

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
