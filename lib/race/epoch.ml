type t = int
(* Packed representation: bottom is 0; otherwise (clock lsl 20) lor (tid+1).
   20 bits of thread id is far beyond anything the VM creates. *)

let tid_bits = 20

let tid_mask = (1 lsl tid_bits) - 1

let max_clock = max_int lsr tid_bits

let bottom = 0

let read_shared = -1

let make ~tid ~clock =
  if tid < 0 || tid > tid_mask - 1 then invalid_arg "Epoch.make: tid out of range";
  (* [clock lsl tid_bits] silently wraps into the sign bit once [clock]
     exceeds the bits left above the tid field; packed epochs would then
     compare nonsensically, so refuse loudly instead. *)
  if clock < 0 || clock > max_clock then
    invalid_arg "Epoch.make: clock out of range";
  (clock lsl tid_bits) lor (tid + 1)

let is_bottom e = e = 0

let tid e =
  if is_bottom e then invalid_arg "Epoch.tid: bottom";
  (e land tid_mask) - 1

let clock e =
  if is_bottom e then invalid_arg "Epoch.clock: bottom";
  e lsr tid_bits

let of_thread t c = make ~tid:t ~clock:(Vclock.get c t)

let leq e c = if is_bottom e then true else clock e <= Vclock.get c (tid e)

let equal = Int.equal

let pp ppf e =
  if is_bottom e then Format.pp_print_string ppf "_|_"
  else Format.fprintf ppf "%d@%d" (clock e) (tid e)
