type 'a t = { make : int -> 'a; values : 'a array Atomic.t }

let create make = { make; values = Atomic.make [||] }

let rec get t i =
  if i < 0 then invalid_arg "Id_table.get: negative id";
  let a = Atomic.get t.values in
  if i < Array.length a then Array.unsafe_get a i
  else begin
    let len = Array.length a in
    let n = max (i + 1) (2 * len) in
    let bigger = Array.init n (fun j -> if j < len then a.(j) else t.make j) in
    ignore (Atomic.compare_and_set t.values a bigger);
    get t i
  end
