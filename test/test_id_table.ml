open Coop_util

(* A table hands every caller the same value for an id, before and after
   it grows. *)
let test_shared_values () =
  let t = Id_table.create (fun i -> (i, string_of_int i)) in
  let first = List.init 3 (Id_table.get t) in
  for i = 0 to 100 do
    Alcotest.(check string) "value" (string_of_int i) (snd (Id_table.get t i))
  done;
  List.iteri
    (fun i v -> Alcotest.(check bool) "kept across growth" true (Id_table.get t i == v))
    first;
  Alcotest.check_raises "negative id" (Invalid_argument "Id_table.get: negative id")
    (fun () -> ignore (Id_table.get t (-1)))

(* Domains growing one table at once all read its values. *)
let test_concurrent_growth () =
  let t = Id_table.create (fun i -> i * i) in
  let grow () = List.init 2_000 (fun i -> Id_table.get t i = i * i) in
  let d = Domain.spawn grow in
  let mine = grow () in
  Alcotest.(check bool) "all values" true
    (List.for_all Fun.id mine && List.for_all Fun.id (Domain.join d))

let suite =
  [
    Alcotest.test_case "shared values" `Quick test_shared_values;
    Alcotest.test_case "concurrent growth" `Quick test_concurrent_growth;
  ]
