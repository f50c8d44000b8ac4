open Coop_race
let to_alcotest = Gen.to_alcotest
open QCheck2
module P = Vclock.Persistent

let bindings_gen =
  Gen.list_size (Gen.int_bound 6)
    (Gen.pair (Gen.int_bound 5) (Gen.int_bound 20))

let gen_flat = Gen.map Vclock.of_list bindings_gen
let gen_pers = Gen.map P.of_list bindings_gen

let print_flat c = Format.asprintf "%a" Vclock.pp c
let print_pers c = Format.asprintf "%a" P.pp c

(* --- Flat implementation: unit tests ---------------------------------- *)

let test_flat_empty () =
  let c = Vclock.create () in
  Alcotest.(check int) "absent is 0" 0 (Vclock.get c 3);
  Alcotest.(check bool) "empty leq anything" true
    (Vclock.leq c (Vclock.of_list [ (0, 5) ]))

let test_flat_set_get () =
  let c = Vclock.create () in
  Vclock.set c 2 7;
  Alcotest.(check int) "set value" 7 (Vclock.get c 2);
  Alcotest.(check int) "others zero" 0 (Vclock.get c 0);
  Alcotest.(check int) "beyond capacity zero" 0 (Vclock.get c 1000);
  Vclock.set c 2 0;
  Alcotest.(check bool) "zeroed equals empty" true
    (Vclock.equal c (Vclock.create ()))

let test_flat_tick () =
  let c = Vclock.create () in
  Vclock.tick_in_place c 1;
  Vclock.tick_in_place c 1;
  Alcotest.(check int) "ticked twice" 2 (Vclock.get c 1)

let test_flat_join_into () =
  let a = Vclock.of_list [ (0, 3); (1, 1) ] in
  let b = Vclock.of_list [ (1, 4); (2, 2) ] in
  Vclock.join_into ~into:a b;
  Alcotest.(check int) "comp 0" 3 (Vclock.get a 0);
  Alcotest.(check int) "comp 1" 4 (Vclock.get a 1);
  Alcotest.(check int) "comp 2" 2 (Vclock.get a 2);
  (* b must be untouched *)
  Alcotest.(check int) "src comp 1" 4 (Vclock.get b 1);
  Alcotest.(check int) "src comp 0" 0 (Vclock.get b 0)

let test_flat_copy () =
  let a = Vclock.of_list [ (0, 3); (4, 1) ] in
  let b = Vclock.copy a in
  Vclock.tick_in_place b 0;
  Alcotest.(check int) "copy is detached" 3 (Vclock.get a 0);
  Alcotest.(check int) "copy ticked" 4 (Vclock.get b 0);
  let c = Vclock.of_list [ (9, 9) ] in
  Vclock.copy_into ~into:c a;
  Alcotest.(check bool) "copy_into overwrites" true (Vclock.equal c a);
  Alcotest.(check int) "stale component cleared" 0 (Vclock.get c 9);
  Vclock.clear c;
  Alcotest.(check bool) "clear empties" true (Vclock.equal c (Vclock.create ()))

let test_flat_leq () =
  let a = Vclock.of_list [ (0, 1) ] in
  let b = Vclock.of_list [ (0, 2); (1, 1) ] in
  Alcotest.(check bool) "a leq b" true (Vclock.leq a b);
  Alcotest.(check bool) "b not leq a" false (Vclock.leq b a)

(* --- Persistent reference implementation: unit tests ------------------- *)

let test_pers_empty () =
  Alcotest.(check int) "absent is 0" 0 (P.get P.empty 3);
  Alcotest.(check bool) "empty leq anything" true
    (P.leq P.empty (P.of_list [ (0, 5) ]))

let test_pers_set_get () =
  let c = P.set P.empty 2 7 in
  Alcotest.(check int) "set value" 7 (P.get c 2);
  Alcotest.(check int) "others zero" 0 (P.get c 0);
  let c = P.set c 2 0 in
  Alcotest.(check bool) "zero normalizes to empty" true (P.equal c P.empty)

let test_pers_tick () =
  let c = P.tick (P.tick P.empty 1) 1 in
  Alcotest.(check int) "ticked twice" 2 (P.get c 1)

let test_pers_join () =
  let a = P.of_list [ (0, 3); (1, 1) ] in
  let b = P.of_list [ (1, 4); (2, 2) ] in
  let j = P.join a b in
  Alcotest.(check int) "comp 0" 3 (P.get j 0);
  Alcotest.(check int) "comp 1" 4 (P.get j 1);
  Alcotest.(check int) "comp 2" 2 (P.get j 2)

(* --- Lattice laws, for both implementations ---------------------------- *)

let prop name gen f = to_alcotest (Test.make ~name ~count:300 gen f)

(* The flat side states each law with [copy] + in-place ops so the laws
   also exercise the mutating entry points, not just [of_list]. *)
let flat_join a b =
  let j = Vclock.copy a in
  Vclock.join_into ~into:j b;
  j

module type CLOCK = sig
  type t

  val join : t -> t -> t
  val tick : t -> int -> t
  val leq : t -> t -> bool
  val equal : t -> t -> bool
  val compare : t -> t -> int
  val of_list : (int * int) list -> t
  val to_list : t -> (int * int) list
end

let lattice_suite (type c) name (module C : CLOCK with type t = c) gen =
  let p n = prop (name ^ ": " ^ n) in
  [
    p "join commutative" (Gen.pair gen gen) (fun (a, b) ->
        C.equal (C.join a b) (C.join b a));
    p "join associative" (Gen.triple gen gen gen) (fun (a, b, c) ->
        C.equal (C.join a (C.join b c)) (C.join (C.join a b) c));
    p "join idempotent" gen (fun a -> C.equal (C.join a a) a);
    p "join is upper bound" (Gen.pair gen gen) (fun (a, b) ->
        let j = C.join a b in
        C.leq a j && C.leq b j);
    p "join is least upper bound" (Gen.triple gen gen gen) (fun (a, b, u) ->
        QCheck2.assume (C.leq a u && C.leq b u);
        C.leq (C.join a b) u);
    p "leq reflexive" gen (fun a -> C.leq a a);
    p "leq antisymmetric" (Gen.pair gen gen) (fun (a, b) ->
        QCheck2.assume (C.leq a b && C.leq b a);
        C.equal a b);
    p "leq transitive" (Gen.triple gen gen gen) (fun (a, b, c) ->
        QCheck2.assume (C.leq a b && C.leq b c);
        C.leq a c);
    p "tick strictly increases" (Gen.pair gen (Gen.int_bound 5)) (fun (a, t) ->
        let a' = C.tick a t in
        C.leq a a' && not (C.leq a' a));
    p "to_list/of_list roundtrip" gen (fun a ->
        C.equal a (C.of_list (C.to_list a)));
    p "compare consistent with equal" (Gen.pair gen gen) (fun (a, b) ->
        C.equal a b = (C.compare a b = 0));
  ]

let flat_laws =
  lattice_suite "flat"
    (module struct
      type t = Vclock.t

      let join = flat_join

      let tick a t =
        let a' = Vclock.copy a in
        Vclock.tick_in_place a' t;
        a'

      let leq = Vclock.leq
      let equal = Vclock.equal
      let compare = Vclock.compare
      let of_list = Vclock.of_list
      let to_list = Vclock.to_list
    end)
    gen_flat

let pers_laws =
  lattice_suite "persistent"
    (module struct
      type t = P.t

      let join = P.join
      let tick = P.tick
      let leq = P.leq
      let equal = P.equal
      let compare = P.compare
      let of_list = P.of_list
      let to_list = P.to_list
    end)
    gen_pers

(* --- Differential: flat == persistent on random op sequences ----------- *)

(* A random program over the clock API, interpreted under both
   representations simultaneously; every intermediate state must agree.
   This pins the in-place operations (tick/join/copy_into/set/clear) to
   the persistent oracle, not just the pure constructors. *)
type op =
  | Set of int * int
  | Tick of int
  | Join of (int * int) list
  | Copy_from of (int * int) list
  | Clear

let op_gen =
  Gen.oneof
    [
      Gen.map2 (fun t n -> Set (t, n)) (Gen.int_bound 5) (Gen.int_bound 20);
      Gen.map (fun t -> Tick t) (Gen.int_bound 5);
      Gen.map (fun l -> Join l) bindings_gen;
      Gen.map (fun l -> Copy_from l) bindings_gen;
      Gen.return Clear;
    ]

let print_ops ops =
  String.concat "; "
    (List.map
       (function
         | Set (t, n) -> Printf.sprintf "set %d %d" t n
         | Tick t -> Printf.sprintf "tick %d" t
         | Join l -> "join " ^ print_pers (P.of_list l)
         | Copy_from l -> "copy_from " ^ print_pers (P.of_list l)
         | Clear -> "clear")
       ops)

let agree flat pers =
  Vclock.equal flat (Vclock.of_persistent pers)
  && P.equal (Vclock.to_persistent flat) pers
  && Vclock.to_list flat = P.to_list pers
  && List.for_all
       (fun t -> Vclock.get flat t = P.get pers t)
       [ 0; 1; 2; 3; 4; 5; 6; 100 ]

let differential_suite =
  [
    to_alcotest
      (Test.make ~name:"flat = persistent on random op sequences" ~count:500
         ~print:print_ops
         (Gen.list_size (Gen.int_bound 30) op_gen)
         (fun ops ->
           let flat = Vclock.create () in
           let pers = ref P.empty in
           List.for_all
             (fun op ->
               (match op with
               | Set (t, n) ->
                   Vclock.set flat t n;
                   pers := P.set !pers t n
               | Tick t ->
                   Vclock.tick_in_place flat t;
                   pers := P.tick !pers t
               | Join l ->
                   Vclock.join_into ~into:flat (Vclock.of_list l);
                   pers := P.join !pers (P.of_list l)
               | Copy_from l ->
                   Vclock.copy_into ~into:flat (Vclock.of_list l);
                   pers := P.of_list l
               | Clear ->
                   Vclock.clear flat;
                   pers := P.empty);
               agree flat !pers)
             ops));
    to_alcotest
      (Test.make ~name:"leq/equal/compare agree across representations"
         ~count:500
         (Gen.pair bindings_gen bindings_gen)
         (fun (la, lb) ->
           let fa = Vclock.of_list la and fb = Vclock.of_list lb in
           let pa = P.of_list la and pb = P.of_list lb in
           Vclock.leq fa fb = P.leq pa pb
           && Vclock.equal fa fb = P.equal pa pb
           && Stdlib.compare (Vclock.compare fa fb = 0) (P.compare pa pb = 0)
              = 0));
  ]

(* --- Epochs ------------------------------------------------------------ *)

let test_epoch_pack () =
  let e = Epoch.make ~tid:3 ~clock:42 in
  Alcotest.(check int) "tid" 3 (Epoch.tid e);
  Alcotest.(check int) "clock" 42 (Epoch.clock e);
  Alcotest.(check bool) "not bottom" false (Epoch.is_bottom e);
  Alcotest.(check bool) "bottom is bottom" true (Epoch.is_bottom Epoch.bottom)

let test_epoch_leq () =
  let c = Vclock.of_list [ (2, 5) ] in
  Alcotest.(check bool) "bottom leq" true (Epoch.leq Epoch.bottom c);
  Alcotest.(check bool) "leq same" true (Epoch.leq (Epoch.make ~tid:2 ~clock:5) c);
  Alcotest.(check bool) "leq below" true (Epoch.leq (Epoch.make ~tid:2 ~clock:4) c);
  Alcotest.(check bool) "not leq above" false (Epoch.leq (Epoch.make ~tid:2 ~clock:6) c);
  Alcotest.(check bool) "other thread" false (Epoch.leq (Epoch.make ~tid:0 ~clock:1) c)

let test_epoch_of_thread () =
  let c = Vclock.of_list [ (1, 9) ] in
  let e = Epoch.of_thread 1 c in
  Alcotest.(check int) "clock snapshot" 9 (Epoch.clock e);
  Alcotest.(check string) "pp" "9@1" (Format.asprintf "%a" Epoch.pp e);
  Alcotest.(check string) "pp bottom" "_|_" (Format.asprintf "%a" Epoch.pp Epoch.bottom)

let test_epoch_overflow () =
  (* The packed representation shifts the clock above the tid field; a
     clock past [max_clock] used to wrap silently into the sign bit. *)
  let e = Epoch.make ~tid:7 ~clock:Epoch.max_clock in
  Alcotest.(check int) "max clock roundtrips" Epoch.max_clock (Epoch.clock e);
  Alcotest.(check int) "tid intact at max clock" 7 (Epoch.tid e);
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | (_ : Epoch.t) -> false
  in
  Alcotest.(check bool) "max_clock + 1 raises" true
    (raises (fun () -> Epoch.make ~tid:0 ~clock:(Epoch.max_clock + 1)));
  Alcotest.(check bool) "max_int raises" true
    (raises (fun () -> Epoch.make ~tid:0 ~clock:max_int));
  Alcotest.(check bool) "negative clock raises" true
    (raises (fun () -> Epoch.make ~tid:0 ~clock:(-1)));
  Alcotest.(check bool) "negative tid raises" true
    (raises (fun () -> Epoch.make ~tid:(-1) ~clock:0))

let epoch_qsuite =
  [
    prop "epoch leq agrees with clock leq on both representations"
      (Gen.pair (Gen.pair (Gen.int_bound 5) (Gen.int_bound 20)) bindings_gen)
      (fun ((t, n), l) ->
        let e = Epoch.make ~tid:t ~clock:n in
        let flat = Vclock.of_list l in
        let expected = n <= P.get (P.of_list l) t in
        Epoch.leq e flat = expected
        && Epoch.leq e (Vclock.of_persistent (Vclock.to_persistent flat))
           = expected);
    prop "of_thread snapshots the component"
      (Gen.pair (Gen.int_bound 5) bindings_gen) (fun (t, l) ->
        let c = Vclock.of_list l in
        let e = Epoch.of_thread t c in
        Epoch.tid e = t && Epoch.clock e = Vclock.get c t && Epoch.leq e c);
  ]

let suite =
  [
    Alcotest.test_case "flat: empty clock" `Quick test_flat_empty;
    Alcotest.test_case "flat: set/get" `Quick test_flat_set_get;
    Alcotest.test_case "flat: tick_in_place" `Quick test_flat_tick;
    Alcotest.test_case "flat: join_into" `Quick test_flat_join_into;
    Alcotest.test_case "flat: copy/copy_into/clear" `Quick test_flat_copy;
    Alcotest.test_case "flat: leq" `Quick test_flat_leq;
    Alcotest.test_case "persistent: empty clock" `Quick test_pers_empty;
    Alcotest.test_case "persistent: set/get" `Quick test_pers_set_get;
    Alcotest.test_case "persistent: tick" `Quick test_pers_tick;
    Alcotest.test_case "persistent: join" `Quick test_pers_join;
    Alcotest.test_case "epoch packing" `Quick test_epoch_pack;
    Alcotest.test_case "epoch leq" `Quick test_epoch_leq;
    Alcotest.test_case "epoch of_thread and pp" `Quick test_epoch_of_thread;
    Alcotest.test_case "epoch overflow guard" `Quick test_epoch_overflow;
  ]
  @ flat_laws @ pers_laws @ differential_suite @ epoch_qsuite

let _ = print_flat
