(* Unit tests for the Chase-Lev SPMC deque backing the work-stealing
   pool: a qcheck check against the sequential list model promised by the
   interface, plus a concurrent owner-and-stealers stress run asserting
   every pushed element is handed out exactly once. *)

open Coop_util

type op =
  | Push of int
  | Pop
  | Steal

let op_gen =
  QCheck2.Gen.(
    frequency
      [ (3, map (fun n -> Push n) small_nat); (2, pure Pop); (2, pure Steal) ])

let ops_gen = QCheck2.Gen.(list_size (int_range 0 200) op_gen)

let print_ops ops =
  String.concat "; "
    (List.map
       (function
         | Push n -> Printf.sprintf "push %d" n
         | Pop -> "pop"
         | Steal -> "steal")
       ops)

(* Reference model: a list with the oldest element at the head. Push
   appends at the back, pop removes from the back, steal from the front. *)
let model_pop m =
  match List.rev m with [] -> (None, m) | x :: rev -> (Some x, List.rev rev)

let model_steal = function [] -> (None, []) | x :: tl -> (Some x, tl)

let sequential_model =
  Gen.to_alcotest
    (QCheck2.Test.make ~name:"qcheck: deque matches the list model" ~count:500
       ~print:print_ops ops_gen (fun ops ->
         (* A tiny initial capacity so longer op sequences also exercise
            the buffer growth path. *)
         let d = Spmc_deque.create ~capacity:2 ~dummy:(-1) () in
         let model = ref [] in
         List.for_all
           (function
             | Push x ->
                 Spmc_deque.push d x;
                 model := !model @ [ x ];
                 Spmc_deque.length d = List.length !model
             | Pop ->
                 let expect, m = model_pop !model in
                 model := m;
                 Spmc_deque.pop d = expect
             | Steal ->
                 let expect, m = model_steal !model in
                 model := m;
                 Spmc_deque.steal d = expect)
           ops))

(* Owner pushes [0, n) (popping some back along the way) while stealer
   domains drain the other end. Whatever the interleaving, the union of
   popped and stolen values must be exactly [0, n) — nothing lost to a
   steal/pop race on the last element, nothing handed out twice. *)
let test_concurrent_transfer () =
  let n = 20_000 and stealers = 3 in
  let d = Spmc_deque.create ~dummy:(-1) () in
  let closed = Atomic.make false in
  let stolen = Array.init stealers (fun _ -> ref []) in
  let doms =
    List.init stealers (fun k ->
        Domain.spawn (fun () ->
            let acc = stolen.(k) in
            let rec loop () =
              match Spmc_deque.steal d with
              | Some x ->
                  acc := x :: !acc;
                  loop ()
              | None ->
                  if not (Atomic.get closed) then begin
                    Domain.cpu_relax ();
                    loop ()
                  end
            in
            loop ()))
  in
  let popped = ref [] in
  let take () =
    match Spmc_deque.pop d with
    | Some x -> popped := x :: !popped
    | None -> ()
  in
  for i = 0 to n - 1 do
    Spmc_deque.push d i;
    if i land 7 = 0 then take ()
  done;
  let rec drain () =
    match Spmc_deque.pop d with
    | Some x ->
        popped := x :: !popped;
        drain ()
    | None -> ()
  in
  drain ();
  Atomic.set closed true;
  List.iter Domain.join doms;
  let all =
    Array.fold_left (fun acc r -> !r @ acc) !popped stolen
    |> List.sort compare
  in
  Alcotest.(check (list int))
    "popped + stolen = pushed, each exactly once" (List.init n Fun.id) all

let test_basic () =
  let d = Spmc_deque.create ~dummy:0 () in
  Alcotest.(check (option int)) "pop on empty" None (Spmc_deque.pop d);
  Alcotest.(check (option int)) "steal on empty" None (Spmc_deque.steal d);
  Spmc_deque.push d 1;
  Spmc_deque.push d 2;
  Spmc_deque.push d 3;
  Alcotest.(check int) "length" 3 (Spmc_deque.length d);
  Alcotest.(check (option int)) "steal oldest" (Some 1) (Spmc_deque.steal d);
  Alcotest.(check (option int)) "pop newest" (Some 3) (Spmc_deque.pop d);
  Alcotest.(check (option int)) "last element" (Some 2) (Spmc_deque.pop d);
  Alcotest.(check (option int)) "empty again" None (Spmc_deque.steal d)

let suite =
  [
    Alcotest.test_case "push/pop/steal basics" `Quick test_basic;
    sequential_model;
    Alcotest.test_case "concurrent owner + 3 stealers" `Quick
      test_concurrent_transfer;
  ]
