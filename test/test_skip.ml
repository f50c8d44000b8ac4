(* The scheduler's many-draw entry point. [Sched.skip] takes every draw
   that lands on a credited thread and returns the first one that does
   not; the built-in schedulers do it without a [pick] per draw. It must
   be observationally the loop that calls [pick] once per draw: the same
   thread, draw count, credits and context, and a scheduler in the same
   state afterwards. *)

let to_alcotest = Gen.to_alcotest

open QCheck2
open Coop_trace
open Coop_runtime
open Coop_core

(* The reference: one [pick] per draw. *)
let per_draw (s : Sched.t) (ctx : Sched.context) (l : Sched.ledger) =
  let rec go () =
    let tid = s.pick ctx in
    l.draws <- l.draws + 1;
    if tid < Array.length l.credit && l.credit.(tid) > 0 then begin
      l.credit.(tid) <- l.credit.(tid) - 1;
      ctx.last <- tid;
      ctx.last_yielded <- false;
      if l.draws >= l.budget then -1 else go ()
    end
    else tid
  in
  go ()

(* Every family, with the parameters that reach its corner cases:
   PCT's change spans are short enough for change points to fall inside
   a skip. *)
let families =
  [| ("random", fun seed -> Sched.random ~seed ());
     ("round-robin q=1", fun _ -> Sched.round_robin ~quantum:1 ());
     ("round-robin q=3", fun _ -> Sched.round_robin ~quantum:3 ());
     ("round-robin q=17", fun _ -> Sched.round_robin ~quantum:17 ());
     ("cooperative", fun _ -> Sched.cooperative ());
     ("sequential", fun _ -> Sched.sequential);
     ("pct d=3", fun seed -> Sched.pct ~seed ~depth:3 ~change_span:(1 + (seed mod 60)) ());
     ("pct d=5", fun seed -> Sched.pct ~seed ~depth:5 ~change_span:(1 + (seed mod 60)) ());
     ( "pinned",
       fun seed ->
         let r = Random.State.make [| seed |] in
         Sched.pinned (List.init 40 (fun _ -> Random.State.int r 12)) );
     ("recorded", fun seed -> snd (Sched.recorded (Sched.random ~seed ()))) |]

(* A runnable set of [n] distinct tids below 12, ascending, in a buffer
   with garbage past them. *)
let runnable_set r n =
  let tids = Array.init 12 Fun.id in
  for i = 11 downto 1 do
    let j = Random.State.int r (i + 1) in
    let t = tids.(i) in
    tids.(i) <- tids.(j);
    tids.(j) <- t
  done;
  let chosen = Array.sub tids 0 n in
  Array.sort compare chosen;
  Array.append chosen [| 1000; 1001 |]

let context r n =
  let runnable = runnable_set r n in
  let last =
    match Random.State.int r 3 with
    | 0 -> -1
    | 1 -> runnable.(Random.State.int r n)
    | _ -> Random.State.int r 12
  in
  { Sched.runnable; n_runnable = n; last; last_yielded = Random.State.bool r }

let copy_ctx (c : Sched.context) = { c with Sched.runnable = Array.copy c.runnable }

let show_ctx (c : Sched.context) =
  Printf.sprintf "[%s] last=%d yielded=%b"
    (String.concat ";"
       (List.init c.n_runnable (fun i -> string_of_int c.runnable.(i))))
    c.last c.last_yielded

(* One case: [warm] picks from random contexts, then one skip over
   [credit] from a context with [n] runnable threads and [room] draws
   left, then 100 more picks. Both copies of the scheduler see the same
   contexts throughout. *)
let law (family, seed, n, (warm, room_kind, credit_kind)) =
  let name, make = families.(family) in
  let fast = make seed and slow = make seed in
  let r = Random.State.make [| seed; n; warm |] in
  let both ctx =
    let a = fast.Sched.pick (copy_ctx ctx) and b = slow.Sched.pick (copy_ctx ctx) in
    if a <> b then Test.fail_reportf "%s: picks differ before the skip: %d vs %d" name a b
  in
  for _ = 1 to warm do
    both (context r (1 + Random.State.int r 9))
  done;
  let ctx = context r n in
  let credit =
    Array.init (Random.State.int r 13) (fun _ ->
        match credit_kind with
        | 0 -> if Random.State.bool r then 0 else Random.State.int r 5
        | 1 -> Random.State.int r 40
        | _ -> 20 + Random.State.int r 60)
  in
  let total = Array.fold_left ( + ) 0 credit in
  let draws = Random.State.int r 100 in
  let room =
    match room_kind with
    | 0 -> 1
    | 1 -> 1 + Random.State.int r (total + 2)
    | _ -> 1_000_000
  in
  let ledger () = { Sched.credit = Array.copy credit; draws; budget = draws + room } in
  let ctx_a = copy_ctx ctx and ctx_b = copy_ctx ctx in
  let l_a = ledger () and l_b = ledger () in
  let got = Sched.skip fast ctx_a l_a in
  let want = per_draw slow ctx_b l_b in
  if (got, l_a.draws, l_a.credit, show_ctx ctx_a) <> (want, l_b.draws, l_b.credit, show_ctx ctx_b)
  then
    Test.fail_reportf
      "%s from %s, credit [%s], room %d@.skip:     %d after %d draws, credit [%s], %s@.per draw: %d after %d draws, credit [%s], %s"
      name (show_ctx ctx)
      (String.concat ";" (Array.to_list (Array.map string_of_int credit)))
      room got (l_a.draws - draws)
      (String.concat ";" (Array.to_list (Array.map string_of_int l_a.credit)))
      (show_ctx ctx_a) want (l_b.draws - draws)
      (String.concat ";" (Array.to_list (Array.map string_of_int l_b.credit)))
      (show_ctx ctx_b);
  (* The scheduler's state afterwards: the next picks agree, each from
     the context the previous one leads to. *)
  let last = ref (if got >= 0 then got else ctx_a.last) in
  for i = 1 to 100 do
    let c =
      if i mod 4 = 0 then context r (1 + Random.State.int r 9)
      else { (copy_ctx ctx) with Sched.last = !last; last_yielded = i mod 7 = 0 }
    in
    let a = fast.Sched.pick (copy_ctx c) and b = slow.Sched.pick (copy_ctx c) in
    if a <> b then Test.fail_reportf "%s: pick %d after the skip: %d vs %d" name i a b;
    last := a
  done;
  true

let test_law =
  to_alcotest
    (Test.make ~name:"qcheck: skip = one pick per draw, every family" ~count:3000
       ~print:(fun (f, seed, n, (warm, room, credit)) ->
         Printf.sprintf "%s seed=%d n=%d warm=%d room=%d credit=%d"
           (fst families.(f)) seed n warm room credit)
       Gen.(
         quad
           (int_range 0 (Array.length families - 1))
           (int_range 0 10_000) (int_range 1 9)
           (triple (int_range 0 30) (int_range 0 2) (int_range 0 2)))
       law)

(* A scheduler whose [pick] was replaced by record update, to count or
   log its draws, sees every draw: the wrapped portfolio member is asked
   once per step and the run is the unwrapped one. *)
let test_record_update () =
  List.iter
    (fun (w, threads, size) ->
      let prog =
        match Coop_workloads.Registry.find w with
        | Some e -> Coop_workloads.Registry.program_of ~threads ~size e
        | None -> assert false
      in
      let run sched =
        let buf = Buffer.create 4096 in
        let sink e = Buffer.add_string buf (Format.asprintf "%a;" Event.pp e) in
        let o = Runner.run ~max_steps:20_000 ~sched ~sink prog in
        (o.Runner.steps, Vm.key o.Runner.final, Buffer.contents buf)
      in
      List.iter
        (fun f ->
          let s = f () in
          let picks = ref 0 in
          let counting =
            { s with Sched.pick = (fun ctx -> incr picks; s.Sched.pick ctx) }
          in
          let ((steps, _, _) as wrapped) = run counting in
          let label = Printf.sprintf "%s on %s" s.Sched.name w in
          Alcotest.(check int) (label ^ ": one pick per step") steps !picks;
          Alcotest.(check bool) (label ^ ": same run as unwrapped") true
            (wrapped = run (f ())))
        Infer.default_portfolio)
    [ ("philo", 3, 2); ("bank", 3, 3); ("sor", 2, 2); ("queue", 2, 2) ]

let suite =
  [ test_law;
    Alcotest.test_case "record-updated schedulers see every draw" `Quick
      test_record_update ]
