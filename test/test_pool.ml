(* Unit tests for the shared-queue domain pool (Coop_util.Pool): order
   preservation at several pool sizes, exception propagation through both
   parallel_map and spawn/await, nested submission on one pool (the
   helping invariant), the first failure in input order, skewed
   fork-join spawn trees, shutdown draining never-awaited tasks,
   submission from a domain that did not create the pool, per-pool
   monitors and the monitor contract, jobs-argument parsing, a
   queue-contention stress run, and cleanup after a pool too large for the runtime's
   domain cap. *)

open Coop_util

let with_pool jobs f =
  let p = Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

let test_order_preserved () =
  List.iter
    (fun jobs ->
      with_pool jobs (fun p ->
          let xs = List.init 97 Fun.id in
          Alcotest.(check (list int))
            (Printf.sprintf "squares in order, jobs=%d" jobs)
            (List.map (fun x -> x * x) xs)
            (Pool.parallel_map p (fun x -> x * x) xs)))
    [ 1; 2; 4 ]

let test_empty_and_singleton () =
  with_pool 3 (fun p ->
      Alcotest.(check (list int)) "empty" []
        (Pool.parallel_map p (fun x -> x) []);
      Alcotest.(check (list int)) "singleton" [ 14 ]
        (Pool.parallel_map p (fun x -> x * 2) [ 7 ]))

exception Boom of int

let test_exception_reraised () =
  List.iter
    (fun jobs ->
      with_pool jobs (fun p ->
          match
            Pool.parallel_map p
              (fun x -> if x mod 7 = 5 then raise (Boom x) else x)
              (List.init 30 Fun.id)
          with
          | _ -> Alcotest.fail "expected Boom to propagate"
          | exception Boom x ->
              Alcotest.(check bool)
                (Printf.sprintf "a failing index escaped, jobs=%d" jobs)
                true (x mod 7 = 5)))
    [ 1; 2; 4 ]

(* The first failure in input order wins, not the first to finish: the
   earliest failing index fails last. With worker domains every
   application of the batch has run by the time the exception escapes;
   a one-job pool is [List.map] and stops at the first failure. *)
let test_first_failure_in_input_order () =
  List.iter
    (fun jobs ->
      with_pool jobs (fun p ->
          let applied = Atomic.make 0 in
          let f x =
            Atomic.incr applied;
            if x = 5 then begin
              Unix.sleepf 0.01;
              raise (Boom x)
            end
            else if x mod 7 = 5 then raise (Boom x)
            else x
          in
          (match Pool.parallel_map p f (List.init 30 Fun.id) with
          | _ -> Alcotest.fail "expected Boom to propagate"
          | exception Boom x ->
              Alcotest.(check int)
                (Printf.sprintf "first failing index in input order, jobs=%d"
                   jobs)
                5 x);
          Alcotest.(check int)
            (Printf.sprintf "applications run before the raise, jobs=%d" jobs)
            (if jobs = 1 then 6 else 30)
            (Atomic.get applied)))
    [ 1; 2; 4 ]

(* The pool survives a batch that failed: subsequent batches still work. *)
let test_usable_after_failure () =
  with_pool 4 (fun p ->
      (try ignore (Pool.parallel_map p (fun _ -> raise Exit) [ 1; 2; 3 ])
       with Exit -> ());
      Alcotest.(check (list int)) "next batch ok" [ 2; 4; 6 ]
        (Pool.parallel_map p (fun x -> 2 * x) [ 1; 2; 3 ]))

(* Nested parallel_map on the SAME pool: the submitter must help drain the
   queue instead of deadlocking while its inner batch waits. *)
let test_nested_same_pool () =
  List.iter
    (fun jobs ->
      with_pool jobs (fun p ->
          let table =
            Pool.parallel_map p
              (fun i ->
                Pool.parallel_map p (fun j -> (10 * i) + j) (List.init 6 Fun.id))
              (List.init 6 Fun.id)
          in
          Alcotest.(check (list (list int)))
            (Printf.sprintf "6x6 nested table, jobs=%d" jobs)
            (List.init 6 (fun i -> List.init 6 (fun j -> (10 * i) + j)))
            table))
    [ 1; 2; 4 ]

let test_stress () =
  with_pool 4 (fun p ->
      let n = 2000 in
      let expected = List.init n (fun i -> (i * i) + 1) in
      Alcotest.(check int) "stress batch sums match"
        (List.fold_left ( + ) 0 expected)
        (List.fold_left ( + ) 0
           (Pool.parallel_map p (fun i -> (i * i) + 1) (List.init n Fun.id))))

(* Recursive fork-join over a deliberately skewed tree: tasks spawn
   subtasks from inside tasks at every level and await them, so any
   domain can end up waiting on work another domain took. No deadlock
   and the right total at every pool size is the helping invariant. *)
let test_skewed_spawn_tree () =
  List.iter
    (fun jobs ->
      with_pool jobs (fun p ->
          let rec sum lo hi =
            if hi - lo <= 1 then lo
            else begin
              (* Uneven split: the left subtree stays small while the
                 right one carries most of the range. *)
              let mid = lo + 1 + ((hi - lo) / 4) in
              let right = Pool.spawn p (fun () -> sum mid hi) in
              let left = sum lo mid in
              left + Pool.await p right
            end
          in
          let n = 600 in
          Alcotest.(check int)
            (Printf.sprintf "skewed spawn tree sums, jobs=%d" jobs)
            (n * (n - 1) / 2)
            (sum 0 n)))
    [ 1; 2; 4; 8 ]

(* Exceptions from spawned tasks surface at the matching await, with the
   pool still usable afterwards. *)
let test_spawn_await_exception () =
  with_pool 2 (fun p ->
      let bad = Pool.spawn p (fun () -> raise (Boom 42)) in
      let good = Pool.spawn p (fun () -> 7) in
      (match Pool.await p bad with
      | _ -> Alcotest.fail "expected Boom from await"
      | exception Boom n -> Alcotest.(check int) "payload intact" 42 n);
      Alcotest.(check int) "later promise unaffected" 7 (Pool.await p good))

(* [shutdown] runs every task spawned and never awaited before it
   returns, a one-job pool (no worker domains) included; tasks those
   tasks spawn run too. *)
let test_shutdown_drains () =
  List.iter
    (fun jobs ->
      let ran = Atomic.make 0 in
      let p = Pool.create ~jobs () in
      for _ = 1 to 20 do
        ignore
          (Pool.spawn p (fun () ->
               Unix.sleepf 0.0005;
               ignore (Pool.spawn p (fun () -> Atomic.incr ran));
               Atomic.incr ran))
      done;
      Pool.shutdown p;
      Alcotest.(check int)
        (Printf.sprintf "every task ran by shutdown, jobs=%d" jobs)
        40 (Atomic.get ran);
      Pool.shutdown p)
    [ 1; 2; 4 ]

(* A domain that did not create the pool submits to it and awaits: its
   parallel_map keeps input order and its spawn/await round trip, and
   the creating domain keeps using the pool meanwhile. *)
let test_foreign_domain () =
  List.iter
    (fun jobs ->
      with_pool jobs (fun p ->
          let foreign =
            Domain.spawn (fun () ->
                let squares =
                  Pool.parallel_map p (fun x -> x * x) (List.init 40 Fun.id)
                in
                let pr = Pool.spawn p (fun () -> List.fold_left ( + ) 0 squares) in
                (squares, Pool.await p pr))
          in
          let local = Pool.parallel_map p succ (List.init 40 Fun.id) in
          let squares, sum = Domain.join foreign in
          Alcotest.(check (list int))
            (Printf.sprintf "foreign parallel_map in order, jobs=%d" jobs)
            (List.init 40 (fun x -> x * x))
            squares;
          Alcotest.(check int)
            (Printf.sprintf "foreign spawn/await, jobs=%d" jobs)
            (List.fold_left ( + ) 0 (List.init 40 (fun x -> x * x)))
            sum;
          Alcotest.(check (list int))
            (Printf.sprintf "creator's batch meanwhile, jobs=%d" jobs)
            (List.init 40 succ) local))
    [ 1; 2; 4 ]

(* A monitor attached to one pool sees that pool's traffic and nothing
   from other pools; detaching it stops the reports. *)
let test_per_pool_monitor () =
  let submits = Atomic.make 0 and wrapped = Atomic.make 0 in
  let monitor =
    {
      Pool.on_submit = (fun ~queued:_ -> Atomic.incr submits);
      wrap_task =
        (fun f () ->
          Atomic.incr wrapped;
          f ());
      on_steal = (fun ~thief:_ ~victim:_ ~latency_s:_ -> ());
      on_deque_depth = (fun ~slot:_ ~depth:_ -> ());
    }
  in
  let p = Pool.create ~monitor ~jobs:2 () in
  let other = Pool.create ~jobs:2 () in
  Fun.protect
    ~finally:(fun () ->
      Pool.shutdown p;
      Pool.shutdown other)
    (fun () ->
      ignore (Pool.parallel_map p (fun x -> x + 1) (List.init 50 Fun.id));
      let seen = Atomic.get submits in
      Alcotest.(check bool) "monitored pool reports submissions" true
        (seen >= 50);
      Alcotest.(check bool) "wrap_task ran around the tasks" true
        (Atomic.get wrapped >= 50);
      ignore (Pool.parallel_map other (fun x -> x + 1) (List.init 50 Fun.id));
      Alcotest.(check int) "unmonitored pool stays silent" seen
        (Atomic.get submits);
      Pool.set_monitor other (Some monitor);
      ignore (Pool.parallel_map other (fun x -> x + 1) (List.init 10 Fun.id));
      Alcotest.(check bool) "set_monitor attaches after create" true
        (Atomic.get submits >= seen + 10);
      Pool.set_monitor other None;
      let seen = Atomic.get submits in
      ignore (Pool.parallel_map other (fun x -> x + 1) (List.init 10 Fun.id));
      Alcotest.(check int) "set_monitor None detaches" seen
        (Atomic.get submits))

(* The monitor contract: [on_submit] once per spawn with the queue's
   length just after the push, [wrap_task] once per task, and never
   [on_steal] or [on_deque_depth]. A one-job pool runs nothing until
   awaited, so its lengths are exactly 1..n. *)
let test_monitor_contract () =
  List.iter
    (fun jobs ->
      let n = 24 in
      let lengths = ref [] and lengths_lock = Mutex.create () in
      let wrapped = Atomic.make 0 and unused_hooks = Atomic.make 0 in
      let monitor =
        {
          Pool.on_submit =
            (fun ~queued ->
              Mutex.lock lengths_lock;
              lengths := queued :: !lengths;
              Mutex.unlock lengths_lock);
          wrap_task =
            (fun f () ->
              Atomic.incr wrapped;
              f ());
          on_steal =
            (fun ~thief:_ ~victim:_ ~latency_s:_ -> Atomic.incr unused_hooks);
          on_deque_depth = (fun ~slot:_ ~depth:_ -> Atomic.incr unused_hooks);
        }
      in
      let p = Pool.create ~monitor ~jobs () in
      Fun.protect
        ~finally:(fun () -> Pool.shutdown p)
        (fun () ->
          let promises = List.init n (fun i -> Pool.spawn p (fun () -> i)) in
          let results = List.map (Pool.await p) promises in
          Alcotest.(check (list int))
            (Printf.sprintf "results, jobs=%d" jobs)
            (List.init n Fun.id) results;
          let lengths = List.rev !lengths in
          Alcotest.(check int)
            (Printf.sprintf "one on_submit per spawn, jobs=%d" jobs)
            n (List.length lengths);
          if jobs = 1 then
            Alcotest.(check (list int))
              "queue lengths 1..n on a one-job pool"
              (List.init n succ) lengths
          else
            Alcotest.(check bool)
              (Printf.sprintf "queue lengths within 1..n, jobs=%d" jobs)
              true
              (List.for_all (fun q -> q >= 1 && q <= n) lengths);
          Alcotest.(check int)
            (Printf.sprintf "one wrap_task per task, jobs=%d" jobs)
            n (Atomic.get wrapped);
          Alcotest.(check int)
            (Printf.sprintf "steal and deque hooks never called, jobs=%d" jobs)
            0 (Atomic.get unused_hooks)))
    [ 1; 2; 4 ]

let test_parse_jobs () =
  List.iter
    (fun (s, expect) ->
      Alcotest.(check (option int))
        (Printf.sprintf "parse_jobs %S" s)
        expect (Pool.parse_jobs s))
    [ ("1", Some 1); ("8", Some 8); (" 4 ", Some 4); ("0", None);
      ("-3", None); ("abc", None); ("", None); ("2x", None) ]

let test_default_jobs_override () =
  Pool.set_default_jobs 3;
  Alcotest.(check int) "override wins" 3 (Pool.default_jobs ());
  Alcotest.(check int) "shared pool resized" 3 (Pool.jobs (Pool.shared ()));
  Pool.set_default_jobs 1;
  Alcotest.(check int) "shrinks back" 1 (Pool.jobs (Pool.shared ()))

(* OCaml caps live domains, so a pool this large cannot start. The
   failure must be a documented [Invalid_argument], and the workers
   spawned before it must be joined: leaked, they would hold domain
   slots and make the next, modest pool fail too. *)
let test_oversized_pool_releases_domains () =
  (match Pool.create ~jobs:10_000 () with
  | p ->
      Pool.shutdown p;
      Alcotest.fail "a 10_000-domain pool started"
  | exception Invalid_argument _ -> ());
  with_pool 4 (fun p ->
      Alcotest.(check (list int)) "a 4-job pool starts afterwards" [ 2; 4; 6 ]
        (Pool.parallel_map p (fun x -> 2 * x) [ 1; 2; 3 ]))

let suite =
  [
    Alcotest.test_case "parallel_map preserves order" `Quick
      test_order_preserved;
    Alcotest.test_case "empty and singleton inputs" `Quick
      test_empty_and_singleton;
    Alcotest.test_case "worker exceptions re-raised" `Quick
      test_exception_reraised;
    Alcotest.test_case "first failure in input order after the batch settles"
      `Quick test_first_failure_in_input_order;
    Alcotest.test_case "pool usable after a failed batch" `Quick
      test_usable_after_failure;
    Alcotest.test_case "nested batches on one pool" `Quick
      test_nested_same_pool;
    Alcotest.test_case "2000-task stress" `Quick test_stress;
    Alcotest.test_case "skewed spawn tree at 1/2/4/8 domains" `Quick
      test_skewed_spawn_tree;
    Alcotest.test_case "spawned task exceptions surface at await" `Quick
      test_spawn_await_exception;
    Alcotest.test_case "shutdown runs never-awaited tasks at 1/2/4 domains"
      `Quick test_shutdown_drains;
    Alcotest.test_case "a foreign domain submits and awaits at 1/2/4 domains"
      `Quick test_foreign_domain;
    Alcotest.test_case "per-pool monitors" `Quick test_per_pool_monitor;
    Alcotest.test_case "monitor contract at 1/2/4 domains" `Quick
      test_monitor_contract;
    Alcotest.test_case "parse_jobs accepts exactly positive ints" `Quick
      test_parse_jobs;
    Alcotest.test_case "set_default_jobs resizes the shared pool" `Quick
      test_default_jobs_override;
    Alcotest.test_case "oversized pool fails cleanly" `Quick
      test_oversized_pool_releases_domains;
  ]
