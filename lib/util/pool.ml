(* A pool of worker domains over one shared FIFO of tasks.

   One mutex guards the queue, the [live] flag and the worker list; one
   condition variable is broadcast whenever a task is queued, a task
   completes, or the pool shuts down. Workers pop from the front and
   sleep only while the queue is empty.

   Deadlock-freedom under nesting: a domain awaiting a promise never
   sleeps while the queue holds work — it pops and runs queued tasks —
   and sleeps only when every outstanding task is already executing on
   some other domain. Those executions finish by induction (their own
   nested spawns obey the same rule), and each completion broadcasts, so
   the sleep is always woken. *)

type task = unit -> unit

type monitor = {
  on_submit : queued:int -> unit;
  wrap_task : (unit -> unit) -> unit -> unit;
  on_steal : thief:int -> victim:int -> latency_s:float -> unit;
  on_deque_depth : slot:int -> depth:int -> unit;
}

type t = {
  jobs : int;
  queue : task Queue.t;
  lock : Mutex.t;
  wake : Condition.t;
  pool_monitor : monitor option Atomic.t;
  mutable live : bool;
  mutable workers : unit Domain.t list;
}

let set_monitor pool m = Atomic.set pool.pool_monitor m

let broadcast pool =
  Mutex.lock pool.lock;
  Condition.broadcast pool.wake;
  Mutex.unlock pool.lock

let enqueue pool task =
  Mutex.lock pool.lock;
  Queue.push task pool.queue;
  let queued = Queue.length pool.queue in
  Condition.broadcast pool.wake;
  Mutex.unlock pool.lock;
  match Atomic.get pool.pool_monitor with
  | None -> ()
  | Some m -> m.on_submit ~queued

let run_task pool task =
  match Atomic.get pool.pool_monitor with
  | None -> task ()
  | Some m -> m.wrap_task task ()

(* Pop the next task, waiting while the queue is empty and [wait ()]
   holds; [None] once the queue is empty and [wait ()] does not. *)
let take pool ~wait =
  Mutex.lock pool.lock;
  while Queue.is_empty pool.queue && wait () do
    Condition.wait pool.wake pool.lock
  done;
  let task = Queue.take_opt pool.queue in
  Mutex.unlock pool.lock;
  task

let rec worker_loop pool =
  match take pool ~wait:(fun () -> pool.live) with
  | Some task ->
      run_task pool task;
      worker_loop pool
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Tasks and promises.                                                 *)
(* ------------------------------------------------------------------ *)

type 'a state =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

type 'a promise = 'a state Atomic.t

let pending p = match Atomic.get p with Pending -> true | _ -> false

let spawn pool f =
  let p = Atomic.make Pending in
  enqueue pool (fun () ->
      (match f () with
      | v -> Atomic.set p (Done v)
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          Atomic.set p (Failed (e, bt)));
      (* Completion may unblock an awaiter. *)
      broadcast pool);
  p

(* Help while the promise is pending: run queued tasks, and sleep only
   when the queue is empty. [take] re-checks [pending] under the lock,
   and a completion sets its promise before it broadcasts, so the wakeup
   is never lost. *)
let rec await_result pool p =
  match Atomic.get p with
  | Done v -> Ok v
  | Failed (e, bt) -> Error (e, bt)
  | Pending ->
      (match take pool ~wait:(fun () -> pending p) with
      | Some task -> run_task pool task
      | None -> ());
      await_result pool p

let await pool p =
  match await_result pool p with
  | Ok v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

(* ------------------------------------------------------------------ *)
(* Pool lifecycle.                                                     *)
(* ------------------------------------------------------------------ *)

let jobs pool = pool.jobs

let shutdown pool =
  Mutex.lock pool.lock;
  let workers = pool.workers in
  pool.live <- false;
  pool.workers <- [];
  Condition.broadcast pool.wake;
  Mutex.unlock pool.lock;
  (* Help drain what is still queued: a one-job pool has no worker. *)
  worker_loop pool;
  List.iter Domain.join workers

let create ?monitor ~jobs () =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let pool =
    {
      jobs;
      queue = Queue.create ();
      lock = Mutex.create ();
      wake = Condition.create ();
      pool_monitor = Atomic.make monitor;
      live = true;
      workers = [];
    }
  in
  (* The runtime caps live domains (128 in OCaml 5.1). If a spawn fails
     partway, stop and join the workers already started — leaked, they
     would keep counting against the cap — before reporting. *)
  (try
     for _ = 1 to jobs - 1 do
       pool.workers <- Domain.spawn (fun () -> worker_loop pool) :: pool.workers
     done
   with Failure msg ->
     shutdown pool;
     invalid_arg
       (Printf.sprintf "Pool.create: cannot start %d domains (%s)" jobs msg));
  pool

(* ------------------------------------------------------------------ *)
(* parallel_map, on spawn/await.                                       *)
(* ------------------------------------------------------------------ *)

let parallel_map pool f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | xs when pool.jobs = 1 -> List.map f xs
  | xs ->
      let promises = List.map (fun x -> spawn pool (fun () -> f x)) xs in
      (* Settle the whole batch first (awaiting in input order; helping
         runs the rest), then re-raise the first failure in input order. *)
      let settled = List.map (await_result pool) promises in
      List.map
        (function
          | Ok v -> v
          | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
        settled

(* ------------------------------------------------------------------ *)
(* The shared process-wide pool.                                       *)
(* ------------------------------------------------------------------ *)

let parse_jobs s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> Some n
  | _ -> None

let default_override = ref None

let default_jobs () =
  match !default_override with
  | Some n -> n
  | None -> (
      match Sys.getenv_opt "COOP_JOBS" with
      | Some s -> (
          match parse_jobs s with
          | Some n -> n
          | None -> Domain.recommended_domain_count ())
      | None -> Domain.recommended_domain_count ())

let shared_pool = ref None

let shared () =
  match !shared_pool with
  | Some pool -> pool
  | None ->
      let pool = create ~jobs:(default_jobs ()) () in
      shared_pool := Some pool;
      pool

let set_default_jobs n =
  if n < 1 then invalid_arg "Pool.set_default_jobs: jobs must be >= 1";
  default_override := Some n;
  match !shared_pool with
  | Some pool when jobs pool <> n ->
      shared_pool := None;
      shutdown pool
  | _ -> ()

let map f xs = parallel_map (shared ()) f xs
