(* A work-stealing pool of worker domains over per-domain Chase–Lev
   deques (Spmc_deque).

   Every domain attached to a pool — the creating domain (slot 0) and
   each spawned worker (slots 1..jobs-1) — owns one deque. [spawn] from
   an attached domain pushes onto its own deque (cheap, lock-free);
   [spawn] from a foreign domain lands in a small mutex-protected
   injector queue. Idle domains look for work in a fixed order: own
   deque (LIFO pop), injector, then random-victim stealing across the
   other deques with exponential backoff between sweeps; only when a
   full backoff episode finds nothing do they sleep on a condition
   variable. Producers broadcast only when the atomic idler count is
   non-zero, and sleepers re-check for work (and for promise
   resolution) after registering under the lock, so wakeups are never
   lost.

   Deadlock-freedom under nesting keeps the old pool's rule: a domain
   awaiting a promise never blocks while there is runnable work — it
   pops, drains the injector, or steals, and only sleeps when every
   outstanding task is already executing on some other domain. Those
   executions finish by induction (their own nested spawns obey the same
   rule), and each completion broadcasts, so the sleep is always woken. *)

type task = unit -> unit

type monitor = {
  on_submit : queued:int -> unit;
  wrap_task : (unit -> unit) -> unit -> unit;
  on_steal : thief:int -> victim:int -> latency_s:float -> unit;
  on_deque_depth : slot:int -> depth:int -> unit;
}

type t = {
  jobs : int;
  deques : task Spmc_deque.t array;  (* slot 0 = creator, 1.. = workers *)
  injector : task Queue.t;           (* submissions from foreign domains *)
  inj_mutex : Mutex.t;
  inj_size : int Atomic.t;           (* mirror of [Queue.length injector] *)
  pool_monitor : monitor option Atomic.t;
  lock : Mutex.t;                    (* guards sleeping and [live] *)
  wake : Condition.t;                (* new work or a task completed *)
  idlers : int Atomic.t;             (* domains blocked on [wake] *)
  mutable live : bool;               (* written under [lock] *)
  mutable workers : unit Domain.t list;
}

(* ------------------------------------------------------------------ *)
(* Monitors: one per pool.                                             *)
(* ------------------------------------------------------------------ *)

let set_monitor pool m = Atomic.set pool.pool_monitor m

(* ------------------------------------------------------------------ *)
(* Worker identity: which deque (if any) does this domain own?         *)
(* ------------------------------------------------------------------ *)

(* Per-domain association from pool (by physical identity) to owned
   slot. A domain can own slots in several pools (the main domain is
   slot 0 of every pool it creates); entries are tiny and pools are few,
   so the list is never pruned. *)
let slots_key : (t * int) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let register_slot pool slot =
  let r = Domain.DLS.get slots_key in
  r := (pool, slot) :: !r

let my_slot pool =
  let rec find = function
    | [] -> None
    | (p, s) :: rest -> if p == pool then Some s else find rest
  in
  find !(Domain.DLS.get slots_key)

(* ------------------------------------------------------------------ *)
(* Scheduling primitives.                                              *)
(* ------------------------------------------------------------------ *)

let nop () = ()
let now () = Unix.gettimeofday ()

(* Per-call-site xorshift; seeded from the domain id so victims differ
   across domains without shared state. *)
let fresh_rng () =
  ref ((((Domain.self () :> int) + 1) * 0x9E3779B1) lor 1)

let rng_next r =
  let x = !r in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  r := x;
  x land max_int

let wake_all pool =
  if Atomic.get pool.idlers > 0 then begin
    Mutex.lock pool.lock;
    Condition.broadcast pool.wake;
    Mutex.unlock pool.lock
  end

let enqueue pool task =
  (match my_slot pool with
  | Some s ->
      let dq = pool.deques.(s) in
      Spmc_deque.push dq task;
      (match Atomic.get pool.pool_monitor with
      | None -> ()
      | Some m ->
          let depth = Spmc_deque.length dq in
          m.on_submit ~queued:depth;
          m.on_deque_depth ~slot:s ~depth)
  | None ->
      Mutex.lock pool.inj_mutex;
      Queue.push task pool.injector;
      let n = Queue.length pool.injector in
      Atomic.set pool.inj_size n;
      Mutex.unlock pool.inj_mutex;
      (match Atomic.get pool.pool_monitor with
      | None -> ()
      | Some m -> m.on_submit ~queued:n));
  wake_all pool

let try_injector pool =
  if Atomic.get pool.inj_size = 0 then None
  else begin
    Mutex.lock pool.inj_mutex;
    let r =
      if Queue.is_empty pool.injector then None
      else begin
        let t = Queue.pop pool.injector in
        Atomic.set pool.inj_size (Queue.length pool.injector);
        Some t
      end
    in
    Mutex.unlock pool.inj_mutex;
    r
  end

(* One randomized sweep over the other deques. [t0] is when this search
   episode started (0. when unmonitored): a successful steal reports
   [now - t0] as its latency — time from running out of local work to
   acquiring remote work. *)
let try_steal pool ~self rng ~t0 =
  let n = Array.length pool.deques in
  let start = rng_next rng mod n in
  let rec sweep i =
    if i >= n then None
    else begin
      let v = (start + i) mod n in
      if self = Some v then sweep (i + 1)
      else
        match Spmc_deque.steal pool.deques.(v) with
        | Some task ->
            (match Atomic.get pool.pool_monitor with
            | None -> ()
            | Some m ->
                let thief = match self with Some s -> s | None -> -1 in
                m.on_steal ~thief ~victim:v
                  ~latency_s:(if t0 > 0. then now () -. t0 else 0.);
                m.on_deque_depth ~slot:v
                  ~depth:(Spmc_deque.length pool.deques.(v)));
            Some task
        | None -> sweep (i + 1)
    end
  in
  if n <= 1 && self <> None then None else sweep 0

let find_task pool ~self rng ~t0 =
  let own =
    match self with
    | Some s -> Spmc_deque.pop pool.deques.(s)
    | None -> None
  in
  match own with
  | Some _ as t -> t
  | None -> (
      match try_injector pool with
      | Some _ as t -> t
      | None -> try_steal pool ~self rng ~t0)

let run_task pool task =
  match Atomic.get pool.pool_monitor with
  | None -> task ()
  | Some m -> m.wrap_task task ()

let work_available pool =
  Atomic.get pool.inj_size > 0
  || Array.exists (fun d -> Spmc_deque.length d > 0) pool.deques

let relax n =
  for _ = 1 to n do
    Domain.cpu_relax ()
  done

let max_backoff = 6

(* ------------------------------------------------------------------ *)
(* Workers.                                                            *)
(* ------------------------------------------------------------------ *)

let monitored_now pool =
  match Atomic.get pool.pool_monitor with None -> 0. | Some _ -> now ()

let rec worker_loop pool slot rng =
  let t0 = monitored_now pool in
  let rec search backoff =
    match find_task pool ~self:(Some slot) rng ~t0 with
    | Some task ->
        run_task pool task;
        worker_loop pool slot rng
    | None ->
        if backoff <= max_backoff then begin
          relax (1 lsl backoff);
          search (backoff + 1)
        end
        else begin
          (* Backoff exhausted: sleep, or exit if the pool is done. *)
          Mutex.lock pool.lock;
          Atomic.incr pool.idlers;
          let quit =
            if work_available pool then false
            else if not pool.live then true
            else begin
              Condition.wait pool.wake pool.lock;
              false
            end
          in
          Atomic.decr pool.idlers;
          Mutex.unlock pool.lock;
          if not quit then worker_loop pool slot rng
        end
  in
  search 0

(* ------------------------------------------------------------------ *)
(* Tasks and promises.                                                 *)
(* ------------------------------------------------------------------ *)

type 'a state =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

type 'a promise = 'a state Atomic.t

let spawn pool f =
  let p = Atomic.make Pending in
  enqueue pool (fun () ->
      (match f () with
      | v -> Atomic.set p (Done v)
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          Atomic.set p (Failed (e, bt)));
      (* Completion may unblock an awaiter. *)
      wake_all pool);
  p

let await_result pool p =
  let self = my_slot pool in
  let rng = fresh_rng () in
  let rec loop () =
    match Atomic.get p with
    | Done v -> Ok v
    | Failed (e, bt) -> Error (e, bt)
    | Pending -> (
        let t0 = monitored_now pool in
        match find_task pool ~self rng ~t0 with
        | Some task ->
            run_task pool task;
            loop ()
        | None ->
            (* Nothing runnable: our promise's task (or something it
               transitively awaits) is executing elsewhere. Sleep until a
               completion or a fresh spawn broadcasts. *)
            Mutex.lock pool.lock;
            Atomic.incr pool.idlers;
            (match Atomic.get p with
            | Pending when not (work_available pool) ->
                Condition.wait pool.wake pool.lock
            | _ -> ());
            Atomic.decr pool.idlers;
            Mutex.unlock pool.lock;
            loop ())
  in
  loop ()

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
  List.iter Domain.join workers

let create ?monitor ~jobs () =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let pool =
    {
      jobs;
      deques =
        Array.init jobs (fun _ -> Spmc_deque.create ~dummy:nop ());
      injector = Queue.create ();
      inj_mutex = Mutex.create ();
      inj_size = Atomic.make 0;
      pool_monitor = Atomic.make monitor;
      lock = Mutex.create ();
      wake = Condition.create ();
      idlers = Atomic.make 0;
      live = true;
      workers = [];
    }
  in
  register_slot pool 0;
  (* The runtime caps live domains (128 in OCaml 5.1). If a spawn fails
     partway, stop and join the workers already started — leaked, they
     would keep counting against the cap — before reporting. *)
  (try
     for slot = 1 to jobs - 1 do
       let d =
         Domain.spawn (fun () ->
             register_slot pool slot;
             worker_loop pool slot (fresh_rng ()))
       in
       pool.workers <- d :: pool.workers
     done
   with Failure msg ->
     shutdown pool;
     invalid_arg
       (Printf.sprintf "Pool.create: cannot start %d domains (%s)" jobs msg));
  pool

(* ------------------------------------------------------------------ *)
(* parallel_map, reimplemented on spawn/await.                         *)
(* ------------------------------------------------------------------ *)

let parallel_map pool f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | xs when pool.jobs = 1 && pool.workers = [] -> List.map f xs
  | xs ->
      let promises = List.map (fun x -> spawn pool (fun () -> f x)) xs in
      (* Settle the whole batch first (awaiting in input order; helping
         runs the rest), then re-raise the first failure in input order
         — a deterministic strengthening of the old completion-order
         contract. *)
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
