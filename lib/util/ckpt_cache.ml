(* Bounded LRU checkpoint store.

   Entries form a doubly-linked list threaded through a hash table; the
   list head is the most recently used entry and eviction pops the tail.
   The budget is the sum of caller-estimated entry weights. Entries never
   change once added (callers copy mutable values on the way in and out),
   so the sum stays what was charged. Keyed operations take the
   internal mutex — exploration shards and portfolio tasks hit one store
   from several domains. The byte count and its high-water mark are
   atomics, so [charge]/[release] (values held outside the table) take
   no lock. *)

type 'v node = {
  n_key : string;
  n_value : 'v;
  n_weight : int;
  mutable prev : 'v node option;
  mutable next : 'v node option;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  bytes : int;
  peak_bytes : int;
  entries : int;
}

type 'v t = {
  cap_bytes : int;
  weight : 'v -> int;
  table : (string, 'v node) Hashtbl.t;
  mutex : Mutex.t;
  mutable head : 'v node option;
  mutable tail : 'v node option;
  bytes : int Atomic.t;
  peak_bytes : int Atomic.t;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ?(cap_bytes = 64 * 1024 * 1024) ~weight () =
  if cap_bytes <= 0 then invalid_arg "Ckpt_cache.create: cap_bytes must be positive";
  {
    cap_bytes;
    weight;
    table = Hashtbl.create 256;
    mutex = Mutex.create ();
    head = None;
    tail = None;
    bytes = Atomic.make 0;
    peak_bytes = Atomic.make 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let cap_bytes t = t.cap_bytes

(* List surgery; callers hold the mutex. *)
let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let drop_tail t =
  match t.tail with
  | None -> ()
  | Some n ->
      unlink t n;
      Hashtbl.remove t.table n.n_key;
      ignore (Atomic.fetch_and_add t.bytes (-n.n_weight));
      t.evictions <- t.evictions + 1

let rec raise_peak t b =
  let p = Atomic.get t.peak_bytes in
  if b > p && not (Atomic.compare_and_set t.peak_bytes p b) then raise_peak t b

let find t key =
  Mutex.lock t.mutex;
  let r =
    match Hashtbl.find_opt t.table key with
    | Some n ->
        t.hits <- t.hits + 1;
        unlink t n;
        push_front t n;
        Some n.n_value
    | None ->
        t.misses <- t.misses + 1;
        None
  in
  Mutex.unlock t.mutex;
  r

let add t key value =
  let w = max 1 (t.weight value) in
  Mutex.lock t.mutex;
  (match Hashtbl.find_opt t.table key with
  | Some old ->
      unlink t old;
      Hashtbl.remove t.table key;
      ignore (Atomic.fetch_and_add t.bytes (-old.n_weight))
  | None -> ());
  let n = { n_key = key; n_value = value; n_weight = w; prev = None; next = None } in
  Hashtbl.replace t.table key n;
  push_front t n;
  raise_peak t (Atomic.fetch_and_add t.bytes w + w);
  while Atomic.get t.bytes > t.cap_bytes && t.tail <> None do
    drop_tail t
  done;
  Mutex.unlock t.mutex

let rec reserve t w =
  let b = Atomic.get t.bytes in
  b + w <= t.cap_bytes
  &&
  if Atomic.compare_and_set t.bytes b (b + w) then begin
    raise_peak t (b + w);
    true
  end
  else reserve t w

let charge t value =
  let w = max 1 (t.weight value) in
  if reserve t w then w else 0

let release t w = ignore (Atomic.fetch_and_add t.bytes (-w))

let tally t ~hits ~misses =
  Mutex.lock t.mutex;
  t.hits <- t.hits + hits;
  t.misses <- t.misses + misses;
  Mutex.unlock t.mutex

let stats t =
  Mutex.lock t.mutex;
  let s =
    {
      hits = t.hits;
      misses = t.misses;
      evictions = t.evictions;
      bytes = Atomic.get t.bytes;
      peak_bytes = Atomic.get t.peak_bytes;
      entries = Hashtbl.length t.table;
    }
  in
  Mutex.unlock t.mutex;
  s
