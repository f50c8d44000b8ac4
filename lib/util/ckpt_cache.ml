(* Bounded LRU checkpoint store.

   Entries form a doubly-linked list threaded through a hash table; the
   list head is the most recently used entry and eviction pops the tail.
   The budget is the sum of caller-estimated entry weights. Entries never
   change once added (callers copy mutable values on the way in and out),
   so the sum stays what was charged. All operations take the
   internal mutex — exploration shards and portfolio tasks hit one store
   from several domains. *)

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
  mutable bytes : int;
  mutable peak_bytes : int;
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
    bytes = 0;
    peak_bytes = 0;
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
      t.bytes <- t.bytes - n.n_weight;
      t.evictions <- t.evictions + 1

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
      t.bytes <- t.bytes - old.n_weight
  | None -> ());
  let n = { n_key = key; n_value = value; n_weight = w; prev = None; next = None } in
  Hashtbl.replace t.table key n;
  push_front t n;
  t.bytes <- t.bytes + w;
  if t.bytes > t.peak_bytes then t.peak_bytes <- t.bytes;
  while t.bytes > t.cap_bytes && t.tail <> None do
    drop_tail t
  done;
  Mutex.unlock t.mutex

let remove t key =
  Mutex.lock t.mutex;
  let r =
    match Hashtbl.find_opt t.table key with
    | Some n ->
        unlink t n;
        Hashtbl.remove t.table key;
        t.bytes <- t.bytes - n.n_weight;
        Some n.n_value
    | None -> None
  in
  Mutex.unlock t.mutex;
  r

let stats t =
  Mutex.lock t.mutex;
  let s =
    {
      hits = t.hits;
      misses = t.misses;
      evictions = t.evictions;
      bytes = t.bytes;
      peak_bytes = t.peak_bytes;
      entries = Hashtbl.length t.table;
    }
  in
  Mutex.unlock t.mutex;
  s
