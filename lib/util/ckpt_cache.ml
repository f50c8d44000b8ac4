(* Checkpoint byte budget. Every field is an atomic, so charges from
   several domains need no lock. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  bytes : int;
  peak_bytes : int;
}

type 'v t = {
  cap_bytes : int;
  weight : 'v -> int;
  bytes : int Atomic.t;
  peak_bytes : int Atomic.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
  evictions : int Atomic.t;
}

let create ?(cap_bytes = 64 * 1024 * 1024) ~weight () =
  if cap_bytes <= 0 then invalid_arg "Ckpt_cache.create: cap_bytes must be positive";
  {
    cap_bytes;
    weight;
    bytes = Atomic.make 0;
    peak_bytes = Atomic.make 0;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    evictions = Atomic.make 0;
  }

let rec raise_peak t b =
  let p = Atomic.get t.peak_bytes in
  if b > p && not (Atomic.compare_and_set t.peak_bytes p b) then raise_peak t b

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
  if reserve t w then w
  else begin
    Atomic.incr t.evictions;
    0
  end

let release t w = ignore (Atomic.fetch_and_add t.bytes (-w))

let tally t ~hits ~misses =
  ignore (Atomic.fetch_and_add t.hits hits);
  ignore (Atomic.fetch_and_add t.misses misses)

let stats t =
  {
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    evictions = Atomic.get t.evictions;
    bytes = Atomic.get t.bytes;
    peak_bytes = Atomic.get t.peak_bytes;
  }
