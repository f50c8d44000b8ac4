(* In-memory spans for the traced run.

   A span is one timed call into a layer's public function, recorded
   from the benchmark's own code: name, layer, start, end, and the span
   that caused it (its parent — an op span, or -1 at top level). Spans
   are kept in memory and written out once, when the run ends. With
   tracing off, [with_span] is a flag test around the call. *)

type t = {
  id : int;
  parent : int;
  name : string;
  layer : string;
  t0 : float;
  t1 : float;
}

let now = Unix.gettimeofday
let enabled = ref false
let lock = Mutex.create ()
let finished : t list ref = ref []
let next_id = Atomic.make 0

(* The innermost open span of the main domain; pool tasks running on
   other domains attach to it. *)
let current = Atomic.make (-1)

let push s = Mutex.protect lock (fun () -> finished := s :: !finished)

let with_span ~layer name f =
  if not !enabled then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = Atomic.get current in
    Atomic.set current id;
    let t0 = now () in
    let finish () =
      let t1 = now () in
      Atomic.set current parent;
      push { id; parent; name; layer; t0; t1 }
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* A span timed elsewhere (a pool task on a worker domain). *)
let record ~layer name ~t0 ~t1 =
  if !enabled then
    push
      { id = Atomic.fetch_and_add next_id 1; parent = Atomic.get current; name;
        layer; t0; t1 }

let all () = List.rev !finished

(* Self time: a span's duration minus the part of its interval that its
   children cover. Children may run concurrently on other domains, so
   their intervals are merged before they are subtracted. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent s) spans;
  let covered s =
    let ivs =
      Hashtbl.find_all children s.id
      |> List.map (fun c -> (Float.max s.t0 c.t0, Float.min s.t1 c.t1))
      |> List.filter (fun (a, b) -> b > a)
      |> List.sort compare
    in
    let total, last =
      List.fold_left
        (fun (acc, (ca, cb)) (a, b) ->
          if a > cb then (acc +. (cb -. ca), (a, b)) else (acc, (ca, Float.max cb b)))
        (0., (s.t0, s.t0)) ivs
    in
    total +. (snd last -. fst last)
  in
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = s.t1 -. s.t0 -. covered s in
      let prev = Option.value (Hashtbl.find_opt by_layer s.layer) ~default:0. in
      Hashtbl.replace by_layer s.layer (prev +. self))
    spans;
  by_layer

let write path spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"layer\":%S,\"start\":%.6f,\"end\":%.6f}\n"
        s.id s.parent s.name s.layer s.t0 s.t1)
    spans;
  close_out oc
