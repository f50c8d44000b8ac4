(* QCheck generators, the Atomizer entry points and the one way a
   property becomes an alcotest case, shared by the property-based
   suites. *)

open QCheck2
open Coop_trace
open Coop_lang

(* ------------------------------------------------------------------ *)
(* Seeding.                                                            *)
(* ------------------------------------------------------------------ *)

(* Every property draws its inputs from a fresh generator state seeded
   with [QCHECK_SEED] when that is set, and with one fixed constant
   otherwise, so a plain test run checks the same inputs every time and
   a failure reproduces by exporting the printed seed. *)
let seed =
  lazy
    (let s =
       match Sys.getenv_opt "QCHECK_SEED" with
       | None -> 20110212
       | Some v -> (
           match int_of_string_opt v with
           | Some n -> n
           | None ->
               failwith (Printf.sprintf "QCHECK_SEED=%S: want an integer" v))
     in
     Printf.printf "qcheck seed: %d\n%!" s;
     s)

let to_alcotest ?speed_level test =
  QCheck_alcotest.to_alcotest ?speed_level
    ~rand:(Random.State.make [| Lazy.force seed |])
    test

(* ------------------------------------------------------------------ *)
(* CoopLang AST generators (for the pretty/parse round trip).          *)
(* ------------------------------------------------------------------ *)

let keywords =
  [ "var"; "array"; "lock"; "fn"; "if"; "else"; "while"; "sync"; "atomic";
    "yield"; "acquire"; "release"; "spawn"; "join"; "print"; "assert";
    "return"; "true"; "false" ]

let gen_ident =
  let open Gen in
  let* first = oneofl [ "x"; "y"; "z"; "foo"; "bar"; "n"; "acc"; "tmp" ] in
  let* suffix = int_bound 99 in
  let name = Printf.sprintf "%s%d" first suffix in
  return (if List.mem name keywords then name ^ "_" else name)

let gen_binop =
  Gen.oneofl
    [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Div; Ast.Mod; Ast.Lt; Ast.Le; Ast.Gt;
      Ast.Ge; Ast.Eq; Ast.Ne; Ast.And; Ast.Or ]

let gen_unop = Gen.oneofl [ Ast.Neg; Ast.Not ]

let rec gen_expr n =
  let open Gen in
  if n <= 0 then
    oneof
      [ map (fun i -> Ast.Int i) (int_bound 1000);
        map (fun b -> Ast.Bool b) bool;
        map (fun x -> Ast.Var x) gen_ident ]
  else
    oneof
      [ map (fun i -> Ast.Int i) (int_bound 1000);
        map (fun x -> Ast.Var x) gen_ident;
        (let* a = gen_ident in
         let* i = gen_expr (n / 2) in
         return (Ast.Index (a, i)));
        (let* op = gen_unop in
         let* e = gen_expr (n - 1) in
         return (Ast.Unary (op, e)));
        (let* op = gen_binop in
         let* a = gen_expr (n / 2) in
         let* b = gen_expr (n / 2) in
         return (Ast.Binary (op, a, b)));
        (let* f = gen_ident in
         let* args = list_size (int_bound 3) (gen_expr (n / 3)) in
         return (Ast.Call (f, args)));
        (let* f = gen_ident in
         let* args = list_size (int_bound 2) (gen_expr (n / 3)) in
         return (Ast.Spawn (f, args))) ]

let gen_lock_ref n =
  let open Gen in
  let* lock = gen_ident in
  let* index = opt (gen_expr n) in
  return { Ast.lock; index }

let rec gen_stmt n =
  let open Gen in
  let leaf =
    oneof
      [ (let* x = gen_ident in
         let* e = gen_expr 2 in
         return (Ast.stmt (Ast.Local (x, e))));
        (let* x = gen_ident in
         let* e = gen_expr 2 in
         return (Ast.stmt (Ast.Assign (x, e))));
        (let* a = gen_ident in
         let* i = gen_expr 1 in
         let* e = gen_expr 2 in
         return (Ast.stmt (Ast.Store (a, i, e))));
        return (Ast.stmt Ast.Yield);
        (let* l = gen_lock_ref 1 in
         return (Ast.stmt (Ast.Acquire_stmt l)));
        (let* l = gen_lock_ref 1 in
         return (Ast.stmt (Ast.Release_stmt l)));
        (let* e = gen_expr 2 in
         return (Ast.stmt (Ast.Join_stmt e)));
        (let* e = gen_expr 2 in
         return (Ast.stmt (Ast.Print e)));
        (let* e = gen_expr 2 in
         return (Ast.stmt (Ast.Assert e)));
        (let* eo = opt (gen_expr 2) in
         return (Ast.stmt (Ast.Return eo)));
        (let* f = gen_ident in
         let* args = list_size (int_bound 2) (gen_expr 1) in
         return (Ast.stmt (Ast.Expr_stmt (Ast.Call (f, args))))) ]
  in
  if n <= 0 then leaf
  else
    oneof
      [ leaf;
        (let* c = gen_expr 2 in
         let* t = gen_block (n - 1) in
         let* e = gen_block (n - 1) in
         return (Ast.stmt (Ast.If (c, t, e))));
        (let* c = gen_expr 2 in
         let* b = gen_block (n - 1) in
         return (Ast.stmt (Ast.While (c, b))));
        (let* l = gen_lock_ref 1 in
         let* b = gen_block (n - 1) in
         return (Ast.stmt (Ast.Sync (l, b))));
        (let* b = gen_block (n - 1) in
         return (Ast.stmt (Ast.Atomic b))) ]

and gen_block n = Gen.list_size (Gen.int_bound 4) (gen_stmt n)

let gen_func =
  let open Gen in
  let* fname = gen_ident in
  let* params = list_size (int_bound 3) gen_ident in
  let* body = gen_block 2 in
  return { Ast.fname; params; body; fline = 0 }

let gen_decl =
  let open Gen in
  oneof
    [ (let* x = gen_ident in
       let* i = int_bound 100 in
       return (Ast.Gvar (x, i)));
      (let* a = gen_ident in
       let* n = int_range 1 64 in
       return (Ast.Garray (a, n)));
      (let* l = gen_ident in
       let* n = int_range 1 8 in
       return (Ast.Glock (l, n))) ]

let gen_program =
  let open Gen in
  let* decls = list_size (int_bound 5) gen_decl in
  let* funcs = list_size (int_bound 4) gen_func in
  return { Ast.decls; funcs }

(* ------------------------------------------------------------------ *)
(* Feasible trace generator (for FastTrack vs naive-HB agreement).     *)
(* ------------------------------------------------------------------ *)

(* Simulates a plausible multithreaded execution: locks are acquired only
   when free, released only by their holder, forks create fresh tids, joins
   target terminated threads. Accesses range over a small variable pool to
   make conflicts likely. *)
let gen_trace =
  let open Gen in
  let* n_events = int_range 5 120 in
  let* seed = int_bound 1_000_000 in
  return
    (let rng = Coop_util.Rng.create seed in
     let trace = Trace.create () in
     let alive = ref [ 0 ] in
     let finished = ref [] in
     let next_tid = ref 1 in
     let held = Hashtbl.create 8 in
     (* lock -> tid *)
     let vars = [| Event.Global 0; Event.Global 1; Event.Cell (0, 0);
                   Event.Cell (0, 1) |] in
     let locks = [| 0; 1; 2 |] in
     let loc = Loc.make ~func:0 ~pc:0 ~line:1 in
     let emit tid op = Trace.add trace (Event.make ~tid ~op ~loc) in
     for _ = 1 to n_events do
       match !alive with
       | [] -> ()
       | ts -> (
           let tid = Coop_util.Rng.pick rng (Array.of_list ts) in
           match Coop_util.Rng.int rng 10 with
           | 0 | 1 | 2 ->
               emit tid (Event.Read (Coop_util.Rng.pick rng vars))
           | 3 | 4 | 5 ->
               emit tid (Event.Write (Coop_util.Rng.pick rng vars))
           | 6 ->
               let l = Coop_util.Rng.pick rng locks in
               if not (Hashtbl.mem held l) then begin
                 Hashtbl.add held l tid;
                 emit tid (Event.Acquire l)
               end
           | 7 ->
               let mine =
                 Hashtbl.fold (fun l o acc -> if o = tid then l :: acc else acc)
                   held []
               in
               (match mine with
               | [] -> ()
               | l :: _ ->
                   Hashtbl.remove held l;
                   emit tid (Event.Release l))
           | 8 ->
               if !next_tid < 6 then begin
                 let child = !next_tid in
                 incr next_tid;
                 alive := child :: !alive;
                 emit tid (Event.Fork child)
               end
           | _ -> (
               match !finished with
               | [] ->
                   (* Retire a thread other than this one, if possible. *)
                   let others = List.filter (fun t -> t <> tid) !alive in
                   (match others with
                   | [] -> ()
                   | t :: _ ->
                       alive := List.filter (fun u -> u <> t) !alive;
                       (* Release its locks first so the trace stays
                          feasible (a dead thread cannot hold a lock another
                          thread later acquires). *)
                       Hashtbl.iter
                         (fun l o ->
                           if o = t then begin
                             Hashtbl.remove held l;
                             emit t (Event.Release l)
                           end)
                         (Hashtbl.copy held);
                       finished := t :: !finished)
               | f :: rest ->
                   finished := rest;
                   emit tid (Event.Join f)))
     done;
     trace)

let print_trace t = Format.asprintf "%a" Trace.pp t

(* ------------------------------------------------------------------ *)
(* Late-knowledge trace generator (single-pass vs two-pass agreement). *)
(* ------------------------------------------------------------------ *)

(* Adversarial input for the single-pass engine: a long single-threaded
   prefix opens, runs and closes many transactions (function activations,
   atomic blocks, yield-delimited segments) while every variable still
   looks race-free and every lock thread-local — then a second wave of
   threads touches the same variables and locks, so the racy/shared facts
   arrive after the transactions that depended on them were classified
   (and often closed). Feasibility rules are those of [gen_trace]. *)
let gen_late_trace =
  let open Gen in
  let* n_pre = int_range 15 70 in
  let* n_post = int_range 15 70 in
  let* seed = int_bound 1_000_000 in
  return
    (let rng = Coop_util.Rng.create seed in
     let trace = Trace.create () in
     let held = Hashtbl.create 8 in
     (* lock -> tid *)
     let depth = Hashtbl.create 8 in
     (* tid -> open Enter/Atomic markers, innermost first *)
     let vars = [| Event.Global 0; Event.Global 1; Event.Cell (0, 0);
                   Event.Cell (0, 1) |] in
     let locks = [| 0; 1; 2 |] in
     let loc () =
       Loc.make ~func:0 ~pc:(Coop_util.Rng.int rng 40) ~line:1
     in
     let emit tid op = Trace.add trace (Event.make ~tid ~op ~loc:(loc ())) in
     let emit_one tid =
       match Coop_util.Rng.int rng 12 with
       | 0 | 1 -> emit tid (Event.Read (Coop_util.Rng.pick rng vars))
       | 2 | 3 -> emit tid (Event.Write (Coop_util.Rng.pick rng vars))
       | 4 ->
           let l = Coop_util.Rng.pick rng locks in
           if not (Hashtbl.mem held l) then begin
             Hashtbl.add held l tid;
             emit tid (Event.Acquire l)
           end
       | 5 -> (
           let mine =
             Hashtbl.fold
               (fun l o acc -> if o = tid then l :: acc else acc)
               held []
           in
           match mine with
           | [] -> ()
           | l :: _ ->
               Hashtbl.remove held l;
               emit tid (Event.Release l))
       | 6 -> emit tid Event.Yield
       | 7 | 8 ->
           let opens =
             match Hashtbl.find_opt depth tid with Some d -> d | None -> []
           in
           if Coop_util.Rng.int rng 3 > 0 || opens = [] then begin
             let f = Coop_util.Rng.int rng 3 in
             if Coop_util.Rng.int rng 2 = 0 then begin
               Hashtbl.replace depth tid (`Func f :: opens);
               emit tid (Event.Enter f)
             end
             else begin
               Hashtbl.replace depth tid (`Atomic :: opens);
               emit tid Event.Atomic_begin
             end
           end
       | _ -> (
           match Hashtbl.find_opt depth tid with
           | Some (`Func f :: rest) ->
               Hashtbl.replace depth tid rest;
               emit tid (Event.Exit f)
           | Some (`Atomic :: rest) ->
               Hashtbl.replace depth tid rest;
               emit tid Event.Atomic_end
           | _ -> ())
     in
     (* Single-threaded prefix: everything optimism assumes holds. *)
     for _ = 1 to n_pre do
       emit_one 0
     done;
     (* Fork a second wave mid-stream; their accesses to the same pool
        expose races and share the locks only now. *)
     let children =
       List.init (1 + Coop_util.Rng.int rng 2) (fun i -> i + 1)
     in
     List.iter (fun c -> emit 0 (Event.Fork c)) children;
     let tids = Array.of_list (0 :: children) in
     for _ = 1 to n_post do
       emit_one (Coop_util.Rng.pick rng tids)
     done;
     (* Retire the children feasibly: release their locks, then join. *)
     List.iter
       (fun c ->
         Hashtbl.iter
           (fun l o ->
             if o = c then begin
               Hashtbl.remove held l;
               emit c (Event.Release l)
             end)
           (Hashtbl.copy held);
         emit 0 (Event.Join c))
       children;
     trace)

(* ------------------------------------------------------------------ *)
(* Lock-heavy trace generator (single-pass vs two-pass agreement).     *)
(* ------------------------------------------------------------------ *)

(* Every lock is acquired and released by every thread, over and over, so
   nearly every event is a synchronization edge and every lock becomes
   shared — each such fact may reclassify transactions the single-pass
   engine already committed. Accesses under the locks keep the detectors
   busy; occasional unprotected writes make variables racy; yields,
   function activations and atomic blocks exercise the automaton. All
   lock operations are well-paired per thread, so the trace stays
   feasible. *)
let gen_lock_heavy_trace =
  let open Gen in
  let* rounds = int_range 5 25 in
  let* seed = int_bound 1_000_000 in
  return
    (let rng = Coop_util.Rng.create seed in
     let trace = Trace.create () in
     let loc () = Loc.make ~func:0 ~pc:(Coop_util.Rng.int rng 40) ~line:1 in
     let emit tid op = Trace.add trace (Event.make ~tid ~op ~loc:(loc ())) in
     let n_threads = 4 in
     let locks = [| 0; 1; 2 |] in
     let vars = [| Event.Global 0; Event.Global 1; Event.Cell (0, 0) |] in
     for t = 1 to n_threads - 1 do
       emit 0 (Event.Fork t)
     done;
     let tids = Array.init n_threads Fun.id in
     for _ = 1 to rounds do
       (* Each round every thread walks the whole lock array, in a
          freshly shuffled thread order. *)
       let order = Array.copy tids in
       for i = n_threads - 1 downto 1 do
         let j = Coop_util.Rng.int rng (i + 1) in
         let tmp = order.(i) in
         order.(i) <- order.(j);
         order.(j) <- tmp
       done;
       Array.iter
         (fun t ->
           let entered = Coop_util.Rng.int rng 3 = 0 in
           if entered then emit t (Event.Enter (t mod 2));
           let atomic = Coop_util.Rng.int rng 4 = 0 in
           if atomic then emit t Event.Atomic_begin;
           Array.iter
             (fun l ->
               emit t (Event.Acquire l);
               if Coop_util.Rng.int rng 2 = 0 then
                 emit t (Event.Write (Coop_util.Rng.pick rng vars))
               else emit t (Event.Read (Coop_util.Rng.pick rng vars));
               emit t (Event.Release l))
             locks;
           if atomic then emit t Event.Atomic_end;
           (* Unprotected access: races, hence late racy facts. *)
           if Coop_util.Rng.int rng 3 = 0 then
             emit t (Event.Write (Coop_util.Rng.pick rng vars));
           if entered then emit t (Event.Exit (t mod 2));
           if Coop_util.Rng.int rng 2 = 0 then emit t Event.Yield)
         order
     done;
     for t = 1 to n_threads - 1 do
       emit 0 (Event.Join t)
     done;
     trace)

(* ------------------------------------------------------------------ *)
(* Well-formed concurrent program generator (whole-stack properties).  *)
(* ------------------------------------------------------------------ *)

(* Random spawn/join worker programs over shared globals, an array and two
   lock groups. All loops are bounded and all array indices masked, so every
   generated program terminates fault-free under every scheduler — the
   invariant the fuzz and pipeline-equivalence suites rely on.

   Expressions range over globals g0..g2, locals in scope and small
   constants. Division is excluded; indices are masked with
   ((e % 4) + 4) % 4 so they are always in range. *)
let gen_fuzz_expr locals =
  let open Gen in
  let leaf =
    oneof
      [ map (fun i -> Ast.Int i) (int_bound 9);
        oneofl (List.map (fun v -> Ast.Var v) ("g0" :: "g1" :: "g2" :: locals)) ]
  in
  let rec expr n =
    if n = 0 then leaf
    else
      oneof
        [ leaf;
          (let* op = oneofl [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Lt; Ast.Eq ] in
           let* a = expr (n - 1) in
           let* b = expr (n - 1) in
           return (Ast.Binary (op, a, b))) ]
  in
  expr 2

let mask_index e =
  Ast.Binary
    (Ast.Mod, Ast.Binary (Ast.Add, Ast.Binary (Ast.Mod, e, Ast.Int 4), Ast.Int 4), Ast.Int 4)

(* Simple statements, optionally wrapped in sync blocks. *)
let gen_simple locals =
  let open Gen in
  oneof
    [ (let* g = oneofl [ "g0"; "g1"; "g2" ] in
       let* e = gen_fuzz_expr locals in
       return (Ast.stmt (Ast.Assign (g, e))));
      (let* i = gen_fuzz_expr locals in
       let* e = gen_fuzz_expr locals in
       return (Ast.stmt (Ast.Store ("arr", mask_index i, e))));
      (let* i = gen_fuzz_expr locals in
       let* g = oneofl [ "g0"; "g1" ] in
       return (Ast.stmt (Ast.Assign (g, Ast.Index ("arr", mask_index i)))));
      return (Ast.stmt Ast.Yield) ]

let gen_item locals counter =
  let open Gen in
  let* body = list_size (int_range 1 3) (gen_simple locals) in
  oneof
    [ return (Ast.stmt (Ast.Sync ({ Ast.lock = "m"; index = None }, body)));
      (let* idx = oneofl [ Ast.Int 0; Ast.Int 1; Ast.Var "id" ] in
       let wrap =
         match idx with
         | Ast.Var _ ->
             { Ast.lock = "ls";
               index = Some (Ast.Binary (Ast.Mod, idx, Ast.Int 2)) }
         | i -> { Ast.lock = "ls"; index = Some i }
       in
       return (Ast.stmt (Ast.Sync (wrap, body))));
      return (Ast.stmt (Ast.Block body));
      (* A bounded loop around the body. *)
      (let* bound = int_range 1 3 in
       let v = Printf.sprintf "i%d" counter in
       return
         (Ast.stmt
            (Ast.Block
               [ Ast.stmt (Ast.Local (v, Ast.Int 0));
                 Ast.stmt
                   (Ast.While
                      ( Ast.Binary (Ast.Lt, Ast.Var v, Ast.Int bound),
                        body
                        @ [ Ast.stmt
                              (Ast.Assign
                                 (v, Ast.Binary (Ast.Add, Ast.Var v, Ast.Int 1)))
                          ] )) ]))) ]

let gen_worker_body =
  let open Gen in
  let* n = int_range 2 5 in
  let rec go k acc =
    if k = 0 then return (List.rev acc)
    else
      let* item = gen_item [ "id" ] k in
      go (k - 1) (item :: acc)
  in
  go n []

(* Like [gen_item] but biased toward late knowledge: bodies may run
   unsynchronized (no lock at all) or inside [atomic] blocks, so raciness
   and lock-sharedness facts surface only once a second worker reaches the
   same data — after the first worker's transactions were classified. *)
let gen_late_item locals counter =
  let open Gen in
  let* body = list_size (int_range 1 3) (gen_simple locals) in
  oneof
    [ return (Ast.stmt (Ast.Atomic body));
      return (Ast.stmt (Ast.Block body));
      return (Ast.stmt (Ast.Sync ({ Ast.lock = "m"; index = None }, body)));
      (let v = Printf.sprintf "j%d" counter in
       let* bound = int_range 1 3 in
       return
         (Ast.stmt
            (Ast.Block
               [ Ast.stmt (Ast.Local (v, Ast.Int 0));
                 Ast.stmt
                   (Ast.While
                      ( Ast.Binary (Ast.Lt, Ast.Var v, Ast.Int bound),
                        body
                        @ [ Ast.stmt
                              (Ast.Assign
                                 (v, Ast.Binary (Ast.Add, Ast.Var v, Ast.Int 1)))
                          ] )) ]))) ]

(* Main's body: spawn [workers] workers, join them all, print g0. *)
let spawn_join workers =
  [ Ast.stmt (Ast.Local ("i", Ast.Int 0));
    Ast.stmt
      (Ast.While
         ( Ast.Binary (Ast.Lt, Ast.Var "i", Ast.Int workers),
           [ Ast.stmt
               (Ast.Store ("tids", Ast.Var "i", Ast.Spawn ("worker", [ Ast.Var "i" ])));
             Ast.stmt (Ast.Assign ("i", Ast.Binary (Ast.Add, Ast.Var "i", Ast.Int 1)))
           ] ));
    Ast.stmt (Ast.Assign ("i", Ast.Int 0));
    Ast.stmt
      (Ast.While
         ( Ast.Binary (Ast.Lt, Ast.Var "i", Ast.Int workers),
           [ Ast.stmt (Ast.Join_stmt (Ast.Index ("tids", Ast.Var "i")));
             Ast.stmt (Ast.Assign ("i", Ast.Binary (Ast.Add, Ast.Var "i", Ast.Int 1)))
           ] ));
    Ast.stmt (Ast.Print (Ast.Var "g0"))
  ]

let concurrent_decls =
  [ Ast.Gvar ("g0", 0); Ast.Gvar ("g1", 1); Ast.Gvar ("g2", 2);
    Ast.Garray ("arr", 4); Ast.Garray ("tids", 4); Ast.Glock ("m", 1);
    Ast.Glock ("ls", 2) ]

let gen_concurrent_program =
  let open Gen in
  let* body = gen_worker_body in
  let* workers = int_range 2 3 in
  let worker = { Ast.fname = "worker"; params = [ "id" ]; body; fline = 1 } in
  let main = { Ast.fname = "main"; params = []; body = spawn_join workers; fline = 1 } in
  return { Ast.decls = concurrent_decls; funcs = [ worker; main ] }

(* Fork/join-heavy programs whose main thread touches the shared globals
   (and lock [m]) in an unsynchronized prelude before any worker exists:
   single-threaded so far, every variable looks race-free and the lock
   thread-local. The workers then race on the same state, delivering the
   facts late. Same boundedness invariants as [gen_concurrent_program]. *)
let gen_late_program =
  let open Gen in
  let* prelude_items =
    list_size (int_range 2 4)
      (oneof
         [ gen_simple [];
           (let* body = list_size (int_range 1 2) (gen_simple []) in
            return (Ast.stmt (Ast.Atomic body)));
           (let* body = list_size (int_range 1 2) (gen_simple []) in
            return
              (Ast.stmt (Ast.Sync ({ Ast.lock = "m"; index = None }, body)))) ])
  in
  let* n = int_range 2 5 in
  let* body =
    let rec go k acc =
      if k = 0 then return (List.rev acc)
      else
        let* item = gen_late_item [ "id" ] k in
        go (k - 1) (item :: acc)
    in
    go n []
  in
  let* workers = int_range 2 3 in
  let worker = { Ast.fname = "worker"; params = [ "id" ]; body; fline = 1 } in
  let main =
    { Ast.fname = "main"; params = []; body = prelude_items @ spawn_join workers; fline = 1 }
  in
  return { Ast.decls = concurrent_decls; funcs = [ worker; main ] }

(* [add(a, b)] adds [a] to g0 under lock m and returns [a + b] through
   a local; [down(n)] recurses [n] levels, bumping g1 and yielding at the
   bottom. *)
let call_helpers =
  let n = Ast.Var "n" in
  [ { Ast.fname = "add"; params = [ "a"; "b" ]; fline = 1;
      body =
        [ Ast.stmt (Ast.Local ("s", Ast.Binary (Ast.Add, Ast.Var "a", Ast.Var "b")));
          Ast.stmt
            (Ast.Sync
               ( { Ast.lock = "m"; index = None },
                 [ Ast.stmt (Ast.Assign ("g0", Ast.Binary (Ast.Add, Ast.Var "g0", Ast.Var "a")))
                 ] ));
          Ast.stmt (Ast.Return (Some (Ast.Var "s"))) ] };
    { Ast.fname = "down"; params = [ "n" ]; fline = 1;
      body =
        [ Ast.stmt
            (Ast.If
               ( Ast.Binary (Ast.Lt, Ast.Int 0, n),
                 [ Ast.stmt (Ast.Assign ("g1", Ast.Binary (Ast.Add, Ast.Var "g1", Ast.Int 1)));
                   Ast.stmt
                     (Ast.Return
                        (Some
                           (Ast.Binary
                              ( Ast.Add,
                                Ast.Call ("down", [ Ast.Binary (Ast.Sub, n, Ast.Int 1) ]),
                                Ast.Int 1 )))) ],
                 [ Ast.stmt Ast.Yield ] ));
          Ast.stmt (Ast.Return (Some n)) ] } ]

(* A worker statement that calls: [add] or [down] (depth masked into
   [0, 3]), under up to ten pending operands, so a return can push past
   the eight operand slots a frame starts with. *)
let gen_call_stmt =
  let open Gen in
  let e = gen_fuzz_expr [ "id" ] in
  let* call =
    oneof
      [ (let* a = e in
         let* b = e in
         return (Ast.Call ("add", [ a; b ])));
        map (fun d -> Ast.Call ("down", [ mask_index d ])) e ]
  in
  let* pending = list_size (int_range 0 10) (int_bound 9) in
  let nested =
    List.fold_right (fun c x -> Ast.Binary (Ast.Add, Ast.Int c, x)) pending call
  in
  oneof
    [ map (fun g -> Ast.stmt (Ast.Assign (g, nested))) (oneofl [ "g1"; "g2" ]);
      return (Ast.stmt (Ast.Expr_stmt nested)) ]

(* Spawn/join programs whose workers spend much of their time in calls:
   call statements mixed into [gen_concurrent_program]'s worker items,
   and a bounded loop of calls, so frames are entered, returned from and
   entered again at every depth. Same invariants: bounded, fault-free
   under every scheduler. *)
let gen_call_program =
  let open Gen in
  let* items = list_size (int_range 2 4) (gen_item [ "id" ] 0) in
  let* calls = list_size (int_range 2 4) gen_call_stmt in
  let* loop_calls = list_size (int_range 1 2) gen_call_stmt in
  let* bound = int_range 1 3 in
  let loop =
    Ast.stmt
      (Ast.Block
         [ Ast.stmt (Ast.Local ("k", Ast.Int 0));
           Ast.stmt
             (Ast.While
                ( Ast.Binary (Ast.Lt, Ast.Var "k", Ast.Int bound),
                  loop_calls
                  @ [ Ast.stmt (Ast.Assign ("k", Ast.Binary (Ast.Add, Ast.Var "k", Ast.Int 1))) ]
                )) ])
  in
  let* body = shuffle_l ((loop :: items) @ calls) in
  let* workers = int_range 2 3 in
  let worker = { Ast.fname = "worker"; params = [ "id" ]; body; fline = 1 } in
  let main = { Ast.fname = "main"; params = []; body = spawn_join workers; fline = 1 } in
  return { Ast.decls = concurrent_decls; funcs = call_helpers @ [ worker; main ] }

(* ------------------------------------------------------------------ *)
(* The Atomizer over a recorded trace.                                 *)
(* ------------------------------------------------------------------ *)

(* Behind the race detector in the fused pipeline: single-pass, or the
   pipeline's two-pass mode with [~two_pass:true]. *)
let atomize ?two_pass trace =
  Option.get
    (Coop_pipeline.run ~atomize:true ?two_pass (Source.of_trace trace))
      .Coop_pipeline.atomizer

(* The three-stream reference: the final racy set, then the thread-local
   locks, then the reference checker. *)
let atomize_offline trace =
  Analysis.run
    (Coop_atomicity.Atomizer.analysis
       ~local_locks:(Coop_core.Cooperability.local_locks_of trace)
       ~racy:(Coop_race.Fasttrack.racy_vars_of_trace trace) ())
    trace
