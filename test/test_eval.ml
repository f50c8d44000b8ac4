open Coop_lang
open Coop_runtime

(* --- Direct evaluator tests -------------------------------------------- *)

let eval src = Eval.run (Parser.program src)

let test_basic () =
  let o = eval "var g = 3; fn main() { g = g * 2 + 1; print(g); }" in
  Alcotest.(check (list int)) "output" [ 7 ] o.Eval.output;
  Alcotest.(check (list int)) "globals" [ 7 ] o.Eval.globals;
  Alcotest.(check bool) "no fault" true (o.Eval.fault = None)

let test_functions_and_arrays () =
  let o =
    eval
      "array a[3]; fn fill(k) { a[k] = k * k; return a[k]; } fn main() { var s = fill(0) + fill(1) + fill(2); print(s); }"
  in
  Alcotest.(check (list int)) "output" [ 5 ] o.Eval.output

let test_faults () =
  Alcotest.(check bool) "div by zero" true ((eval "fn main() { print(1/0); }").Eval.fault <> None);
  Alcotest.(check bool) "oob" true ((eval "array a[1]; fn main() { a[3] = 1; }").Eval.fault <> None);
  Alcotest.(check bool) "assert" true ((eval "fn main() { assert(0); }").Eval.fault <> None)

let test_fuel () =
  let o = Eval.run ~fuel:100 (Parser.program "fn main() { while (1) { } }") in
  Alcotest.(check bool) "fuel exhaustion is a fault" true (o.Eval.fault <> None)

let test_unsupported () =
  (match eval "fn w() { } fn main() { spawn w(); }" with
  | _ -> Alcotest.fail "expected Unsupported"
  | exception Eval.Unsupported _ -> ())

let test_scoping_matches_vm () =
  let src =
    "var g = 10; fn main() { var x = 1; { var x = 2; g = g + x; } g = g + x; print(g); }"
  in
  let o = eval src in
  Alcotest.(check (list int)) "inner then outer" [ 13 ] o.Eval.output

(* --- Differential fuzzing: evaluator vs compiler+VM --------------------- *)

(* Generate well-formed, terminating, sequential programs: straight-line
   arithmetic over a few globals, one array, locals, if/else, bounded
   arithmetic (expressions avoid division to dodge fault-ordering
   differences; faults still compare as a boolean). *)
let gen_seq_program =
  let open QCheck2.Gen in
  let var = oneofl [ "g0"; "g1"; "g2" ] in
  let local = oneofl [ "l0"; "l1" ] in
  let rec expr n =
    if n = 0 then
      oneof [ map (fun i -> Ast.Int i) (int_bound 20);
              map (fun v -> Ast.Var v) var;
              map (fun v -> Ast.Var v) local ]
    else
      oneof
        [ map (fun i -> Ast.Int i) (int_bound 20);
          map (fun v -> Ast.Var v) var;
          (let* i = expr 0 in
           return (Ast.Index ("arr", Ast.Binary (Ast.Mod, Ast.Unary (Ast.Neg, Ast.Unary (Ast.Neg, i)), Ast.Int 4))));
          (let* op = oneofl [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Lt; Ast.Eq; Ast.And; Ast.Or ] in
           let* a = expr (n - 1) in
           let* b = expr (n - 1) in
           return (Ast.Binary (op, a, b)));
          (let* e = expr (n - 1) in
           return (Ast.Unary (Ast.Neg, e))) ]
  in
  let idx_expr i = Ast.Binary (Ast.Mod, Ast.Binary (Ast.Mul, i, i), Ast.Int 4) in
  let stmt =
    oneof
      [ (let* v = var in
         let* e = expr 2 in
         return (Ast.stmt (Ast.Assign (v, e))));
        (let* v = local in
         let* e = expr 2 in
         return (Ast.stmt (Ast.Assign (v, e))));
        (let* i = expr 1 in
         let* e = expr 2 in
         return (Ast.stmt (Ast.Store ("arr", idx_expr i, e))));
        (let* e = expr 2 in
         return (Ast.stmt (Ast.Print e)));
        (let* c = expr 2 in
         let* t = expr 1 in
         let* f = expr 1 in
         return
           (Ast.stmt
              (Ast.If
                 ( c,
                   [ Ast.stmt (Ast.Print t) ],
                   [ Ast.stmt (Ast.Print f) ] )))) ]
  in
  let* body = list_size (int_range 1 12) stmt in
  let prologue =
    [ Ast.stmt (Ast.Local ("l0", Ast.Int 0)); Ast.stmt (Ast.Local ("l1", Ast.Int 1)) ]
  in
  return
    {
      Ast.decls = [ Ast.Gvar ("g0", 1); Ast.Gvar ("g1", 2); Ast.Gvar ("g2", 3);
                    Ast.Garray ("arr", 4) ];
      funcs = [ { Ast.fname = "main"; params = []; body = prologue @ body; fline = 1 } ];
    }

(* Multi-function programs. Helpers [h0..] take one or two parameters
   and may call the functions defined before them: [down(n)], a bounded
   recursion with n masked into [0, 4], and [inv(a)], which faults with
   a division by zero when a = 3 — a fault raised inside a callee, at
   any depth. A call site sits under up to twelve pending operands, so
   the return pushes past the eight operand slots a frame starts with.
   [main] may call every function. *)
let gen_call_program ~helpers ~stmts =
  let open QCheck2.Gen in
  let var = oneofl [ "g0"; "g1"; "g2" ] in
  let mask k e =
    Ast.Binary
      (Ast.Mod, Ast.Binary (Ast.Add, Ast.Binary (Ast.Mod, e, Ast.Int k), Ast.Int k), Ast.Int k)
  in
  let rec expr ~locals ~callees n =
    let leaf =
      oneof
        ([ map (fun i -> Ast.Int i) (int_bound 20); map (fun v -> Ast.Var v) var ]
        @ if locals = [] then [] else [ map (fun v -> Ast.Var v) (oneofl locals) ])
    in
    if n = 0 then leaf
    else
      let sub = expr ~locals ~callees (n - 1) in
      let call =
        let* f, arity = oneofl callees in
        let* args = list_repeat arity sub in
        let args = if f = "down" then List.map (mask 5) args else args in
        let* pending = list_size (int_range 0 12) (int_bound 9) in
        return
          (List.fold_right
             (fun c e -> Ast.Binary (Ast.Add, Ast.Int c, e))
             pending (Ast.Call (f, args)))
      in
      oneof
        ([ leaf;
           (let* op = oneofl [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Lt; Ast.Eq ] in
            let* a = sub in
            let* b = sub in
            return (Ast.Binary (op, a, b))) ]
        @ if callees = [] then [] else [ call; call ])
  in
  let stmt ~locals ~callees =
    let e = expr ~locals ~callees 2 in
    oneof
      [ (let* v = var in
         map (fun e -> Ast.stmt (Ast.Assign (v, e))) e);
        map (fun e -> Ast.stmt (Ast.Print e)) e;
        (let* i = e in
         map (fun v -> Ast.stmt (Ast.Store ("arr", mask 4 i, v))) e);
        (let* c = e in
         let* t = e in
         map
           (fun f ->
             Ast.stmt (Ast.If (c, [ Ast.stmt (Ast.Print t) ], [ Ast.stmt (Ast.Expr_stmt f) ])))
           e) ]
  in
  let down =
    let n = Ast.Var "n" in
    { Ast.fname = "down"; params = [ "n" ]; fline = 1;
      body =
        [ Ast.stmt
            (Ast.If
               ( Ast.Binary (Ast.Lt, Ast.Int 0, n),
                 [ Ast.stmt (Ast.Assign ("g1", Ast.Binary (Ast.Add, Ast.Var "g1", n)));
                   Ast.stmt
                     (Ast.Return
                        (Some
                           (Ast.Binary
                              ( Ast.Add,
                                Ast.Call ("down", [ Ast.Binary (Ast.Sub, n, Ast.Int 1) ]),
                                Ast.Int 1 )))) ],
                 [] ));
          Ast.stmt (Ast.Return (Some (Ast.Var "g2"))) ] }
  in
  let inv =
    { Ast.fname = "inv"; params = [ "a" ]; fline = 1;
      body =
        [ Ast.stmt
            (Ast.Return
               (Some (Ast.Binary (Ast.Div, Ast.Int 60, Ast.Binary (Ast.Sub, Ast.Var "a", Ast.Int 3)))))
        ] }
  in
  let rec gen_helpers k callees acc =
    if k = helpers then return (List.rev acc, callees)
    else
      let* arity = int_range 1 2 in
      let params = List.init arity (Printf.sprintf "p%d") in
      let* body = list_size (int_range 1 3) (stmt ~locals:params ~callees) in
      let* ret = expr ~locals:params ~callees 2 in
      let name = Printf.sprintf "h%d" k in
      let f =
        { Ast.fname = name; params; fline = 1;
          body = body @ [ Ast.stmt (Ast.Return (Some ret)) ] }
      in
      gen_helpers (k + 1) ((name, arity) :: callees) (f :: acc)
  in
  let* hs, callees = gen_helpers 0 [ ("down", 1); ("inv", 1) ] [] in
  let locals = [ "l0"; "l1" ] in
  let* body = list_size (int_range 1 stmts) (stmt ~locals ~callees) in
  let prologue =
    [ Ast.stmt (Ast.Local ("l0", Ast.Int 0)); Ast.stmt (Ast.Local ("l1", Ast.Int 1)) ]
  in
  return
    {
      Ast.decls = [ Ast.Gvar ("g0", 1); Ast.Gvar ("g1", 2); Ast.Gvar ("g2", 3);
                    Ast.Garray ("arr", 4) ];
      funcs =
        (down :: inv :: hs)
        @ [ { Ast.fname = "main"; params = []; body = prologue @ body; fline = 1 } ];
    }

let vm_outcome prog_ast =
  let prog = Compile.program prog_ast in
  let o =
    Runner.run ~max_steps:1_000_000 ~sched:Sched.sequential
      ~sink:Coop_trace.Trace.Sink.ignore prog
  in
  let st = o.Runner.final in
  ( Vm.output st,
    List.init prog.Bytecode.n_globals (Vm.global_value st),
    Vm.failures st <> [] )

let agrees_with_evaluator p =
  let e = Eval.run p in
  let out, globals, faulted = vm_outcome p in
  if e.Eval.fault <> None then faulted
  else (not faulted) && out = e.Eval.output && globals = e.Eval.globals

let prop_vm_matches_evaluator =
  Gen.to_alcotest
    (QCheck2.Test.make ~name:"compiler+VM agree with reference evaluator"
       ~count:500 ~print:Pretty.program gen_seq_program agrees_with_evaluator)

let prop_calls_match_evaluator ~name ~speed ~count ~helpers ~stmts =
  Gen.to_alcotest ~speed_level:speed
    (QCheck2.Test.make ~name ~count ~print:Pretty.program
       (gen_call_program ~helpers ~stmts) agrees_with_evaluator)

let suite =
  [
    Alcotest.test_case "basic evaluation" `Quick test_basic;
    Alcotest.test_case "functions and arrays" `Quick test_functions_and_arrays;
    Alcotest.test_case "faults" `Quick test_faults;
    Alcotest.test_case "fuel bound" `Quick test_fuel;
    Alcotest.test_case "unsupported constructs" `Quick test_unsupported;
    Alcotest.test_case "scoping" `Quick test_scoping_matches_vm;
    prop_vm_matches_evaluator;
    prop_calls_match_evaluator ~name:"calls: compiler+VM agree with reference evaluator"
      ~speed:`Quick ~count:150 ~helpers:2 ~stmts:4;
    prop_calls_match_evaluator
      ~name:"calls: compiler+VM agree with reference evaluator (larger)" ~speed:`Slow
      ~count:60 ~helpers:4 ~stmts:10;
  ]
