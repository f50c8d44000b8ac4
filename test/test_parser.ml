open Coop_lang

let expr = Parser.expr

let check_expr msg src expected =
  Alcotest.(check bool) msg true (Ast.equal_expr (expr src) expected)

let test_precedence_mul_add () =
  check_expr "mul binds tighter" "1 + 2 * 3"
    (Ast.Binary (Ast.Add, Ast.Int 1, Ast.Binary (Ast.Mul, Ast.Int 2, Ast.Int 3)))

let test_precedence_cmp_bool () =
  check_expr "cmp under &&" "a < b && c > d"
    (Ast.Binary
       ( Ast.And,
         Ast.Binary (Ast.Lt, Ast.Var "a", Ast.Var "b"),
         Ast.Binary (Ast.Gt, Ast.Var "c", Ast.Var "d") ))

let test_precedence_or_and () =
  check_expr "&& binds tighter than ||" "a || b && c"
    (Ast.Binary
       (Ast.Or, Ast.Var "a", Ast.Binary (Ast.And, Ast.Var "b", Ast.Var "c")))

let test_left_assoc () =
  check_expr "sub left assoc" "10 - 3 - 2"
    (Ast.Binary (Ast.Sub, Ast.Binary (Ast.Sub, Ast.Int 10, Ast.Int 3), Ast.Int 2))

let test_parens () =
  check_expr "parens override" "(1 + 2) * 3"
    (Ast.Binary (Ast.Mul, Ast.Binary (Ast.Add, Ast.Int 1, Ast.Int 2), Ast.Int 3))

let test_unary () =
  check_expr "negation chains" "--x" (Ast.Unary (Ast.Neg, Ast.Unary (Ast.Neg, Ast.Var "x")));
  check_expr "not" "!x" (Ast.Unary (Ast.Not, Ast.Var "x"))

let test_index_and_call () =
  check_expr "index" "a[i + 1]"
    (Ast.Index ("a", Ast.Binary (Ast.Add, Ast.Var "i", Ast.Int 1)));
  check_expr "call" "f(1, x)" (Ast.Call ("f", [ Ast.Int 1; Ast.Var "x" ]));
  check_expr "nullary call" "f()" (Ast.Call ("f", []));
  check_expr "spawn expr" "spawn f(x)" (Ast.Spawn ("f", [ Ast.Var "x" ]))

let test_bool_literals () =
  check_expr "true" "true" (Ast.Bool true);
  check_expr "false" "false" (Ast.Bool false)

let parse_main body =
  let p = Parser.program (Printf.sprintf "fn main() { %s }" body) in
  match p.Ast.funcs with
  | [ f ] -> f.Ast.body
  | _ -> Alcotest.fail "expected one function"

let test_if_else_chain () =
  match parse_main "if (a) { x = 1; } else if (b) { x = 2; } else { x = 3; }" with
  | [ { Ast.kind = Ast.If (_, _, [ { Ast.kind = Ast.If (_, _, [ _ ]); _ } ]); _ } ] -> ()
  | _ -> Alcotest.fail "else-if chain shape"

let test_sync_lock_array () =
  match parse_main "sync (m[i]) { x = 1; }" with
  | [ { Ast.kind = Ast.Sync ({ Ast.lock = "m"; index = Some (Ast.Var "i") }, _); _ } ] -> ()
  | _ -> Alcotest.fail "sync lock array shape"

let test_spawn_statement () =
  match parse_main "spawn f(1); var t = spawn g();" with
  | [ { Ast.kind = Ast.Expr_stmt (Ast.Spawn ("f", _)); _ };
      { Ast.kind = Ast.Local ("t", Ast.Spawn ("g", [])); _ } ] -> ()
  | _ -> Alcotest.fail "spawn statement shapes"

let test_join_print_assert_yield () =
  match parse_main "join t; print(x); assert(x == 1); yield;" with
  | [ { Ast.kind = Ast.Join_stmt (Ast.Var "t"); _ };
      { Ast.kind = Ast.Print (Ast.Var "x"); _ };
      { Ast.kind = Ast.Assert _; _ };
      { Ast.kind = Ast.Yield; _ } ] -> ()
  | _ -> Alcotest.fail "statement shapes"

let test_return_forms () =
  match parse_main "return; " with
  | [ { Ast.kind = Ast.Return None; _ } ] -> (
      match parse_main "return x + 1;" with
      | [ { Ast.kind = Ast.Return (Some _); _ } ] -> ()
      | _ -> Alcotest.fail "return with value")
  | _ -> Alcotest.fail "bare return"

let test_decls () =
  let p =
    Parser.program
      "var a = 3; var b; array arr[10]; lock m; lock ms[4]; fn main() { }"
  in
  Alcotest.(check bool) "decl shapes" true
    (p.Ast.decls
    = [ Ast.Gvar ("a", 3); Ast.Gvar ("b", 0); Ast.Garray ("arr", 10);
        Ast.Glock ("m", 1); Ast.Glock ("ms", 4) ])

let test_negative_global_init () =
  let p = Parser.program "var a = -5; fn main() { }" in
  Alcotest.(check bool) "negative init" true (p.Ast.decls = [ Ast.Gvar ("a", -5) ])

let test_error_reports_line () =
  (match Parser.program "fn main() {\n  x = ;\n}" with
  | _ -> Alcotest.fail "expected parse error"
  | exception Parser.Error (_, 2) -> ())

let test_error_missing_paren () =
  (match Parser.program "fn main() { if x { } }" with
  | _ -> Alcotest.fail "expected parse error"
  | exception Parser.Error (_, _) -> ())

let test_error_trailing () =
  (match Parser.expr "1 + 2 extra" with
  | _ -> Alcotest.fail "expected parse error"
  | exception Parser.Error (_, _) -> ())

let prop_roundtrip =
  Gen.to_alcotest
    (QCheck2.Test.make ~name:"pretty-print/parse round trip" ~count:500
       ~print:Pretty.program Gen.gen_program (fun p ->
         let printed = Pretty.program p in
         match Parser.program printed with
         | p' -> Ast.equal_program p p'
         | exception _ -> false))

let prop_expr_roundtrip =
  Gen.to_alcotest
    (QCheck2.Test.make ~name:"expression round trip" ~count:500
       ~print:Pretty.expr (Gen.gen_expr 5) (fun e ->
         match Parser.expr (Pretty.expr e) with
         | e' -> Ast.equal_expr e e'
         | exception _ -> false))

let suite =
  [
    Alcotest.test_case "mul/add precedence" `Quick test_precedence_mul_add;
    Alcotest.test_case "cmp under &&" `Quick test_precedence_cmp_bool;
    Alcotest.test_case "|| vs &&" `Quick test_precedence_or_and;
    Alcotest.test_case "left associativity" `Quick test_left_assoc;
    Alcotest.test_case "parentheses" `Quick test_parens;
    Alcotest.test_case "unary operators" `Quick test_unary;
    Alcotest.test_case "index and calls" `Quick test_index_and_call;
    Alcotest.test_case "bool literals" `Quick test_bool_literals;
    Alcotest.test_case "else-if chain" `Quick test_if_else_chain;
    Alcotest.test_case "sync with lock array" `Quick test_sync_lock_array;
    Alcotest.test_case "spawn statements" `Quick test_spawn_statement;
    Alcotest.test_case "join/print/assert/yield" `Quick test_join_print_assert_yield;
    Alcotest.test_case "return forms" `Quick test_return_forms;
    Alcotest.test_case "global declarations" `Quick test_decls;
    Alcotest.test_case "negative global init" `Quick test_negative_global_init;
    Alcotest.test_case "error line numbers" `Quick test_error_reports_line;
    Alcotest.test_case "missing paren error" `Quick test_error_missing_paren;
    Alcotest.test_case "trailing tokens error" `Quick test_error_trailing;
    prop_roundtrip;
    prop_expr_roundtrip;
  ]
