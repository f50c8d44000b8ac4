open Coop_lang

let compile = Compile.source

let code_of prog name =
  let rec find i =
    if i >= Array.length prog.Bytecode.funcs then Alcotest.fail ("no fn " ^ name)
    else if prog.Bytecode.funcs.(i).Bytecode.name = name then
      prog.Bytecode.funcs.(i)
    else find (i + 1)
  in
  find 0

let test_main_index () =
  let prog = compile "fn helper() { } fn main() { }" in
  Alcotest.(check string) "main resolved" "main"
    prog.Bytecode.funcs.(prog.Bytecode.main).Bytecode.name

let test_implicit_return () =
  let prog = compile "fn main() { }" in
  let f = code_of prog "main" in
  Alcotest.(check bool) "ends const 0; ret" true
    (Array.length f.Bytecode.code = 2
    && f.Bytecode.code.(0) = Bytecode.Const 0
    && f.Bytecode.code.(1) = Bytecode.Ret)

let test_param_slots () =
  let prog = compile "fn f(a, b, c) { var d = 0; d = a; } fn main() { }" in
  let f = code_of prog "f" in
  Alcotest.(check int) "arity" 3 f.Bytecode.arity;
  Alcotest.(check int) "locals include temp" 4 f.Bytecode.n_locals

let test_sync_compiles_handle_once () =
  let prog = compile "var i = 0; lock ms[4]; fn main() { sync (ms[i]) { i = i + 1; } }" in
  let f = code_of prog "main" in
  (* The release must reload the stashed handle (Load_local), not recompute
     the index expression (which now evaluates differently). *)
  let stores = Array.to_list f.Bytecode.code
               |> List.filter (function Bytecode.Store_local _ -> true | _ -> false) in
  Alcotest.(check bool) "handle stashed in a temp" true (List.length stores >= 1);
  (* Count reads of global i: exactly 2 (one for the handle, one in the
     body) -- a recomputation bug would make it 3. *)
  let reads = Array.to_list f.Bytecode.code
              |> List.filter (function Bytecode.Load_global 0 -> true | _ -> false) in
  Alcotest.(check int) "index evaluated once" 2 (List.length reads)

let test_jump_targets_in_range () =
  let prog =
    compile
      "var x = 0; fn main() { var i = 0; while (i < 10) { if (i % 2 == 0) { x = x + i; } else { x = x - 1; } i = i + 1; } }"
  in
  Array.iter
    (fun (f : Bytecode.func) ->
      let n = Array.length f.Bytecode.code in
      Array.iter
        (function
          | Bytecode.Jump t | Bytecode.Jump_if_zero t ->
              Alcotest.(check bool) "target in range" true (t >= 0 && t <= n)
          | _ -> ())
        f.Bytecode.code)
    prog.Bytecode.funcs

let test_lines_parallel_to_code () =
  let prog = compile "fn main() {\n  print(1);\n  print(2);\n}" in
  Array.iter
    (fun (f : Bytecode.func) ->
      Alcotest.(check int) "lines array length"
        (Array.length f.Bytecode.code)
        (Array.length f.Bytecode.lines))
    prog.Bytecode.funcs

let test_line_attribution () =
  let prog = compile "fn main() {\n  print(1);\n  print(2);\n}" in
  let f = code_of prog "main" in
  (* Find the two Print instructions and check their lines. *)
  let lines = ref [] in
  Array.iteri
    (fun pc ins -> if ins = Bytecode.Print then lines := f.Bytecode.lines.(pc) :: !lines)
    f.Bytecode.code;
  Alcotest.(check (list int)) "print lines" [ 3; 2 ] !lines

let test_lock_array_handles () =
  let prog = compile "lock a; lock bs[3]; fn main() { sync (bs[2]) { } sync (a) { } }" in
  Alcotest.(check int) "total handles" 4 prog.Bytecode.n_locks;
  Alcotest.(check string) "scalar lock name" "a" prog.Bytecode.lock_names.(0);
  Alcotest.(check string) "array lock name" "bs[2]" prog.Bytecode.lock_names.(3)

let test_disassemble_smoke () =
  let prog = compile "var x = 5; fn main() { print(x); }" in
  let listing = Bytecode.disassemble prog in
  let contains hay needle =
    let h = String.length hay and n = String.length needle in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions main" true (contains listing "fn main");
  Alcotest.(check bool) "mentions print" true (contains listing "print")

let test_code_size () =
  let p1 = compile "fn main() { }" in
  let p2 = compile "fn main() { print(1); print(2); }" in
  Alcotest.(check bool) "more statements, more code" true
    (Bytecode.code_size p2 > Bytecode.code_size p1)

(* The tables hold each instruction's location, and the payload of every
   event the program can emit; two programs alive at once share the
   payloads of the ids they both name. *)
let test_event_tables () =
  let open Coop_trace in
  let a = Compile.source "var g; array xs[4]; lock l; fn main() { xs[1] = g; }" in
  let b = Compile.source "var h; var g; array ys[9]; fn main() { ys[8] = 1; }" in
  let ta = a.Bytecode.tables and tb = b.Bytecode.tables in
  Alcotest.(check bool) "locations" true
    (Array.for_all2
       (fun f locs ->
         Array.length locs = Array.length f.Bytecode.code
         && Array.for_all (fun (l : Loc.t) -> l.line = f.Bytecode.lines.(l.pc)) locs)
       a.Bytecode.funcs ta.Bytecode.locs);
  Alcotest.(check bool) "cell payload" true
    (ta.Bytecode.read_cell_ops.(0).(3) = Event.Read (Event.Cell (0, 3))
     && tb.Bytecode.write_cell_ops.(0).(8) = Event.Write (Event.Cell (0, 8)));
  Alcotest.(check bool) "shared across programs" true
    (ta.Bytecode.read_cell_ops.(0).(3) == tb.Bytecode.read_cell_ops.(0).(3)
     && ta.Bytecode.read_global_ops.(0) == tb.Bytecode.read_global_ops.(0));
  Alcotest.(check bool) "lock payloads" true
    (ta.Bytecode.acquire_ops.(0) = Event.Acquire 0 && ta.Bytecode.release_ops.(0) = Event.Release 0)

let suite =
  [
    Alcotest.test_case "event tables" `Quick test_event_tables;
    Alcotest.test_case "main index" `Quick test_main_index;
    Alcotest.test_case "implicit return" `Quick test_implicit_return;
    Alcotest.test_case "parameter slots" `Quick test_param_slots;
    Alcotest.test_case "sync handle computed once" `Quick test_sync_compiles_handle_once;
    Alcotest.test_case "jump targets in range" `Quick test_jump_targets_in_range;
    Alcotest.test_case "line arrays parallel" `Quick test_lines_parallel_to_code;
    Alcotest.test_case "line attribution" `Quick test_line_attribution;
    Alcotest.test_case "lock array handles" `Quick test_lock_array_handles;
    Alcotest.test_case "disassembly" `Quick test_disassemble_smoke;
    Alcotest.test_case "code size grows" `Quick test_code_size;
  ]
