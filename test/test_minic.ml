(* Tests for the minic front end: lexer, parser, checks, lowering shapes,
   and interpreter semantics. *)

open Ba_minic

let compile_ok src =
  match Compile.compile src with
  | Ok c -> c
  | Error e ->
      Alcotest.failf "compilation failed: %s" (Ba_robust.Errors.to_string e)

let compile_err src =
  match Compile.compile src with
  | Ok _ -> Alcotest.failf "compilation unexpectedly succeeded"
  | Error e -> Ba_robust.Errors.to_string e

let run_output ?(input = [||]) src =
  let c = compile_ok src in
  (Compile.run c ~input ~sink:Ba_cfg.Trace.null).Interp.output

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ---------------- lexer ---------------- *)

let test_lexer_tokens () =
  let toks = (Lexer.tokenize "fn f(x) { return x <= 42; } // comment").Lexer.toks in
  let kinds = Array.map fst toks in
  Alcotest.(check bool) "starts with fn" true (kinds.(0) = Lexer.KW "fn");
  Alcotest.(check bool) "le operator" true
    (Array.exists (( = ) (Lexer.PUNCT "<=")) kinds);
  Alcotest.(check bool) "int literal" true
    (Array.exists (( = ) (Lexer.INT 42)) kinds);
  Alcotest.(check bool) "comment dropped" true
    (not (Array.exists (function Lexer.IDENT "comment" -> true | _ -> false) kinds));
  Alcotest.(check bool) "eof last" true (kinds.(Array.length kinds - 1) = Lexer.EOF)

let test_lexer_rejects_garbage () =
  Alcotest.(check bool) "bad character" true
    (try
       ignore (Lexer.tokenize "fn main() { @ }");
       false
     with Lexer.Error _ -> true)

let test_lexer_line_numbers () =
  let toks = (Lexer.tokenize "fn\nmain\n(").Lexer.toks in
  Alcotest.(check int) "third token on line 3" 3 (snd toks.(2))

(* ---------------- parser ---------------- *)

let test_parser_precedence () =
  (* 2 + 3 * 4 == 14 must parse as (2 + (3*4)) == 14 *)
  let out = run_output "fn main() { print(2 + 3 * 4 == 14); }" in
  Alcotest.(check (list int)) "precedence" [ 1 ] out

let test_parser_associativity () =
  let out = run_output "fn main() { print(20 - 5 - 3); print(100 / 5 / 2); }" in
  Alcotest.(check (list int)) "left assoc" [ 12; 10 ] out

let test_parser_unary () =
  let out = run_output "fn main() { print(-3 + 5); print(!0); print(!7); }" in
  Alcotest.(check (list int)) "unary" [ 2; 1; 0 ] out

let test_parser_else_if () =
  let src =
    "fn classify(x) { if (x < 0) { return 0; } else if (x == 0) { return 1; } \
     else { return 2; } } fn main() { print(classify(-5)); print(classify(0)); \
     print(classify(9)); }"
  in
  Alcotest.(check (list int)) "else-if chain" [ 0; 1; 2 ] (run_output src)

let test_parser_rejects_malformed () =
  Alcotest.(check bool) "missing paren" true
    (contains ~sub:"parser" (compile_err "fn main( { }"));
  Alcotest.(check bool) "missing semicolon" true
    (contains ~sub:"parser" (compile_err "fn main() { var x = 1 }"));
  Alcotest.(check bool) "bad statement" true
    (contains ~sub:"parser" (compile_err "fn main() { 42; }"))

let test_parser_negative_case_values () =
  let src =
    "fn main() { var x = 0 - 1; switch (x) { case -1: { print(10); } default: \
     { print(20); } } }"
  in
  Alcotest.(check (list int)) "negative case" [ 10 ] (run_output src)

(* ---------------- checks ---------------- *)

let test_check_errors () =
  let cases =
    [
      ("fn f() { }", "no main");
      ("fn main(x) { }", "main() must take no parameters");
      ("fn main() { x = 1; }", "undeclared");
      ("fn main() { var x = 1; var x = 2; }", "duplicate declaration");
      ("fn main() { f(1); }", "unknown function");
      ("fn f(a, b) { } fn main() { f(1); }", "expects 2 arguments");
      ("fn main() { break; }", "break/continue outside");
      ("fn main() { read(1); }", "read() takes no arguments");
      ("fn f(a, a) { } fn main() { }", "duplicate parameter");
      ("fn read() { } fn main() { }", "shadows a builtin");
      ( "fn main() { switch (1) { case 1: { } case 1: { } default: { } } }",
        "duplicate case" );
    ]
  in
  List.iter
    (fun (src, want) ->
      let msg = compile_err src in
      Alcotest.(check bool)
        (Printf.sprintf "%S mentions %S (got %S)" src want msg)
        true (contains ~sub:want msg))
    cases

(* ---------------- lowering shapes ---------------- *)

let cfg_of src name =
  let c = compile_ok src in
  let rec find i =
    if i >= Array.length c.Compile.names then Alcotest.failf "no function %s" name
    else if c.Compile.names.(i) = name then c.Compile.cfgs.(i)
    else find (i + 1)
  in
  find 0

let count_term pred g =
  let n = ref 0 in
  Ba_cfg.Cfg.iter (fun b -> if pred b.Ba_cfg.Block.term then incr n) g;
  !n

let test_lower_if_makes_branch () =
  let g = cfg_of "fn main() { var x = read(); if (x) { print(1); } else { print(2); } }" "main" in
  Alcotest.(check int) "one conditional" 1
    (count_term (function Ba_cfg.Block.Branch _ -> true | _ -> false) g)

let test_lower_while_makes_loop () =
  let g = cfg_of "fn main() { var i = 0; while (i < 10) { i = i + 1; } }" "main" in
  Alcotest.(check int) "one conditional head" 1
    (count_term (function Ba_cfg.Block.Branch _ -> true | _ -> false) g);
  (* there must be a back edge: some block jumps to a lower-numbered one *)
  let back = ref false in
  Ba_cfg.Cfg.iter
    (fun b ->
      List.iter
        (fun s -> if s <= b.Ba_cfg.Block.id then back := true)
        (Ba_cfg.Block.successors b))
    g;
  Alcotest.(check bool) "has back edge" true !back

let test_lower_switch_makes_multiway () =
  let g =
    cfg_of
      "fn main() { var x = read(); switch (x) { case 0: { print(0); } case 1: \
       { print(1); } default: { print(9); } } }"
      "main"
  in
  Alcotest.(check int) "one multiway" 1
    (count_term (function Ba_cfg.Block.Multiway _ -> true | _ -> false) g)

let test_lower_short_circuit_adds_branches () =
  let plain = cfg_of "fn main() { var x = read(); if (x) { print(1); } }" "main" in
  let sc =
    cfg_of
      "fn main() { var x = read(); if (x > 0 && x < 10 || x == 42) { print(1); } }"
      "main"
  in
  let branches g =
    count_term (function Ba_cfg.Block.Branch _ -> true | _ -> false) g
  in
  Alcotest.(check int) "plain has 1 branch" 1 (branches plain);
  Alcotest.(check int) "short-circuit has 3 branches" 3 (branches sc)

let test_lower_dead_code_dropped () =
  let g = cfg_of "fn main() { return; print(1); print(2); }" "main" in
  (* unreachable prints are dropped: entry block returns immediately *)
  Alcotest.(check int) "single exit, no prints" 0 (Ba_cfg.Cfg.total_size g)

(* ---------------- interpreter semantics ---------------- *)

let test_interp_fib () =
  let src =
    "fn fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); } fn \
     main() { print(fib(10)); }"
  in
  Alcotest.(check (list int)) "fib(10)" [ 55 ] (run_output src)

let test_interp_gcd_loop () =
  let src =
    "fn gcd(a, b) { while (b != 0) { var t = b; b = a % b; a = t; } return a; \
     } fn main() { print(gcd(252, 105)); }"
  in
  Alcotest.(check (list int)) "gcd" [ 21 ] (run_output src)

let test_interp_arrays_sort () =
  let src =
    String.concat "\n"
      [
        "fn main() {";
        "  var n = read();";
        "  var a = array(n);";
        "  var i = 0;";
        "  while (i < n) { a[i] = read(); i = i + 1; }";
        "  i = 0;";
        "  while (i < n) {";
        "    var j = i + 1;";
        "    while (j < n) {";
        "      if (a[j] < a[i]) { var t = a[i]; a[i] = a[j]; a[j] = t; }";
        "      j = j + 1;";
        "    }";
        "    i = i + 1;";
        "  }";
        "  i = 0;";
        "  while (i < n) { print(a[i]); i = i + 1; }";
        "}";
      ]
  in
  Alcotest.(check (list int)) "selection sort" [ 1; 2; 5; 8; 9 ]
    (run_output ~input:[| 5; 8; 2; 9; 1; 5 |] src)

let test_interp_read_exhausted () =
  Alcotest.(check (list int)) "read past end yields -1" [ 7; -1 ]
    (run_output ~input:[| 7 |] "fn main() { print(read()); print(read()); }")

let test_interp_switch_dispatch () =
  let src =
    "fn main() { var i = 0; while (i < 4) { switch (read()) { case 1: { \
     print(100); } case 2: { print(200); } default: { print(999); } } i = i + \
     1; } }"
  in
  Alcotest.(check (list int)) "dispatch" [ 100; 999; 200; 999 ]
    (run_output ~input:[| 1; 5; 2; 3 |] src)

let test_interp_for_loop () =
  let out =
    run_output "fn main() { for (var i = 0; i < 5; i = i + 1) { print(i * i); } }"
  in
  Alcotest.(check (list int)) "for squares" [ 0; 1; 4; 9; 16 ] out

let test_interp_for_continue_runs_step () =
  (* the crucial C semantics: continue must still execute the step *)
  let out =
    run_output
      "fn main() { for (var i = 0; i < 6; i = i + 1) { if (i % 2 == 0) { \
       continue; } print(i); } }"
  in
  Alcotest.(check (list int)) "odd values only, no infinite loop" [ 1; 3; 5 ] out

let test_interp_for_break_and_nesting () =
  let out =
    run_output
      "fn main() { var total = 0; for (var i = 0; i < 10; i = i + 1) { for \
       (var j = 0; j < 10; j = j + 1) { if (j > i) { break; } total = total + \
       1; } } print(total); }"
  in
  (* inner loop runs i+1 times: sum 1..10 = 55 *)
  Alcotest.(check (list int)) "nested for with break" [ 55 ] out

let test_for_loop_shape () =
  (* the for loop lowers to a loop head + separate step block: continue
     must not create a second conditional *)
  let g =
    cfg_of "fn main() { for (var i = 0; i < 3; i = i + 1) { print(i); } }" "main"
  in
  Alcotest.(check int) "single conditional head" 1
    (count_term (function Ba_cfg.Block.Branch _ -> true | _ -> false) g)

let test_for_header_errors () =
  Alcotest.(check bool) "missing step" true
    (contains ~sub:"loop header"
       (compile_err "fn main() { for (var i = 0; i < 3; 42) { } }"))

let test_interp_break_continue () =
  let src =
    "fn main() { var i = 0; while (1) { i = i + 1; if (i == 3) { continue; } \
     if (i > 5) { break; } print(i); } }"
  in
  Alcotest.(check (list int)) "break/continue" [ 1; 2; 4; 5 ] (run_output src)

let test_interp_value_position_logic () =
  (* && and || in value position are strict 0/1 *)
  let out = run_output "fn main() { print(2 && 3); print(0 || 7); print(0 && 1); }" in
  Alcotest.(check (list int)) "strict logic" [ 1; 1; 0 ] out

let test_interp_shifts_and_bits () =
  let out =
    run_output
      "fn main() { print(1 << 10); print(1024 >> 3); print(12 & 10); print(12 \
       | 10); print(12 ^ 10); }"
  in
  Alcotest.(check (list int)) "bit ops" [ 1024; 128; 8; 14; 6 ] out

let test_interp_runtime_errors () =
  let check_error src input want =
    let c = compile_ok src in
    match Compile.run c ~input ~sink:Ba_cfg.Trace.null with
    | (_ : Interp.result) -> Alcotest.failf "expected runtime error %s" want
    | exception Interp.Runtime_error m ->
        Alcotest.(check bool)
          (Printf.sprintf "%S in %S" want m)
          true (contains ~sub:want m)
  in
  check_error "fn main() { print(1 / read()); }" [| 0 |] "division by zero";
  check_error "fn main() { var a = array(2); print(a[5]); }" [||] "out of bounds";
  check_error "fn main() { var a = array(2); a[0-1] = 3; }" [||] "out of bounds";
  check_error "fn main() { print(array(3)); }" [||] "expected an integer";
  check_error "fn main() { var x = 1; print(x[0]); }" [||] "expected an array";
  check_error "fn main() { print(1 << 70); }" [||] "out of range"

(* Where evaluation order decides which fault a program hits, the
   interpreter must raise the same error as it always has.  A binary
   operator evaluates both operands before either is type-checked, a
   load type-checks its array before its index, and a store checks its
   array, then its index, then evaluates its value. *)
let test_interp_error_order () =
  let check_error src input want =
    let c = compile_ok src in
    match Compile.run c ~input ~sink:Ba_cfg.Trace.null with
    | (_ : Interp.result) -> Alcotest.failf "expected runtime error %s" want
    | exception Interp.Runtime_error m -> Alcotest.(check string) src want m
  in
  check_error "fn main() { var a = array(2); print(a + 1/0); }" [||]
    "division by zero";
  check_error
    "fn f(x) { return x; } fn main() { var a = array(2); print(f(a) * (1 % 0)); }"
    [||] "modulo by zero";
  check_error
    "fn main() { var a = array(2); if (a < read() << 99) { print(1); } }"
    [| 1 |] "shift amount 99 out of range";
  (* the read() on the right is consumed, and its value is the fault,
     before the array on the left is type-checked *)
  check_error "fn main() { var a = array(2); print(a + array(read())); }"
    [| -3 |] "array(-3): negative length";
  check_error "fn main() { var a = array(2); print(a + read()); }" [| 7 |]
    "expected an integer, got an array";
  check_error "fn main() { var x = 1; print(x[1/0]); }" [||]
    "expected an array, got an integer";
  check_error "fn main() { var x = 5; x[1/0] = 3; }" [||]
    "expected an array, got an integer";
  check_error "fn main() { var x = 1; var a = array(2); a[5] = x[0]; }" [||]
    "store index 5 out of bounds (length 2)";
  check_error
    "fn main() { var a = array(2); var x = 1; a[read()] = x[read()]; }"
    [| -3; 9 |] "store index -3 out of bounds (length 2)"

(* Blocks executed and inputs consumed by every bundled workload on each
   of its data sets. *)
let workload_counters =
  [
    ("com.in", 464038, 24001); ("com.st", 571386, 24001);
    ("dod.re", 1163787, 3); ("dod.sm", 199217, 3);
    ("eqn.fx", 993200, 50); ("eqn.ip", 750156, 22);
    ("esp.ti", 1128946, 762); ("esp.tl", 611155, 602);
    ("su2.re", 675842, 3); ("su2.sh", 200465, 3);
    ("xli.ne", 3815, 117); ("xli.q7", 1816003, 163);
    ("m88.srt", 166928, 251); ("m88.clz", 847018, 99);
    ("ijp.sm", 446959, 2753); ("ijp.nz", 442583, 2753);
    ("prl.hi", 1102645, 60007); ("prl.lo", 1102970, 60007);
    ("vor.rd", 571901, 69015); ("vor.wr", 666373, 69082);
    ("go.a", 278446, 4002); ("go.b", 568831, 4002);
    ("exc.dp", 248980, 17350); ("exc.fl", 239131, 16548);
  ]

let test_workload_counters () =
  let module W = Ba_workloads.Workload in
  let got =
    List.concat_map
      (fun (w : W.t) ->
        let c = W.compile w in
        List.map
          (fun (ds : W.dataset) ->
            let r = Compile.run c ~input:ds.W.input ~sink:Ba_cfg.Trace.null in
            ( w.W.name ^ "." ^ ds.W.ds_name,
              r.Interp.blocks_executed,
              r.Interp.inputs_consumed ))
          (W.dataset_list w))
      Ba_workloads.Workload_apps.everything
  in
  Alcotest.(check (list (triple string int int)))
    "blocks executed, inputs consumed" workload_counters got

let test_interp_recursion_depth_limit () =
  (* runaway recursion must fail fast with a clean error, not wedge the
     host process (OCaml 5 stacks grow, so no Stack_overflow arrives) *)
  let c = compile_ok "fn f(x) { return f(x + 1); } fn main() { print(f(0)); }" in
  match Compile.run c ~input:[||] ~sink:Ba_cfg.Trace.null with
  | (_ : Interp.result) -> Alcotest.fail "expected depth-limit error"
  | exception Interp.Runtime_error m ->
      Alcotest.(check bool) "mentions call depth" true
        (contains ~sub:"call depth" m)

let test_interp_deep_but_legal_recursion () =
  (* legitimate deep recursion below the limit still works *)
  let c =
    compile_ok
      "fn down(n) { if (n == 0) { return 0; } return down(n - 1) + 1; } fn \
       main() { print(down(50000)); }"
  in
  let r = Compile.run c ~input:[||] ~sink:Ba_cfg.Trace.null in
  Alcotest.(check (list int)) "50000 frames fine" [ 50000 ] r.Interp.output

let test_interp_step_limit () =
  let c = compile_ok "fn main() { while (1) { } }" in
  match Compile.run ~limit:1000 c ~input:[||] ~sink:Ba_cfg.Trace.null with
  | (_ : Interp.result) -> Alcotest.fail "expected limit error"
  | exception Interp.Runtime_error m ->
      Alcotest.(check bool) "mentions limit" true (contains ~sub:"limit" m)

let test_interp_return_value_and_counts () =
  let c = compile_ok "fn main() { var i = 0; while (i < 7) { i = i + 1; } return i; }" in
  let r = Compile.run c ~input:[| 1; 2 |] ~sink:Ba_cfg.Trace.null in
  Alcotest.(check int) "return value" 7 r.Interp.return_value;
  Alcotest.(check int) "no input consumed" 0 r.Interp.inputs_consumed;
  Alcotest.(check bool) "ran several blocks" true (r.Interp.blocks_executed > 7)

(* ---------------- profiling integration ---------------- *)

let test_profile_of_loop () =
  let c =
    compile_ok "fn main() { var i = 0; while (i < 10) { i = i + 1; } }"
  in
  let prof = Compile.profile c ~input:[||] in
  let p = Ba_profile.Profile.proc prof 0 in
  (* the loop head must have been entered 11 times: 10 into the body, 1 out *)
  let head =
    (* find the conditional block *)
    let g = c.Compile.cfgs.(0) in
    let found = ref (-1) in
    Ba_cfg.Cfg.iter
      (fun b ->
        match b.Ba_cfg.Block.term with
        | Ba_cfg.Block.Branch _ -> found := b.Ba_cfg.Block.id
        | _ -> ())
      g;
    !found
  in
  Alcotest.(check bool) "found loop head" true (head >= 0);
  Alcotest.(check int) "head out-transfers" 11 (Ba_profile.Profile.out_count p head)

let test_trace_call_structure () =
  let c =
    compile_ok
      "fn helper(x) { return x * 2; } fn main() { print(helper(21)); }"
  in
  let events = ref [] in
  let r = Compile.run c ~input:[||] ~sink:(fun e -> events := e :: !events) in
  Alcotest.(check (list int)) "output" [ 42 ] r.Interp.output;
  let enters =
    List.filter (function Ba_cfg.Trace.Enter _ -> true | _ -> false) !events
  in
  Alcotest.(check int) "two invocations" 2 (List.length enters)

let () =
  Alcotest.run "ba_minic"
    [
      ( "lexer",
        [
          Alcotest.test_case "tokens" `Quick test_lexer_tokens;
          Alcotest.test_case "rejects garbage" `Quick test_lexer_rejects_garbage;
          Alcotest.test_case "line numbers" `Quick test_lexer_line_numbers;
        ] );
      ( "parser",
        [
          Alcotest.test_case "precedence" `Quick test_parser_precedence;
          Alcotest.test_case "associativity" `Quick test_parser_associativity;
          Alcotest.test_case "unary" `Quick test_parser_unary;
          Alcotest.test_case "else-if" `Quick test_parser_else_if;
          Alcotest.test_case "rejects malformed" `Quick test_parser_rejects_malformed;
          Alcotest.test_case "negative case values" `Quick
            test_parser_negative_case_values;
        ] );
      ("check", [ Alcotest.test_case "error classes" `Quick test_check_errors ]);
      ( "lower",
        [
          Alcotest.test_case "if -> branch" `Quick test_lower_if_makes_branch;
          Alcotest.test_case "while -> loop" `Quick test_lower_while_makes_loop;
          Alcotest.test_case "switch -> multiway" `Quick
            test_lower_switch_makes_multiway;
          Alcotest.test_case "short-circuit branches" `Quick
            test_lower_short_circuit_adds_branches;
          Alcotest.test_case "dead code dropped" `Quick test_lower_dead_code_dropped;
        ] );
      ( "interp",
        [
          Alcotest.test_case "fib recursion" `Quick test_interp_fib;
          Alcotest.test_case "gcd loop" `Quick test_interp_gcd_loop;
          Alcotest.test_case "arrays + sort" `Quick test_interp_arrays_sort;
          Alcotest.test_case "read exhaustion" `Quick test_interp_read_exhausted;
          Alcotest.test_case "switch dispatch" `Quick test_interp_switch_dispatch;
          Alcotest.test_case "break/continue" `Quick test_interp_break_continue;
          Alcotest.test_case "for loop" `Quick test_interp_for_loop;
          Alcotest.test_case "for continue runs step" `Quick
            test_interp_for_continue_runs_step;
          Alcotest.test_case "for break and nesting" `Quick
            test_interp_for_break_and_nesting;
          Alcotest.test_case "for loop shape" `Quick test_for_loop_shape;
          Alcotest.test_case "for header errors" `Quick test_for_header_errors;
          Alcotest.test_case "value-position logic" `Quick
            test_interp_value_position_logic;
          Alcotest.test_case "shifts and bits" `Quick test_interp_shifts_and_bits;
          Alcotest.test_case "runtime errors" `Quick test_interp_runtime_errors;
          Alcotest.test_case "error order" `Quick test_interp_error_order;
          Alcotest.test_case "workload counters" `Quick test_workload_counters;
          Alcotest.test_case "step limit" `Quick test_interp_step_limit;
          Alcotest.test_case "recursion depth limit" `Quick
            test_interp_recursion_depth_limit;
          Alcotest.test_case "deep legal recursion" `Quick
            test_interp_deep_but_legal_recursion;
          Alcotest.test_case "return value and counters" `Quick
            test_interp_return_value_and_counts;
        ] );
      ( "integration",
        [
          Alcotest.test_case "loop profile" `Quick test_profile_of_loop;
          Alcotest.test_case "call structure" `Quick test_trace_call_structure;
        ] );
    ]
