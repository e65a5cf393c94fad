(* Tests for the benchmark workloads: compilation, golden outputs
   (everything is seeded and deterministic), VM assembler behaviour and
   known ground truths (queens counts, integer square roots). *)

module W = Ba_workloads.Workload

let run_workload w ds =
  let c = W.compile w in
  Ba_minic.Compile.run c ~input:ds.W.input ~sink:Ba_cfg.Trace.null

let output w ds = (run_workload w ds).Ba_minic.Interp.output

let ds_of w name =
  List.find (fun d -> d.W.ds_name = name) (W.dataset_list w)

(* ---------------- compilation ---------------- *)

let test_all_compile () =
  List.iter
    (fun w ->
      let c = W.compile w in
      Alcotest.(check bool)
        (w.W.name ^ " has functions")
        true
        (Array.length c.Ba_minic.Compile.cfgs > 0);
      (* every CFG is fully reachable and structurally valid *)
      Array.iter
        (fun g ->
          match Ba_cfg.Cfg.validate g with
          | Ok () -> ()
          | Error m -> Alcotest.failf "%s: %s" w.W.name m)
        c.Ba_minic.Compile.cfgs)
    W.all

let test_registry () =
  Alcotest.(check int) "six benchmarks" 6 (List.length W.all);
  Alcotest.(check bool) "find com" true (W.find "com" <> None);
  Alcotest.(check bool) "find nothing" true (W.find "zzz" = None);
  let w = W.com in
  let a, b = w.W.datasets in
  Alcotest.(check string) "sibling of in" b.W.ds_name (W.sibling w a).W.ds_name;
  Alcotest.(check string) "sibling of st" a.W.ds_name (W.sibling w b).W.ds_name

(* ---------------- golden outputs (deterministic LCG inputs) -------- *)

let golden =
  [
    ("com", "in", [ 13740; 2472; 67729 ]);
    ("com", "st", [ 22677; 3727; 246032 ]);
    ("dod", "re", [ 696898; 65536 ]);
    ("dod", "sm", [ 552367; 736143 ]);
    ("eqn", "fx", [ 1800; 349396 ]);
    ("eqn", "ip", [ 742; 1045036 ]);
    ("esp", "ti", [ 2; 368; 969971; 14 ]);
    ("esp", "tl", [ 2; 259; 962969; 12 ]);
    ("su2", "re", [ -564; 552 ]);
    ("su2", "sh", [ 246; 236 ]);
  ]

let test_golden_outputs () =
  List.iter
    (fun (bench, ds_name, want) ->
      let w = Option.get (W.find bench) in
      let ds = ds_of w ds_name in
      Alcotest.(check (list int))
        (Printf.sprintf "%s.%s output" bench ds_name)
        want (output w ds))
    golden

let test_outputs_differ_across_datasets () =
  (* the two data sets of each benchmark must genuinely exercise the
     program differently *)
  List.iter
    (fun w ->
      let a, b = w.W.datasets in
      Alcotest.(check bool)
        (w.W.name ^ " datasets distinguishable")
        true
        (output w a <> output w b))
    W.all

let test_runs_are_reasonably_sized () =
  List.iter
    (fun w ->
      List.iter
        (fun ds ->
          let r = run_workload w ds in
          let n = r.Ba_minic.Interp.blocks_executed in
          Alcotest.(check bool)
            (Printf.sprintf "%s.%s executes %d blocks" w.W.name ds.W.ds_name n)
            true
            (n > 1_000 && n < 20_000_000))
        (W.dataset_list w))
    W.all

let test_ne_is_much_shorter_than_q7 () =
  (* the paper's xli.ne pathology: a very short training run *)
  let w = W.xli in
  let ne = (run_workload w (ds_of w "ne")).Ba_minic.Interp.blocks_executed in
  let q7 = (run_workload w (ds_of w "q7")).Ba_minic.Interp.blocks_executed in
  Alcotest.(check bool)
    (Printf.sprintf "ne=%d much shorter than q7=%d" ne q7)
    true
    (ne * 50 < q7)

(* ---------------- ground truths ---------------- *)

let test_newton_square_roots () =
  let w = W.xli in
  match output w (ds_of w "ne") with
  | a :: b :: c :: _ ->
      Alcotest.(check int) "isqrt 1234567" 1111 a;
      Alcotest.(check int) "isqrt 99980001" 9999 b;
      Alcotest.(check int) "isqrt 42" 6 c
  | out -> Alcotest.failf "unexpected output length %d" (List.length out)

let queens_count n =
  let w = W.xli in
  let input =
    Ba_workloads.Vm_asm.dataset ~n_globals:20 (Ba_workloads.Vm_asm.queens_program ~n)
  in
  let c = W.compile w in
  match (Ba_minic.Compile.run c ~input ~sink:Ba_cfg.Trace.null).Ba_minic.Interp.output with
  | count :: _ -> count
  | [] -> Alcotest.fail "no output"

let test_queens_counts () =
  (* OEIS A000170 *)
  Alcotest.(check int) "4-queens" 2 (queens_count 4);
  Alcotest.(check int) "5-queens" 10 (queens_count 5);
  Alcotest.(check int) "6-queens" 4 (queens_count 6);
  Alcotest.(check int) "7-queens" 40 (queens_count 7);
  Alcotest.(check int) "8-queens" 92 (queens_count 8)

(* ---------------- VM assembler ---------------- *)

let test_asm_label_resolution () =
  let open Ba_workloads.Vm_asm in
  let code = assemble [ Push 1; Jnz "end"; Push 99; Print; Label "end"; Halt ] in
  (* words: PUSH(0,1) JNZ(2,3) PUSH(4,5) PRINT(6) [end] HALT(7) *)
  Alcotest.(check (array int)) "encoding" [| 1; 1; 17; 7; 1; 99; 21; 0 |] code

let test_asm_duplicate_label () =
  let open Ba_workloads.Vm_asm in
  Alcotest.check_raises "duplicate" (Error "duplicate label x") (fun () ->
      ignore (assemble [ Label "x"; Label "x"; Halt ]))

let test_asm_undefined_label () =
  let open Ba_workloads.Vm_asm in
  Alcotest.check_raises "undefined" (Error "undefined label nowhere") (fun () ->
      ignore (assemble [ Jmp "nowhere"; Halt ]))

let test_vm_arith_program () =
  (* compute (3+4)*5 % 6 on the VM: 35 mod 6 = 5 *)
  let open Ba_workloads.Vm_asm in
  let code =
    assemble [ Push 3; Push 4; Add; Push 5; Mul; Push 6; Mod; Print; Halt ]
  in
  let c = W.compile W.xli in
  let input = dataset ~n_globals:1 code in
  match (Ba_minic.Compile.run c ~input ~sink:Ba_cfg.Trace.null).Ba_minic.Interp.output with
  | v :: _ -> Alcotest.(check int) "vm arithmetic" 5 v
  | [] -> Alcotest.fail "no output"

let test_vm_stack_ops () =
  let open Ba_workloads.Vm_asm in
  (* DUP/SWAP/POP/NEG: push 7, dup -> 7 7, push 3, swap -> 7 3 7?, ...
     keep it simple: 7 dup add = 14; 5 neg = -5 *)
  let code = assemble [ Push 7; Dup; Add; Print; Push 5; Neg; Print;
                        Push 1; Push 2; Swap; Pop; Print; Halt ] in
  let c = W.compile W.xli in
  let input = dataset ~n_globals:1 code in
  match (Ba_minic.Compile.run c ~input ~sink:Ba_cfg.Trace.null).Ba_minic.Interp.output with
  | a :: b :: c' :: _ ->
      Alcotest.(check int) "dup+add" 14 a;
      Alcotest.(check int) "neg" (-5) b;
      Alcotest.(check int) "swap+pop keeps 2" 2 c'
  | _ -> Alcotest.fail "bad output"

(* ---------------- SPEC95 extension suite ---------------- *)

module W95 = Ba_workloads.Workload95

let test_spec95_compile () =
  List.iter
    (fun w ->
      let c = W.compile w in
      Array.iter
        (fun g ->
          match Ba_cfg.Cfg.validate g with
          | Ok () -> ()
          | Error m -> Alcotest.failf "%s: %s" w.W.name m)
        c.Ba_minic.Compile.cfgs)
    W95.all;
  Alcotest.(check int) "five benchmarks" 5 (List.length W95.all);
  Alcotest.(check int) "combined suite" 11 (List.length W95.everything)

let golden95 =
  [
    ("m88", "srt", [ 152728; 19991; 0 ]);
    ("m88", "clz", [ 14167; 105945; 0 ]);
    ("ijp", "sm", [ 277; 397; 625971 ]);
    ("ijp", "nz", [ 2465; 2466; 55856 ]);
    ("prl", "hi", [ 141; 6919; 12634; 777514 ]);
    ("prl", "lo", [ 0; 6969; 12668; 0 ]);
    ("vor", "rd", [ 12755; 7252; 4; 2136; 425576 ]);
    ("vor", "wr", [ 4816; 12475; 4; 1822; 835594 ]);
    ("go", "a", [ 223; 142; 3777; 561331 ]);
    ("go", "b", [ 407; 326; 3593; 890748 ]);
  ]

let ds95 w name = List.find (fun d -> d.W.ds_name = name) (W.dataset_list w)

let test_spec95_golden () =
  List.iter
    (fun (bench, ds_name, want) ->
      let w = Option.get (W95.find bench) in
      Alcotest.(check (list int))
        (Printf.sprintf "%s.%s output" bench ds_name)
        want
        (output w (ds95 w ds_name)))
    golden95

let test_spec95_semantics () =
  (* cross-domain sanity: noisy images have denser spectra than smooth
     ones; planted patterns are found; zero faults in the guest code *)
  let first w ds = List.hd (output w (ds95 w ds)) in
  Alcotest.(check bool) "noisy spectra denser" true
    (first W95.ijp "nz" > 5 * first W95.ijp "sm");
  Alcotest.(check bool) "planted pattern found" true (first W95.prl "hi" > 50);
  Alcotest.(check int) "no false matches" 0 (first W95.prl "lo");
  let m88_faults w ds =
    match output w (ds95 w ds) with [ _; _; f ] -> f | _ -> -1
  in
  Alcotest.(check int) "sort guest fault-free" 0 (m88_faults W95.m88 "srt");
  Alcotest.(check int) "collatz guest fault-free" 0 (m88_faults W95.m88 "clz")

let test_risc_asm_errors () =
  let open Ba_workloads.Risc_asm in
  Alcotest.check_raises "duplicate label" (Error "duplicate label l") (fun () ->
      ignore (assemble [ Label "l"; Label "l"; Halt ]));
  Alcotest.check_raises "undefined label" (Error "undefined label x") (fun () ->
      ignore (assemble [ Jmp "x" ]))

let test_risc_guest_sorts () =
  (* independent check of the bubble-sort guest: the checksum equals
     sum i·sorted[i] of the initial memory image *)
  let init = List.init 64 (fun i -> (i, (i * 37 mod 101) + ((i * i) mod 17))) in
  let sorted = List.map snd init |> List.sort compare |> Array.of_list in
  let expect = Array.to_list (Array.mapi (fun i v -> i * v) sorted)
               |> List.fold_left ( + ) 0 in
  let w = W95.m88 in
  match output w (ds95 w "srt") with
  | checksum :: _ -> Alcotest.(check int) "guest sorted correctly" expect checksum
  | [] -> Alcotest.fail "no output"

(* ---------------- application workloads ---------------- *)

module Apps = Ba_workloads.Workload_apps

let test_exc_differential () =
  (* the minic expression compiler must agree exactly with the OCaml
     reference evaluator on both generated data sets *)
  let w = Apps.exc in
  let deep_ref, flat_ref = Apps.exc_reference_outputs in
  let c = W.compile w in
  List.iter2
    (fun ds expected ->
      let r =
        Ba_minic.Compile.run c ~input:ds.W.input ~sink:Ba_cfg.Trace.null
      in
      Alcotest.(check (list int))
        (Printf.sprintf "exc.%s matches reference" ds.W.ds_name)
        expected r.Ba_minic.Interp.output;
      (* no parse errors on well-formed streams *)
      match r.Ba_minic.Interp.output with
      | [ _; _; errors ] -> Alcotest.(check int) "no parse errors" 0 errors
      | _ -> Alcotest.fail "unexpected output arity")
    (W.dataset_list w) [ deep_ref; flat_ref ]

let test_exc_fresh_seeds_differential () =
  (* regenerate with fresh seeds at test time: the differential property
     must hold for any seed, not just the pinned data sets *)
  let c = W.compile Apps.exc in
  List.iter
    (fun seed ->
      let input, expected = Ba_workloads.Src_exc.dataset ~n_exprs:60 ~depth:6 ~seed in
      let r = Ba_minic.Compile.run c ~input ~sink:Ba_cfg.Trace.null in
      Alcotest.(check (list int))
        (Printf.sprintf "seed %d" seed)
        expected r.Ba_minic.Interp.output)
    [ 7; 19; 1234; 987654 ]

let test_exc_has_many_procedures () =
  let c = W.compile Apps.exc in
  Alcotest.(check int) "nine procedures" 9 (Array.length c.Ba_minic.Compile.cfgs);
  (* recursion means the call graph profile is rich *)
  let ds = fst Apps.exc.W.datasets in
  let prof = Ba_minic.Compile.profile c ~input:ds.W.input in
  Alcotest.(check bool) "thousands of calls" true
    (Ba_profile.Profile.total_calls prof > 1000)

(* ---------------- whole-program-scale synthetic CFGs ---------------- *)

module Scale = Ba_workloads.Scale
module Cfg = Ba_cfg.Cfg

let scale_sizes = [ 8; 9; 40; 68; 200; 1000 ]

let scale_cases f =
  List.iter
    (fun fam -> List.iter (fun n -> f fam n) scale_sizes)
    Scale.all

let test_scale_counts_and_validity () =
  scale_cases (fun fam n ->
      let what = Printf.sprintf "%s n=%d" (Scale.name fam) n in
      let g, p = Scale.instance fam ~n ~invocations:512 in
      Alcotest.(check int) (what ^ ": blocks") n (Cfg.n_blocks g);
      Alcotest.(check int)
        (what ^ ": edges")
        (Scale.expected_edges fam ~n)
        (Cfg.n_edges g);
      (* strict: every block reachable from the entry *)
      (match Cfg.validate ~strict:true g with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: %s" what m);
      match
        Ba_check.Lint.gate
          ~profile:{ Ba_profile.Profile.procs = [| p |]; calls = [] }
          [| g |]
      with
      | Ok () -> ()
      | Error e ->
          Alcotest.failf "%s lint: %s" what (Ba_robust.Errors.to_string e))

let test_scale_edge_formulas () =
  (* closed forms re-derived by hand, independent of expected_edges:
     loop-nest = n + depth − 1; interp = n + arms − 1; switch counts
     head fan-out + arm fall-throughs *)
  let independent =
    [
      (Scale.Loop_nest, 8, 8 + 2 - 1);
      (Scale.Loop_nest, 40, 40 + 16 - 1);
      (Scale.Interp, 40, 40 + ((40 - 3) / 4) - 1);
      (Scale.Interp, 1000, 1000 + ((1000 - 3) / 4) - 1);
      (* n=40: one 64-arm table holds all 37 middle arms *)
      (Scale.Switch, 40, 1 + (2 * 37));
      (* n=68: a full 64-arm section plus an armless head → exit *)
      (Scale.Switch, 68, 1 + (2 * 64) + 1);
    ]
  in
  List.iter
    (fun (fam, n, want) ->
      Alcotest.(check int)
        (Printf.sprintf "%s n=%d edges" (Scale.name fam) n)
        want
        (Cfg.n_edges (Scale.cfg fam ~n)))
    independent

let test_scale_deterministic () =
  scale_cases (fun fam n ->
      let what = Printf.sprintf "%s n=%d" (Scale.name fam) n in
      let g1, p1 = Scale.instance fam ~n ~invocations:512 in
      let g2, p2 = Scale.instance fam ~n ~invocations:512 in
      Alcotest.(check int64)
        (what ^ ": structural hash stable")
        (Cfg.structural_hash g1) (Cfg.structural_hash g2);
      Alcotest.(check bool) (what ^ ": profile stable") true (p1 = p2));
  (* the three families at one size are structurally distinct *)
  let hashes =
    List.map (fun fam -> Cfg.structural_hash (Scale.cfg fam ~n:200)) Scale.all
  in
  Alcotest.(check int) "family hashes distinct" 3
    (List.length (List.sort_uniq compare hashes))

let test_scale_shapes () =
  (* the families deliver what their names promise *)
  let count pred g = Cfg.fold (fun acc b -> if pred b then acc + 1 else acc) 0 g in
  let g = Scale.cfg Loop_nest ~n:200 in
  Alcotest.(check int) "loop-nest: 16 conditionals" 16
    (count Ba_cfg.Block.is_conditional g);
  let g = Scale.cfg Interp ~n:200 in
  Alcotest.(check int) "interp: one dispatch" 1
    (count Ba_cfg.Block.is_multiway g);
  (match (Cfg.block g 1).Ba_cfg.Block.term with
  | Ba_cfg.Block.Multiway arms ->
      Alcotest.(check int) "interp: dispatch width" (((200 - 3) / 4) + 1)
        (Array.length arms)
  | _ -> Alcotest.fail "interp block 1 is not a dispatch");
  (* heads sit every switch_width+1 blocks: ⌈(200−2)/65⌉ = 4 tables *)
  let g = Scale.cfg Switch ~n:200 in
  Alcotest.(check int) "switch: four tables" 4
    (count Ba_cfg.Block.is_multiway g)

let test_scale_rejects_bad_parameters () =
  Alcotest.check_raises "tiny n"
    (Invalid_argument "Scale.interp: n = 4 below minimum 8") (fun () ->
      ignore (Scale.cfg Scale.Interp ~n:4));
  Alcotest.check_raises "zero invocations"
    (Invalid_argument "Scale.instance: invocations < 1") (fun () ->
      ignore (Scale.instance Scale.Switch ~n:40 ~invocations:0))

let test_scale_certify_smoke () =
  (* end-to-end at a size where the full pipeline is instant: reduce,
     solve, extract the layout, certify independently *)
  let model = Ba_machine.Model.alpha21164 in
  List.iter
    (fun fam ->
      let what = Scale.name fam in
      let g, p = Scale.instance fam ~n:60 ~invocations:256 in
      let inst = Ba_align.Reduction.build model g ~profile:p in
      let config = { Ba_tsp.Iterated.default with runs = 2; max_kicks = 40 } in
      let tour, stats = Ba_tsp.Iterated.solve ~config inst.Ba_align.Reduction.dtsp in
      let order = Ba_align.Reduction.order_of_tour inst tour in
      match
        Ba_check.Certify.proc_cert ~proc:0 model g ~profile:p ~order
          ~claimed:(Ba_align.Reduction.layout_cost inst order)
      with
      | Ok cert ->
          Alcotest.(check int) (what ^ ": certified blocks") 60
            cert.Ba_check.Certify.n_blocks;
          Alcotest.(check bool) (what ^ ": sym round-trip ran") true
            cert.Ba_check.Certify.sym_checked;
          Alcotest.(check bool) (what ^ ": solver found a tour") true
            (stats.Ba_tsp.Iterated.best_cost = cert.Ba_check.Certify.cost)
      | Error e ->
          Alcotest.failf "%s: %s" what (Ba_check.Certify.error_to_string e))
    Scale.all

let test_certify_sparse_instance_equivalence () =
  (* the sparse certifier instance must be the same logical matrix as
     the dense independent build — and give the same Held–Karp bound —
     on scale instances, random CFGs and every procedure of the bundled
     programs, under both objectives *)
  let models = [ Ba_machine.Model.alpha21164; Ba_machine.Model.ext_tsp () ] in
  let hk = { Ba_tsp.Held_karp.default with iterations = 200 } in
  let check model what g p =
    let what = Ba_machine.Model.to_string model ^ " " ^ what in
    let dd, dummy_d = Ba_check.Certify.dtsp_of model g ~profile:p in
    let ds, dummy_s = Ba_check.Certify.dtsp_of_sparse model g ~profile:p in
    Alcotest.(check int) (what ^ ": dummy") dummy_d dummy_s;
    let n = dd.Ba_tsp.Dtsp.n in
    Alcotest.(check int) (what ^ ": n") n ds.Ba_tsp.Dtsp.n;
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if Ba_tsp.Dtsp.cost dd i j <> Ba_tsp.Dtsp.cost ds i j then
          Alcotest.failf "%s: cost(%d,%d) dense %d sparse %d" what i j
            (Ba_tsp.Dtsp.cost dd i j) (Ba_tsp.Dtsp.cost ds i j)
      done
    done;
    Alcotest.(check int) (what ^ ": max_cost") (Ba_tsp.Dtsp.max_cost dd)
      (Ba_tsp.Dtsp.max_cost ds);
    (* the identity walk is a valid tour: its cost bounds the ascent,
       which is cut short — both instances must walk the same one *)
    let upper = Ba_tsp.Dtsp.tour_cost dd (Array.init n Fun.id) in
    let bound d =
      Ba_tsp.Held_karp.directed_bound ~config:hk d ~upper_bound:upper
    in
    Alcotest.(check int) (what ^ ": Held-Karp bound") (bound dd) (bound ds)
  in
  List.iter
    (fun model ->
      List.iter
        (fun fam ->
          let g, p = Scale.instance fam ~n:40 ~invocations:256 in
          check model (Scale.name fam) g p)
        Scale.all;
      List.iter
        (fun seed ->
          let rng = Random.State.make [| seed |] in
          let n = 2 + Random.State.int rng 24 in
          let g = Ba_testutil.Gen.cfg rng ~n in
          let prof =
            Ba_testutil.Gen.profile_of ~seed:(seed + 1) g ~invocations:20
              ~max_steps:100
          in
          check model
            (Printf.sprintf "random cfg seed=%d" seed)
            g
            (Ba_profile.Profile.proc prof 0))
        [ 3; 17; 99; 1234 ])
    models;
  List.iter
    (fun w ->
      let c = W.compile w in
      List.iter
        (fun (ds : W.dataset) ->
          let prof = Ba_minic.Compile.profile c ~input:ds.W.input in
          Array.iteri
            (fun fid g ->
              List.iter
                (fun model ->
                  check model
                    (Printf.sprintf "%s.%s/%s" w.W.name ds.W.ds_name
                       g.Ba_cfg.Cfg.name)
                    g
                    (Ba_profile.Profile.proc prof fid))
                models)
            c.Ba_minic.Compile.cfgs)
        (W.dataset_list w))
    Ba_workloads.Workload_apps.everything

(* ---------------- table 1 statistics ---------------- *)

let test_profiles_touch_sites () =
  List.iter
    (fun w ->
      let c = W.compile w in
      List.iter
        (fun ds ->
          let prof = Ba_minic.Compile.profile c ~input:ds.W.input in
          let touched = ref 0 and executed = ref 0 in
          Array.iteri
            (fun fid g ->
              let p = Ba_profile.Profile.proc prof fid in
              (match
                 Ba_check.Lint.gate
                   ~profile:{ Ba_profile.Profile.procs = [| p |]; calls = [] }
                   [| g |]
               with
              | Ok () -> ()
              | Error e ->
                  Alcotest.failf "%s: %s" w.W.name
                    (Ba_robust.Errors.to_string e));
              touched := !touched + Ba_profile.Profile.branch_sites_touched g p;
              executed := !executed + Ba_profile.Profile.executed_branches g p)
            c.Ba_minic.Compile.cfgs;
          Alcotest.(check bool)
            (Printf.sprintf "%s.%s touches sites" w.W.name ds.W.ds_name)
            true (!touched > 5);
          Alcotest.(check bool)
            (Printf.sprintf "%s.%s executes branches" w.W.name ds.W.ds_name)
            true
            (!executed > 1000))
        (W.dataset_list w))
    W.all

let () =
  Alcotest.run "ba_workloads"
    [
      ( "registry",
        [
          Alcotest.test_case "all compile" `Quick test_all_compile;
          Alcotest.test_case "registry" `Quick test_registry;
        ] );
      ( "golden",
        [
          Alcotest.test_case "golden outputs" `Quick test_golden_outputs;
          Alcotest.test_case "datasets differ" `Quick test_outputs_differ_across_datasets;
          Alcotest.test_case "run sizes" `Quick test_runs_are_reasonably_sized;
          Alcotest.test_case "ne much shorter than q7" `Quick
            test_ne_is_much_shorter_than_q7;
        ] );
      ( "ground-truth",
        [
          Alcotest.test_case "newton square roots" `Quick test_newton_square_roots;
          Alcotest.test_case "queens counts" `Slow test_queens_counts;
        ] );
      ( "vm",
        [
          Alcotest.test_case "label resolution" `Quick test_asm_label_resolution;
          Alcotest.test_case "duplicate label" `Quick test_asm_duplicate_label;
          Alcotest.test_case "undefined label" `Quick test_asm_undefined_label;
          Alcotest.test_case "arithmetic" `Quick test_vm_arith_program;
          Alcotest.test_case "stack ops" `Quick test_vm_stack_ops;
        ] );
      ( "spec95",
        [
          Alcotest.test_case "all compile" `Quick test_spec95_compile;
          Alcotest.test_case "golden outputs" `Quick test_spec95_golden;
          Alcotest.test_case "semantics" `Quick test_spec95_semantics;
          Alcotest.test_case "risc asm errors" `Quick test_risc_asm_errors;
          Alcotest.test_case "risc guest sorts" `Quick test_risc_guest_sorts;
        ] );
      ( "apps",
        [
          Alcotest.test_case "exc differential" `Quick test_exc_differential;
          Alcotest.test_case "exc fresh-seed differential" `Quick
            test_exc_fresh_seeds_differential;
          Alcotest.test_case "exc procedure structure" `Quick
            test_exc_has_many_procedures;
        ] );
      ( "scale",
        [
          Alcotest.test_case "counts and validity" `Quick
            test_scale_counts_and_validity;
          Alcotest.test_case "independent edge formulas" `Quick
            test_scale_edge_formulas;
          Alcotest.test_case "deterministic" `Quick test_scale_deterministic;
          Alcotest.test_case "family shapes" `Quick test_scale_shapes;
          Alcotest.test_case "parameter validation" `Quick
            test_scale_rejects_bad_parameters;
          Alcotest.test_case "certify smoke" `Quick test_scale_certify_smoke;
          Alcotest.test_case "sparse certifier instance = dense" `Quick
            test_certify_sparse_instance_equivalence;
        ] );
      ( "profiles",
        [ Alcotest.test_case "touch sites" `Quick test_profiles_touch_sites ] );
    ]
