(* Tests for the experiment harness: runner invariants, the synthetic
   corpus, the appendix study and the table printers. *)

module W = Ba_workloads.Workload
module R = Ba_harness.Runner

(* run once, share across tests: the smallest benchmark keeps this fast *)
let row =
  lazy
    (let w = W.su2 in
     R.run_benchmark w ~test:(snd w.W.datasets))

let test_row_basic_invariants () =
  let r = Lazy.force row in
  Alcotest.(check string) "bench" "su2" r.R.bench;
  Alcotest.(check string) "ds" "sh" r.R.ds;
  Alcotest.(check string) "cross-trains on sibling" "re" r.R.train_ds;
  Alcotest.(check bool) "has blocks" true (r.R.n_blocks > 0);
  Alcotest.(check bool) "touched <= sites" true
    (r.R.branch_sites_touched <= r.R.branch_sites);
  Alcotest.(check bool) "executed branches positive" true (r.R.executed_branches > 0)

let test_row_penalty_ordering () =
  let r = Lazy.force row in
  (* tsp <= greedy <= original, and the bound is below everything *)
  Alcotest.(check bool) "tsp <= greedy" true
    (r.R.tsp_self.R.penalty <= r.R.greedy_self.R.penalty);
  Alcotest.(check bool) "greedy <= original" true
    (r.R.greedy_self.R.penalty <= r.R.original.R.penalty);
  Alcotest.(check bool) "bound <= tsp" true
    (r.R.lower_bound <= r.R.tsp_self.R.penalty);
  Alcotest.(check bool) "bound >= 0" true (r.R.lower_bound >= 0)

let test_row_cross_validation_sane () =
  let r = Lazy.force row in
  (* cross-trained results are well-defined and can't beat the
     self-trained TSP optimum on the same testing profile *)
  Alcotest.(check bool) "tsp self optimal for its own profile" true
    (r.R.tsp_self.R.penalty <= r.R.tsp_cross.R.penalty);
  Alcotest.(check bool) "cross penalties non-negative" true
    (r.R.greedy_cross.R.penalty >= 0 && r.R.tsp_cross.R.penalty >= 0)

let test_row_cycles_sane () =
  let r = Lazy.force row in
  Alcotest.(check bool) "cycles positive" true (r.R.original.R.cycles > 0);
  (* aligned programs never add penalty cycles on the training=testing
     input, and the cycle model is dominated by instruction count, so
     aligned cycles stay within the original's total *)
  Alcotest.(check bool) "tsp cycles <= original cycles" true
    (r.R.tsp_self.R.cycles <= r.R.original.R.cycles)

(* every one of the row's seven programs gets a certificate per
   procedure; the self-trained TSP ones check the solver's own claimed
   walk cost and the Held–Karp bound it fed *)
let test_row_certificates () =
  let r = Lazy.force row in
  Alcotest.(check int) "7 certificates per procedure" (7 * r.R.n_procs)
    r.R.certs;
  Alcotest.(check int) "no certificate fails" 0 r.R.cert_failures;
  Alcotest.(check bool) "bound <= tsp penalty" true
    (r.R.lower_bound <= r.R.tsp_self.R.penalty)

let test_row_timings_recorded () =
  let r = Lazy.force row in
  let s = r.R.stages in
  Alcotest.(check bool) "compile timed" true (s.Ba_harness.Timing.compile_s >= 0.0);
  Alcotest.(check bool) "profile timed" true (s.Ba_harness.Timing.profile_s > 0.0);
  Alcotest.(check bool) "matrix timed" true (s.Ba_harness.Timing.matrix_s > 0.0);
  Alcotest.(check bool) "solver timed" true (s.Ba_harness.Timing.solve_s > 0.0);
  Alcotest.(check bool) "bounds timed" true (s.Ba_harness.Timing.bounds_s > 0.0);
  Alcotest.(check int) "one self-trained solve per procedure" r.R.n_procs
    r.R.solve_dist.Ba_harness.Timing.n

(* Table 2 from a hand-built span array: only the self-trained pass's
   matrix/solve spans count, and greedy sums both of its phases *)
let test_timing_of_spans () =
  let module T = Ba_harness.Timing in
  let span id parent name dur_ns =
    { Ba_obs.Span.id; parent; task = 0; name; start_ns = 1_000L;
      stop_ns = Int64.add 1_000L (Int64.of_int dur_ns) }
  in
  let spans =
    [|
      span 0 (-1) "task" 0;
      span 1 0 "compile" 1_000;
      span 2 0 "profile" 2_000;
      span 3 0 "greedy" 3_000;
      span 4 0 "realize-greedy" 4_000;
      span 5 0 "tsp-self" 0;
      span 6 5 "matrix" 5_000;
      span 7 5 "solve" 30_000;
      span 8 5 "matrix" 6_000;
      span 9 5 "solve" 10_000;
      span 10 5 "solve" 20_000;
      span 11 0 "realize-tsp" 7_000;
      span 12 0 "tsp-cross" 0;
      span 13 12 "matrix" 900_000;
      span 14 12 "solve" 900_000;
      (* an aligner's own "solve" stage, outside the TSP passes *)
      span 15 0 "solve" 900_000;
      span 16 0 "bounds" 8_000;
    |]
  in
  let s, d = T.of_spans spans in
  let eq what = Alcotest.(check (float 1e-15)) what in
  eq "compile" 1e-6 s.T.compile_s;
  eq "profile" 2e-6 s.T.profile_s;
  eq "greedy = greedy + realize-greedy" 7e-6 s.T.greedy_s;
  eq "matrix: tsp-self only" 11e-6 s.T.matrix_s;
  eq "solve: tsp-self only" 60e-6 s.T.solve_s;
  eq "tsp program" 7e-6 s.T.tsp_program_s;
  eq "bounds" 8e-6 s.T.bounds_s;
  let want = T.dist_of [ 30e-6; 10e-6; 20e-6 ] in
  Alcotest.(check int) "solves" want.T.n d.T.n;
  eq "total" want.T.total_s d.T.total_s;
  eq "p50" want.T.p50_s d.T.p50_s;
  eq "p95" want.T.p95_s d.T.p95_s;
  eq "max" want.T.max_s d.T.max_s

(* The deterministic slice of the su2.sh row's [bench --json] document,
   pinned: both objectives of every aligner the bench prints, the gap
   to the bound and the certificate counts.  Wall-clock fields vary run
   to run and are left out. *)
let bench_json_golden =
  String.concat "\n"
    [
      "penalty_cycles=50993";
      "hk_gap=0.000000";
      "objectives={\"tsp\":{\"penalty\":50993,\"ext_tsp\":176926126},\
       \"calder\":{\"penalty\":51009,\"ext_tsp\":176787499},\
       \"greedy\":{\"penalty\":51455,\"ext_tsp\":176815668},\
       \"btfnt\":{\"penalty\":51455,\"ext_tsp\":176815668},\
       \"tsp_static\":{\"penalty\":401131,\"ext_tsp\":116364031},\
       \"greedy_static\":{\"penalty\":509191,\"ext_tsp\":76223934}}";
      "certs=7";
      "cert_failures=0";
    ]

let test_bench_json_row () =
  let module Json = Ba_obs.Json in
  let outcome =
    { Ba_engine.Task.id = 0; label = "su2.sh"; value = Lazy.force row;
      elapsed_s = 0.; spans = [||] }
  in
  let doc =
    Ba_harness.Bench_json.make ~commit:"c" ~date:"d" ~jobs:1 [ outcome ]
  in
  let r =
    match Option.bind (Json.member "rows" doc) Json.to_list with
    | Some [ r ] -> r
    | _ -> Alcotest.fail "expected one row"
  in
  let field k =
    match Json.member k r with
    | Some v -> k ^ "=" ^ Json.to_string v
    | None -> Alcotest.failf "row has no %s" k
  in
  Alcotest.(check string) "deterministic fields" bench_json_golden
    (String.concat "\n"
       (List.map field
          [ "penalty_cycles"; "hk_gap"; "objectives"; "certs";
            "cert_failures" ]))

(* ---------------- synthetic corpus ---------------- *)

(* one procedure through the driver's validation front door *)
let gate_proc g prof =
  Ba_check.Lint.gate
    ~profile:{ Ba_profile.Profile.procs = [| prof |]; calls = [] }
    [| g |]
  |> Result.map_error Ba_robust.Errors.to_string

let test_synthetic_instances_valid () =
  let corpus = Ba_harness.Synthetic.corpus ~sizes:[ 5; 9; 14 ] ~per_size:3 () in
  Alcotest.(check int) "corpus size" 9 (List.length corpus);
  List.iter
    (fun { Ba_harness.Synthetic.name; g; prof } ->
      (match Ba_cfg.Cfg.validate g with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: %s" name m);
      match gate_proc g prof with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s profile: %s" name m)
    corpus

let test_synthetic_deterministic () =
  let c1 = Ba_harness.Synthetic.corpus ~seed:5 ~sizes:[ 8 ] ~per_size:2 () in
  let c2 = Ba_harness.Synthetic.corpus ~seed:5 ~sizes:[ 8 ] ~per_size:2 () in
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "same cfg" true
        (Array.for_all2 Ba_cfg.Block.equal a.Ba_harness.Synthetic.g.Ba_cfg.Cfg.blocks
           b.Ba_harness.Synthetic.g.Ba_cfg.Cfg.blocks))
    c1 c2

let test_workload_instances () =
  let insts = Ba_harness.Synthetic.workload_instances () in
  (* at least one instance per benchmark *)
  Alcotest.(check bool) "enough instances" true (List.length insts >= 6);
  List.iter
    (fun { Ba_harness.Synthetic.name; g; prof } ->
      match gate_proc g prof with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: %s" name m)
    insts

(* ---------------- appendix study ---------------- *)

let test_appendix_study () =
  let corpus = Ba_harness.Synthetic.corpus ~sizes:[ 6; 9; 12 ] ~per_size:2 () in
  let s = Ba_harness.Appendix.study corpus in
  Alcotest.(check int) "all instances analyzed" 6
    (List.length s.Ba_harness.Appendix.instances);
  Alcotest.(check bool) "all proven (small sizes)" true
    (s.Ba_harness.Appendix.n_proven = 6);
  List.iter
    (fun (r : Ba_harness.Appendix.per_instance) ->
      Alcotest.(check bool) (r.Ba_harness.Appendix.name ^ " ap <= tour") true
        (r.Ba_harness.Appendix.ap <= r.Ba_harness.Appendix.tour_cost);
      Alcotest.(check bool) (r.Ba_harness.Appendix.name ^ " hk <= tour") true
        (r.Ba_harness.Appendix.hk <= r.Ba_harness.Appendix.tour_cost);
      match r.Ba_harness.Appendix.opt with
      | Some o ->
          Alcotest.(check int)
            (r.Ba_harness.Appendix.name ^ " tour = optimum")
            o r.Ba_harness.Appendix.tour_cost
      | None -> ())
    s.Ba_harness.Appendix.instances

(* ---------------- extension experiments ---------------- *)

let test_dyn_exp_row () =
  let r = Ba_harness.Dyn_exp.run_one (Lazy.force row) in
  let o_s, g_s, t_s = r.Ba_harness.Dyn_exp.static_ in
  let o_d, g_d, t_d =
    r.Ba_harness.Dyn_exp.default_bht.Ba_harness.Dyn_exp.penalties
  in
  Alcotest.(check bool) "static ordering" true (t_s <= g_s && g_s <= o_s);
  Alcotest.(check bool) "dynamic penalties positive" true
    (o_d > 0 && g_d > 0 && t_d > 0);
  (* the hardware-predicted penalties of aligned layouts stay below the
     original layout's *)
  Alcotest.(check bool) "aligned better under hardware too" true
    (g_d < o_d && t_d < o_d)

let test_btfnt_exp_row () =
  let r = Ba_harness.Btfnt_exp.run_one (Lazy.force row) in
  let open Ba_harness.Btfnt_exp in
  Alcotest.(check bool) "original pays penalties" true (r.original > 0);
  (* straightening hot fall-throughs helps under BTFNT as well, even
     though neither aligner models direction-based prediction *)
  Alcotest.(check bool) "aligned better under BTFNT" true
    (r.greedy < r.original && r.tsp < r.original)

let test_interproc_experiment () =
  let r = Ba_harness.Interproc.run ~n_funcs:10 ~iterations:1_500 () in
  Alcotest.(check int) "procedures" 12 r.Ba_harness.Interproc.n_funcs;
  (* 10 workers + pick + main *)
  Alcotest.(check bool) "calls recorded" true (r.Ba_harness.Interproc.calls > 0);
  match r.Ba_harness.Interproc.placements with
  | [ decl; ph; byw; spread ] ->
      Alcotest.(check bool) "all simulated" true
        (decl.Ba_harness.Interproc.cycles > 0
        && ph.Ba_harness.Interproc.cycles > 0
        && byw.Ba_harness.Interproc.cycles > 0
        && spread.Ba_harness.Interproc.cycles > 0);
      (* call-graph-aware placement must not lose to the adversarial one *)
      Alcotest.(check bool) "ph <= spread misses" true
        (ph.Ba_harness.Interproc.icache_misses
        <= spread.Ba_harness.Interproc.icache_misses)
  | _ -> Alcotest.fail "expected four placements"

let test_csv_rendering () =
  let r = Lazy.force row in
  let lines = Ba_harness.Csv.rows_csv [ r ] in
  Alcotest.(check int) "header + one row" 2 (List.length lines);
  let cols s = List.length (String.split_on_char ',' s) in
  Alcotest.(check int) "row width matches header"
    (cols (List.nth lines 0))
    (cols (List.nth lines 1));
  Alcotest.(check bool) "names first" true
    (String.length (List.nth lines 1) > 6
    && String.sub (List.nth lines 1) 0 4 = "su2,")

(* ---------------- table printers ---------------- *)

let render f =
  let buf = Buffer.create 1024 in
  let ppf = Fmt.with_buffer buf in
  f ppf;
  Fmt.flush ppf ();
  Buffer.contents buf

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_table_printers () =
  let r = Lazy.force row in
  let rows = [ r ] in
  let t1 = render (fun ppf -> Ba_harness.Tables.table1 ppf rows) in
  Alcotest.(check bool) "table1 lists su2" true (contains ~sub:"su2" t1);
  let t3 =
    render (fun ppf -> Ba_harness.Tables.table3 ppf Ba_machine.Penalties.alpha_21164)
  in
  Alcotest.(check bool) "table3 has mispredict row" true
    (contains ~sub:"mispredict" t3);
  let t4 = render (fun ppf -> Ba_harness.Tables.table4 ppf rows) in
  Alcotest.(check bool) "table4 header" true (contains ~sub:"lower-bound" t4);
  let f2 = render (fun ppf -> Ba_harness.Tables.fig2_penalties ppf rows) in
  Alcotest.(check bool) "fig2 normalized" true (contains ~sub:"MEAN" f2);
  let f3 = render (fun ppf -> Ba_harness.Tables.fig3_times ppf rows) in
  Alcotest.(check bool) "fig3 cross column" true (contains ~sub:"tsp-cross" f3);
  let sum = render (fun ppf -> Ba_harness.Tables.summary ppf rows) in
  Alcotest.(check bool) "summary mentions bound" true (contains ~sub:"bound" sum)

let () =
  Alcotest.run "ba_harness"
    [
      ( "runner",
        [
          Alcotest.test_case "basic invariants" `Slow test_row_basic_invariants;
          Alcotest.test_case "penalty ordering" `Slow test_row_penalty_ordering;
          Alcotest.test_case "cross-validation sane" `Slow
            test_row_cross_validation_sane;
          Alcotest.test_case "cycles sane" `Slow test_row_cycles_sane;
          Alcotest.test_case "certificates" `Slow test_row_certificates;
          Alcotest.test_case "timings recorded" `Slow test_row_timings_recorded;
          Alcotest.test_case "bench json row" `Slow test_bench_json_row;
          Alcotest.test_case "timing from spans" `Quick test_timing_of_spans;
        ] );
      ( "synthetic",
        [
          Alcotest.test_case "instances valid" `Quick test_synthetic_instances_valid;
          Alcotest.test_case "deterministic" `Quick test_synthetic_deterministic;
          Alcotest.test_case "workload instances" `Slow test_workload_instances;
        ] );
      ("appendix", [ Alcotest.test_case "study" `Slow test_appendix_study ]);
      ( "extensions",
        [
          Alcotest.test_case "dynamic-prediction row" `Slow test_dyn_exp_row;
          Alcotest.test_case "btfnt row" `Slow test_btfnt_exp_row;
          Alcotest.test_case "interprocedural experiment" `Slow
            test_interproc_experiment;
          Alcotest.test_case "csv rendering" `Slow test_csv_rendering;
        ] );
      ("tables", [ Alcotest.test_case "printers" `Slow test_table_printers ]);
    ]
