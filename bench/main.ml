(* Benchmark harness: regenerates every table and figure of the paper
   (Tables 1-4, Figures 2-3, the appendix statistics and a headline
   summary) and the extension studies.

   Usage:
     dune exec bench/main.exe                       # everything
     dune exec bench/main.exe -- table1 fig2        # selected sections
     dune exec bench/main.exe -- --jobs 4 summary   # 4-domain pool
     dune exec bench/main.exe -- --jobs max csv     # recommended_domain_count
   Sections: table1 table2 table3 table4 fig2 fig3 appendix summary
             spec95 dynamic procorder btfnt replication ablation csv
   An unknown section name exits 2 and lists the known ones.

   Tables and CSV measurements go to stdout / results/ and are
   bit-identical at any --jobs value; progress and wall-clock chatter
   (inherently run-dependent) go to stderr. *)

module Executor = Ba_engine.Executor

let jobs, sections =
  let jobs_of s =
    if s = "max" then Executor.default_jobs ()
    else
      match int_of_string_opt s with
      | Some n when n >= 1 -> n
      | _ ->
          Fmt.epr "bench: bad --jobs value %S (want a positive int or max)@." s;
          exit 2
  in
  let rec parse jobs acc = function
    | [] -> (jobs, List.rev acc)
    | "--jobs" :: v :: rest -> parse (jobs_of v) acc rest
    | [ "--jobs" ] ->
        Fmt.epr "bench: --jobs needs a value@.";
        exit 2
    | arg :: rest when String.starts_with ~prefix:"--jobs=" arg ->
        parse
          (jobs_of (String.sub arg 7 (String.length arg - 7)))
          acc rest
    | arg :: rest -> parse jobs (arg :: acc) rest
  in
  parse 1 [] (List.tl (Array.to_list Sys.argv))

let known_sections =
  [ "table1"; "table2"; "table3"; "table4"; "fig2"; "fig3"; "appendix";
    "summary"; "spec95"; "dynamic"; "procorder"; "btfnt"; "replication";
    "ablation"; "csv" ]

let () =
  match List.filter (fun s -> not (List.mem s known_sections)) sections with
  | [] -> ()
  | unknown ->
      Fmt.epr "bench: unknown section(s) %s; known: %s@."
        (String.concat " " unknown)
        (String.concat " " known_sections);
      exit 2

let executor = Executor.of_jobs jobs

let wanted name =
  assert (List.mem name known_sections);
  sections = [] || List.mem name sections

let ppf = Fmt.stdout

(* progress and timing chatter: run-dependent, so stderr only *)
let eppf = Fmt.stderr

(* ------------------------------------------------------------------ *)
(* Experiment sections                                                  *)
(* ------------------------------------------------------------------ *)

let need_rows =
  List.exists wanted
    [ "table1"; "table2"; "table4"; "fig2"; "fig3"; "summary" ]

let rows =
  if need_rows then begin
    Fmt.pf eppf "running the full experiment suite (6 benchmarks x 2 data sets, jobs=%d)...@." jobs;
    let t0 = Ba_obs.Mono.now_ns () in
    let rows = Ba_harness.Runner.run_all ~executor () in
    let t = Ba_obs.Mono.since_s t0 in
    (* the wall-clock line BENCH_*.json tracks for the parallel win *)
    Fmt.pf eppf "suite wall-clock: %.2fs at jobs=%d@." t jobs;
    rows
  end
  else []

let () = if wanted "table1" then Ba_harness.Tables.table1 ppf rows
let () = if wanted "table2" then Ba_harness.Tables.table2 ppf rows

let () =
  if wanted "table3" then
    Ba_harness.Tables.table3 ppf Ba_machine.Penalties.alpha_21164

let () = if wanted "table4" then Ba_harness.Tables.table4 ppf rows

let () =
  if wanted "fig2" then begin
    Ba_harness.Tables.fig2_penalties ppf rows;
    Ba_harness.Tables.fig2_times ppf rows
  end

let () =
  if wanted "fig3" then begin
    Ba_harness.Tables.fig3_penalties ppf rows;
    Ba_harness.Tables.fig3_times ppf rows
  end

let () =
  if wanted "appendix" then begin
    Fmt.pf ppf "@.running the appendix bound study...@.";
    let corpus =
      Ba_harness.Synthetic.workload_instances ()
      @ Ba_harness.Synthetic.corpus ~sizes:[ 6; 8; 10; 12; 14; 17; 24; 40 ]
          ~per_size:3 ()
    in
    let stats = Ba_harness.Appendix.study corpus in
    Ba_harness.Tables.appendix ppf stats
  end

let () = if wanted "summary" then Ba_harness.Tables.summary ppf rows

let () =
  if wanted "dynamic" then begin
    Fmt.pf ppf "@.running the dynamic-prediction extension...@.";
    Ba_harness.Dyn_exp.print ppf (Ba_harness.Dyn_exp.run_all ());
    (* aliasing ablation: a tiny BHT makes layout-dependent aliasing
       visible (paper footnote 6) *)
    let tiny =
      { Ba_machine.Predictor.default with Ba_machine.Predictor.bht_entries = 64 }
    in
    Fmt.pf ppf "@.same, with a tiny 64-entry BHT (aliasing regime):@.";
    Ba_harness.Dyn_exp.print ppf
      (Ba_harness.Dyn_exp.run_all ~config:tiny ())
  end

let () =
  if wanted "btfnt" then begin
    Fmt.pf ppf "@.%s@." (String.make 78 '-');
    Fmt.pf ppf
      "Extension: the same layouts on a BTFNT machine (paper footnote 3)@.";
    Fmt.pf ppf "%s@." (String.make 78 '-');
    Fmt.pf ppf "%-9s %12s %8s %8s   (penalties normalized to BTFNT-original)@."
      "bench.ds" "orig-btfnt" "greedy" "tsp";
    let p = Ba_machine.Model.alpha21164 in
    let gs = ref [] and ts = ref [] in
    List.iter
      (fun w ->
        List.iter
          (fun ds ->
            let compiled = Ba_workloads.Workload.compile w in
            let cfgs = compiled.Ba_minic.Compile.cfgs in
            let prof =
              Ba_minic.Compile.profile compiled
                ~input:ds.Ba_workloads.Workload.input
            in
            let eval m =
              let a = Ba_align.Driver.align m p cfgs ~train:prof in
              Ba_align.Btfnt.program_penalty p.Ba_machine.Model.penalties cfgs
                ~realized:a.Ba_align.Driver.realized ~test:prof
            in
            let o = eval Ba_align.Driver.Original in
            let g = eval Ba_align.Driver.Greedy in
            let t = eval (Ba_align.Driver.Tsp Ba_align.Tsp_align.default) in
            let norm v = if o = 0 then 1.0 else float_of_int v /. float_of_int o in
            gs := norm g :: !gs;
            ts := norm t :: !ts;
            Fmt.pf ppf "%-9s %12d %8.3f %8.3f@."
              (w.Ba_workloads.Workload.name ^ "." ^ ds.Ba_workloads.Workload.ds_name)
              o (norm g) (norm t))
          (Ba_workloads.Workload.dataset_list w))
      Ba_workloads.Workload.all;
    let mean l =
      match l with
      | [] -> 0.0
      | _ -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
    in
    Fmt.pf ppf "%-9s %12s %8.3f %8.3f@." "MEAN" "" (mean !gs) (mean !ts);
    Fmt.pf ppf
      "reading: both aligners still help on average, but the TSP layout is@.";
    Fmt.pf ppf
      "tuned to the profile-prediction model and can backfire on hardware@.";
    Fmt.pf ppf
      "that predicts by direction (see xli) — footnote 3's warning made@.";
    Fmt.pf ppf
      "concrete: the reduction is only as good as its machine model.@."
  end

let () =
  if wanted "spec95" then begin
    Fmt.pf eppf
      "running the SPEC95-style extension suite (5 benchmarks x 2 data sets, \
       jobs=%d)...@."
      jobs;
    let t0 = Ba_obs.Mono.now_ns () in
    let rows95 =
      Ba_harness.Runner.run_all ~executor
        ~workloads:Ba_workloads.Workload95.all ()
    in
    let t95 = Ba_obs.Mono.since_s t0 in
    Fmt.pf eppf "spec95 wall-clock: %.2fs at jobs=%d@." t95 jobs;
    Fmt.pf ppf "@.";
    Ba_harness.Tables.table1 ppf rows95;
    Ba_harness.Tables.table4 ppf rows95;
    Ba_harness.Tables.fig2_penalties ppf rows95;
    Ba_harness.Tables.fig2_times ppf rows95;
    Ba_harness.Tables.fig3_penalties ppf rows95;
    Ba_harness.Tables.fig3_times ppf rows95;
    Ba_harness.Tables.summary ppf rows95
  end

let () =
  if wanted "procorder" then begin
    Fmt.pf ppf "@.running the interprocedural-placement extension...@.";
    Ba_harness.Interproc.print ppf (Ba_harness.Interproc.run ())
  end

let () =
  if wanted "replication" then begin
    Fmt.pf ppf "@.running the code-replication extension...@.";
    Ba_harness.Replication.print ppf (Ba_harness.Replication.run_all ())
  end

let () =
  if wanted "csv" then begin
    Fmt.pf eppf "exporting CSV results (jobs=%d)...@." jobs;
    Fmt.pf ppf "@.";
    let rows =
      if rows <> [] then rows else Ba_harness.Runner.run_all ~executor ()
    in
    let rows95 =
      Ba_harness.Runner.run_all ~executor
        ~workloads:Ba_workloads.Workload95.all ()
    in
    let appendix =
      Ba_harness.Appendix.study
        (Ba_harness.Synthetic.workload_instances ()
        @ Ba_harness.Synthetic.corpus ~sizes:[ 6; 10; 14; 24 ] ~per_size:3 ())
    in
    let paths =
      Ba_harness.Csv.export ~dir:"results" ~rows ~rows95
        ~appendix:(Some appendix)
    in
    List.iter (fun p -> Fmt.pf ppf "wrote %s@." p) paths;
    (* run-dependent timing CSVs: paths to stderr so stdout stays
       byte-identical across job counts *)
    let tpaths = Ba_harness.Csv.export_timings ~dir:"results" ~rows ~rows95 in
    List.iter (fun p -> Fmt.pf eppf "wrote %s@." p) tpaths
  end

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md §6)                                             *)
(* ------------------------------------------------------------------ *)

let () =
  if wanted "ablation" then begin
    Fmt.pf ppf "@.";
    Fmt.pf ppf "%s@." (String.make 78 '-');
    Fmt.pf ppf "Ablations: solver parameters on the synthetic corpus@.";
    Fmt.pf ppf "%s@." (String.make 78 '-');
    let corpus =
      Ba_harness.Synthetic.corpus ~sizes:[ 16; 32; 48 ] ~per_size:4 ()
    in
    let p = Ba_machine.Model.alpha21164 in
    let instances =
      List.map
        (fun { Ba_harness.Synthetic.g; prof; name } ->
          (name, Ba_align.Reduction.build p g ~profile:prof))
        corpus
    in
    let total config =
      let cost = ref 0 in
      let t0 = Ba_obs.Mono.now_ns () in
      List.iter
        (fun (_, inst) ->
          let r = Ba_align.Tsp_align.solve_instance ~config inst in
          cost := !cost + r.Ba_align.Tsp_align.cost)
        instances;
      (!cost, Ba_obs.Mono.since_s t0)
    in
    let base = { Ba_align.Tsp_align.default with exact_below = 0 } in
    let variants =
      [
        ("paper default (10 runs, 2n kicks, k=12)", base);
        ( "1 run",
          { base with solver = { base.solver with Ba_tsp.Iterated.runs = 1 } } );
        ( "3 runs",
          { base with solver = { base.solver with Ba_tsp.Iterated.runs = 3 } } );
        ( "no kicks",
          { base with solver = { base.solver with Ba_tsp.Iterated.kick_factor = 0 } } );
        ( "k=4 neighbors",
          { base with solver = { base.solver with Ba_tsp.Iterated.neighbors = 4 } } );
        ( "k=24 neighbors",
          { base with solver = { base.solver with Ba_tsp.Iterated.neighbors = 24 } } );
      ]
    in
    Fmt.pf ppf "%-40s %14s %10s@." "variant" "total penalty" "time (s)";
    List.iter
      (fun (name, config) ->
        let cost, t = total config in
        Fmt.pf ppf "%-40s %14d %10.2f@." name cost t)
      variants;
    (* greedy priority ablation: frequency vs cost-model savings *)
    Fmt.pf ppf "@.greedy edge-priority ablation (same corpus):@.";
    let eval_method f =
      List.fold_left
        (fun acc { Ba_harness.Synthetic.g; prof; _ } ->
          let order = f g prof in
          acc
          + Ba_align.Evaluate.proc_penalty p g ~order ~train:prof ~test:prof)
        0 corpus
    in
    Fmt.pf ppf "%-40s %14d@." "pettis-hansen (frequency)"
      (eval_method (fun g prof -> Ba_align.Greedy.align g ~profile:prof));
    Fmt.pf ppf "%-40s %14d@." "calder-grunwald (cost model)"
      (eval_method (fun g prof -> Ba_align.Calder.align p g ~profile:prof));
    Fmt.pf ppf "%-40s %14d@." "calder-grunwald + exhaustive prefix"
      (eval_method (fun g prof ->
           Ba_align.Calder.align_exhaustive p g ~profile:prof))
  end

let () = Fmt.pf ppf "@.done.@."
