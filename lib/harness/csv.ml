(** CSV export of the experiment results, for plotting the figures with
    external tools, plus the text archive of the report.  One file per
    table/figure, written under a results directory. *)

(** [rows_csv rows] renders the full measurement set — one line per
    benchmark/data-set pair, raw counts plus normalized series for both
    figures. *)
let rows_csv (rows : Runner.row list) : string list =
  "bench,ds,train_ds,procs,blocks,branch_sites,sites_touched,executed_branches,\
   orig_penalty,greedy_self_penalty,tsp_self_penalty,greedy_cross_penalty,\
   tsp_cross_penalty,lower_bound,orig_cycles,greedy_self_cycles,\
   tsp_self_cycles,greedy_cross_cycles,tsp_cross_cycles,\
   fig2_greedy,fig2_tsp,fig2_bound,fig2_greedy_time,fig2_tsp_time"
  :: List.map
       (fun (r : Runner.row) ->
         let m (x : Runner.measurement) = x.Runner.penalty in
         let c (x : Runner.measurement) = x.Runner.cycles in
         let op = m r.Runner.original and oc = c r.Runner.original in
         Printf.sprintf
           "%s,%s,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.6f,%.6f,%.6f,%.6f,%.6f"
           r.Runner.bench r.Runner.ds r.Runner.train_ds r.Runner.n_procs
           r.Runner.n_blocks r.Runner.branch_sites r.Runner.branch_sites_touched
           r.Runner.executed_branches op
           (m r.Runner.greedy_self) (m r.Runner.tsp_self)
           (m r.Runner.greedy_cross) (m r.Runner.tsp_cross) r.Runner.lower_bound
           oc
           (c r.Runner.greedy_self) (c r.Runner.tsp_self)
           (c r.Runner.greedy_cross) (c r.Runner.tsp_cross)
           (Tables.ratio (m r.Runner.greedy_self) op)
           (Tables.ratio (m r.Runner.tsp_self) op)
           (Tables.ratio r.Runner.lower_bound op)
           (Tables.ratio (c r.Runner.greedy_self) oc)
           (Tables.ratio (c r.Runner.tsp_self) oc))
       rows

(** [timing_csv rows] renders the wall-clock side of the measurement
    set: per-stage seconds plus the distribution of per-procedure TSP
    solve times (p50/p95/max — the pool's load-imbalance view).  Kept
    in its own file because timings are inherently run-dependent: the
    deterministic CSVs above must diff clean across job counts, this
    one never will. *)
let timing_csv (rows : Runner.row list) : string list =
  "bench,ds,compile_s,profile_s,greedy_s,matrix_s,solve_s,tsp_program_s,\
   bounds_s,n_solves,solve_total_s,solve_p50_s,solve_p95_s,solve_max_s"
  :: List.map
       (fun (r : Runner.row) ->
         let s = r.Runner.stages and d = r.Runner.solve_dist in
         Printf.sprintf
           "%s,%s,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%d,%.6f,%.6f,%.6f,%.6f"
           r.Runner.bench r.Runner.ds s.Timing.compile_s s.Timing.profile_s
           s.Timing.greedy_s s.Timing.matrix_s s.Timing.solve_s
           s.Timing.tsp_program_s s.Timing.bounds_s d.Timing.n
           d.Timing.total_s d.Timing.p50_s d.Timing.p95_s d.Timing.max_s)
       rows

(** [appendix_csv stats] renders the per-instance bound study. *)
let appendix_csv (s : Appendix.stats) : string list =
  "instance,cities,tour,opt,ap,hk,patching,runs_with_best,runs"
  :: List.map
       (fun (r : Appendix.per_instance) ->
         Printf.sprintf "%s,%d,%d,%s,%d,%d,%d,%d,%d" r.Appendix.name
           r.Appendix.n_cities r.Appendix.tour_cost
           (match r.Appendix.opt with Some o -> string_of_int o | None -> "")
           r.Appendix.ap r.Appendix.hk r.Appendix.patching
           r.Appendix.runs_with_best r.Appendix.runs)
       s.Appendix.instances

let lines l = String.concat "" (List.map (fun line -> line ^ "\n") l)

(* write each [(name, contents)] under [dir]; returns the paths *)
let write_all ~dir files =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.map
    (fun (name, contents) ->
      let path = Filename.concat dir name in
      Out_channel.with_open_bin path (fun oc -> output_string oc contents);
      path)
    files

(** [export ~dir ~rows ~rows95 ~appendix ~report] writes the committed
    results: the deterministic CSVs and [report.txt], the text [report]
    prints; returns the paths written. *)
let export ~dir ~(rows : Runner.row list) ~(rows95 : Runner.row list)
    ~(appendix : Appendix.stats) ~report : string list =
  write_all ~dir
    [
      ("spec92.csv", lines (rows_csv rows));
      ("spec95.csv", lines (rows_csv rows95));
      ("appendix.csv", lines (appendix_csv appendix));
      ("report.txt", Fmt.str "%t" report);
    ]

(** [export_timings ~dir ~rows ~rows95] writes the run-dependent timing
    CSVs (separate from {!export} so determinism checks can diff the
    committed files alone); returns the paths written. *)
let export_timings ~dir ~(rows : Runner.row list)
    ~(rows95 : Runner.row list) : string list =
  write_all ~dir
    [
      ("timing92.csv", lines (timing_csv rows));
      ("timing95.csv", lines (timing_csv rows95));
    ]
