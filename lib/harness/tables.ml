(** Table and figure printers: each function regenerates one table or
    figure of the paper from measured rows (same rows/series, our
    numbers).  Output is plain text; `balign report csv` archives every
    deterministic section in results/report.txt. *)

let hr ppf = Fmt.pf ppf "%s@." (String.make 78 '-')

let section ppf title =
  Fmt.pf ppf "@.";
  hr ppf;
  Fmt.pf ppf "%s@." title;
  hr ppf

(* ------------------------------------------------------------------ *)

(** Table 1: benchmark and data-set inventory. *)
let table1 ppf (rows : Runner.row list) =
  section ppf "Table 1: benchmarks and data sets";
  Fmt.pf ppf "%-6s %-4s %-6s %-7s %-7s %-8s %-10s@." "bench" "ds" "procs"
    "blocks" "sites" "touched" "exec-branches";
  List.iter
    (fun (r : Runner.row) ->
      Fmt.pf ppf "%-6s %-4s %-6d %-7d %-7d %-8d %-10d@." r.Runner.bench
        r.Runner.ds r.Runner.n_procs r.Runner.n_blocks r.Runner.branch_sites
        r.Runner.branch_sites_touched r.Runner.executed_branches)
    rows

(** Table 2: per-stage wall-clock times, for the slower data set of each
    benchmark (the paper reports "the worst data set for each
    benchmark"). *)
let table2 ppf (rows : Runner.row list) =
  section ppf "Table 2: compilation and alignment times (seconds, worst data set)";
  Fmt.pf ppf "%-6s %-4s %8s %8s %8s %8s %8s %8s %8s@." "bench" "ds" "compile"
    "profile" "greedy" "matrix" "solve" "tsp-prog" "hk-bound";
  let by_bench = Hashtbl.create 8 in
  List.iter
    (fun (r : Runner.row) ->
      match Hashtbl.find_opt by_bench r.Runner.bench with
      | Some (prev : Runner.row)
        when prev.Runner.stages.Timing.solve_s >= r.Runner.stages.Timing.solve_s
        ->
          ()
      | _ -> Hashtbl.replace by_bench r.Runner.bench r)
    rows;
  List.iter
    (fun (r : Runner.row) ->
      match Hashtbl.find_opt by_bench r.Runner.bench with
      | Some chosen when chosen == r ->
          let s = r.Runner.stages in
          Fmt.pf ppf "%-6s %-4s %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f@."
            r.Runner.bench r.Runner.ds s.Timing.compile_s s.Timing.profile_s
            s.Timing.greedy_s s.Timing.matrix_s s.Timing.solve_s
            s.Timing.tsp_program_s s.Timing.bounds_s
      | _ -> ())
    rows

(** Table 3: the control-penalty machine model. *)
let table3 ppf (p : Ba_machine.Penalties.t) =
  section ppf "Table 3: control penalties of the machine model";
  Fmt.pf ppf "%-55s %-8s %s@." "block-ending control event" "cycles" "term";
  List.iter
    (fun (event, cycles, term) -> Fmt.pf ppf "%-55s %-8d %s@." event cycles term)
    (Ba_machine.Penalties.table_rows p)

(** Table 4: original-layout penalties, lower bounds and running times. *)
let table4 ppf (rows : Runner.row list) =
  section ppf "Table 4: original control penalties, lower bounds, running times";
  Fmt.pf ppf "%-6s %-4s %14s %14s %14s@." "bench" "ds" "orig-penalty"
    "lower-bound" "orig-cycles";
  List.iter
    (fun (r : Runner.row) ->
      Fmt.pf ppf "%-6s %-4s %14d %14d %14d@." r.Runner.bench r.Runner.ds
        r.Runner.original.Runner.penalty r.Runner.lower_bound
        r.Runner.original.Runner.cycles)
    rows

(* ------------------------------------------------------------------ *)

let bar width ratio =
  (* ratio in [0, ~1.2]: draw a crude horizontal bar *)
  let r = if Float.is_nan ratio then 0.0 else Float.max 0.0 (Float.min 1.25 ratio) in
  let n = int_of_float (r *. float_of_int width) in
  String.make (min n (width + width / 4)) '#'

let ratio a b = if b = 0 then 1.0 else float_of_int a /. float_of_int b

let mean l =
  match l with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(** Figure 2 (left): control penalties normalized to the original layout,
    training = testing. *)
let fig2_penalties ppf (rows : Runner.row list) =
  section ppf
    "Figure 2 (left): control penalties, train = test (normalized to original)";
  Fmt.pf ppf "%-9s %8s %8s %8s   %s@." "bench.ds" "greedy" "tsp" "bound"
    "bars: greedy '#', tsp '+', bound '.'";
  let g_all = ref [] and t_all = ref [] and b_all = ref [] in
  List.iter
    (fun (r : Runner.row) ->
      let orig = r.Runner.original.Runner.penalty in
      let g = ratio r.Runner.greedy_self.Runner.penalty orig in
      let t = ratio r.Runner.tsp_self.Runner.penalty orig in
      let b = ratio r.Runner.lower_bound orig in
      g_all := g :: !g_all;
      t_all := t :: !t_all;
      b_all := b :: !b_all;
      Fmt.pf ppf "%-9s %8.3f %8.3f %8.3f   |%-26s@."
        (r.Runner.bench ^ "." ^ r.Runner.ds)
        g t b (bar 24 g);
      Fmt.pf ppf "%-9s %8s %8s %8s   |%-26s@." "" "" "" ""
        (String.map (fun c -> if c = '#' then '+' else c) (bar 24 t));
      Fmt.pf ppf "%-9s %8s %8s %8s   |%-26s@." "" "" "" ""
        (String.map (fun c -> if c = '#' then '.' else c) (bar 24 b)))
    rows;
  Fmt.pf ppf "%-9s %8.3f %8.3f %8.3f   (means; paper: 0.67 / 0.64 / 0.64)@."
    "MEAN" (mean !g_all) (mean !t_all) (mean !b_all)

(** Figure 2 (right): execution times normalized to the original layout,
    training = testing. *)
let fig2_times ppf (rows : Runner.row list) =
  section ppf
    "Figure 2 (right): execution times, train = test (normalized to original)";
  Fmt.pf ppf "%-9s %8s %8s@." "bench.ds" "greedy" "tsp";
  let g_all = ref [] and t_all = ref [] in
  List.iter
    (fun (r : Runner.row) ->
      let orig = r.Runner.original.Runner.cycles in
      let g = ratio r.Runner.greedy_self.Runner.cycles orig in
      let t = ratio r.Runner.tsp_self.Runner.cycles orig in
      g_all := g :: !g_all;
      t_all := t :: !t_all;
      Fmt.pf ppf "%-9s %8.4f %8.4f@." (r.Runner.bench ^ "." ^ r.Runner.ds) g t)
    rows;
  Fmt.pf ppf "%-9s %8.4f %8.4f   (means; paper: 0.9881 / 0.9799)@." "MEAN"
    (mean !g_all) (mean !t_all)

(** Figure 3 (upper): cross-validated control penalties. *)
let fig3_penalties ppf (rows : Runner.row list) =
  section ppf
    "Figure 3 (upper): control penalties, cross-validated (normalized to original)";
  Fmt.pf ppf "%-9s %5s %12s %12s %12s %12s@." "bench.ds" "train" "greedy-self"
    "greedy-cross" "tsp-self" "tsp-cross";
  let gs = ref [] and gc = ref [] and ts = ref [] and tc = ref [] in
  List.iter
    (fun (r : Runner.row) ->
      let orig = r.Runner.original.Runner.penalty in
      let v m = ratio m.Runner.penalty orig in
      gs := v r.Runner.greedy_self :: !gs;
      gc := v r.Runner.greedy_cross :: !gc;
      ts := v r.Runner.tsp_self :: !ts;
      tc := v r.Runner.tsp_cross :: !tc;
      Fmt.pf ppf "%-9s %5s %12.3f %12.3f %12.3f %12.3f@."
        (r.Runner.bench ^ "." ^ r.Runner.ds)
        r.Runner.train_ds
        (v r.Runner.greedy_self) (v r.Runner.greedy_cross) (v r.Runner.tsp_self)
        (v r.Runner.tsp_cross))
    rows;
  Fmt.pf ppf "%-9s %5s %12.3f %12.3f %12.3f %12.3f   (means; paper: 0.67/0.69/0.64/0.66)@."
    "MEAN" "" (mean !gs) (mean !gc) (mean !ts) (mean !tc)

(** Figure 3 (lower): cross-validated execution times. *)
let fig3_times ppf (rows : Runner.row list) =
  section ppf
    "Figure 3 (lower): execution times, cross-validated (normalized to original)";
  Fmt.pf ppf "%-9s %5s %12s %12s %12s %12s@." "bench.ds" "train" "greedy-self"
    "greedy-cross" "tsp-self" "tsp-cross";
  let gs = ref [] and gc = ref [] and ts = ref [] and tc = ref [] in
  List.iter
    (fun (r : Runner.row) ->
      let orig = r.Runner.original.Runner.cycles in
      let v (m : Runner.measurement) = ratio m.Runner.cycles orig in
      gs := v r.Runner.greedy_self :: !gs;
      gc := v r.Runner.greedy_cross :: !gc;
      ts := v r.Runner.tsp_self :: !ts;
      tc := v r.Runner.tsp_cross :: !tc;
      Fmt.pf ppf "%-9s %5s %12.4f %12.4f %12.4f %12.4f@."
        (r.Runner.bench ^ "." ^ r.Runner.ds)
        r.Runner.train_ds
        (v r.Runner.greedy_self) (v r.Runner.greedy_cross) (v r.Runner.tsp_self)
        (v r.Runner.tsp_cross))
    rows;
  Fmt.pf ppf
    "%-9s %5s %12.4f %12.4f %12.4f %12.4f   (means; paper: 0.9881/0.9894/0.9799/0.9834)@."
    "MEAN" "" (mean !gs) (mean !gc) (mean !ts) (mean !tc)

(* ------------------------------------------------------------------ *)

(** Static-estimate recovery: how much of the penalty reduction a
    collected profile buys is recovered by training on the
    {!Ba_analysis.Estimate} structural profile instead.  [recovered] is
    [(orig - static) / (orig - self)] — 1.0 means the static layout is
    as good as the profile-trained one, 0.0 means it is no better than
    the original, negative means it made things worse. *)
let static_recovery ppf (rows : Runner.row list) =
  section ppf
    "Static estimation: penalty recovered without a training run (vs original)";
  Fmt.pf ppf "%-9s %12s %12s %12s %12s %12s %12s@." "bench.ds" "orig"
    "tsp-self" "tsp-static" "recovered" "greedy-self" "g-recovered";
  let recovered orig self static =
    if orig <= self then 0.0
    else float_of_int (orig - static) /. float_of_int (orig - self)
  in
  let rt = ref [] and rg = ref [] in
  List.iter
    (fun (r : Runner.row) ->
      let orig = r.Runner.original.Runner.penalty in
      let ts = r.Runner.tsp_self.Runner.penalty
      and tst = r.Runner.tsp_static.Runner.penalty
      and gs = r.Runner.greedy_self.Runner.penalty
      and gst = r.Runner.greedy_static.Runner.penalty in
      let rec_t = recovered orig ts tst and rec_g = recovered orig gs gst in
      rt := rec_t :: !rt;
      rg := rec_g :: !rg;
      Fmt.pf ppf "%-9s %12d %12d %12d %12.3f %12d %12.3f@."
        (r.Runner.bench ^ "." ^ r.Runner.ds)
        orig ts tst rec_t gs rec_g)
    rows;
  Fmt.pf ppf "%-9s %12s %12s %12s %12.3f %12s %12.3f   (means)@." "MEAN" "" ""
    "" (mean !rt) "" (mean !rg)

(* ------------------------------------------------------------------ *)

(** Appendix: bound-quality and solver-reliability statistics. *)
let appendix ppf (s : Appendix.stats) =
  section ppf "Appendix: AP / Held-Karp bound quality, iterated 3-Opt reliability";
  Fmt.pf ppf "instances: %d (%d small enough to solve exactly)@."
    (List.length s.Appendix.instances)
    s.Appendix.n_proven;
  Fmt.pf ppf "AP bound exact on %d/%d proven instances@." s.Appendix.n_ap_exact
    s.Appendix.n_proven;
  Fmt.pf ppf "median AP gap on the rest: %.1f%%  (paper: 30%% median on esp.tl)@."
    s.Appendix.median_ap_gap_pct;
  Fmt.pf ppf "worst opt/AP ratio: %.1fx  (paper: >10x on 15 instances)@."
    s.Appendix.max_ap_ratio;
  Fmt.pf ppf "Held-Karp gap to best tour: mean %.2f%%, max %.2f%%  (paper: <0.3%% avg, 0.9%% max program-level)@."
    s.Appendix.mean_hk_gap_pct s.Appendix.max_hk_gap_pct;
  Fmt.pf ppf "all solver runs found the best tour on %d/%d instances  (paper: 128/179 on esp.tl)@."
    s.Appendix.all_runs_found_best
    (List.length s.Appendix.instances);
  Fmt.pf ppf
    "AP-patching heuristic [Karp]: %.1f%% above 3-Opt on average, optimal-or-tied on %d/%d@."
    s.Appendix.mean_patching_excess_pct s.Appendix.patching_wins_or_ties
    (List.length s.Appendix.instances);
  Fmt.pf ppf "@.%-18s %7s %12s %12s %12s %12s %12s %6s@." "instance" "cities"
    "tour" "opt" "AP" "HK" "patching" "best";
  List.iter
    (fun (r : Appendix.per_instance) ->
      Fmt.pf ppf "%-18s %7d %12d %12s %12d %12d %12d %3d/%d@." r.Appendix.name
        r.Appendix.n_cities r.Appendix.tour_cost
        (match r.Appendix.opt with Some o -> string_of_int o | None -> "-")
        r.Appendix.ap r.Appendix.hk r.Appendix.patching r.Appendix.runs_with_best
        r.Appendix.runs)
    s.Appendix.instances

(** Headline summary: the paper's main claims, checked against measured
    numbers. *)
let summary ppf (rows : Runner.row list) =
  section ppf "Summary: the paper's claims vs this reproduction";
  let orig_p = List.map (fun (r : Runner.row) -> r.Runner.original.Runner.penalty) rows in
  let f sel = List.map sel rows in
  let rel sel =
    1.0
    -. mean
         (List.map2
            (fun o v -> ratio v o)
            orig_p
            (f sel))
  in
  let removed_g = rel (fun r -> r.Runner.greedy_self.Runner.penalty) in
  let removed_t = rel (fun r -> r.Runner.tsp_self.Runner.penalty) in
  let removed_b = rel (fun r -> r.Runner.lower_bound) in
  Fmt.pf ppf "control penalty removed (mean): greedy %.1f%%, tsp %.1f%%, bound %.1f%% (paper: 33 / 36 / 36)@."
    (100. *. removed_g) (100. *. removed_t) (100. *. removed_b);
  let time_g =
    1.0 -. mean (List.map (fun (r : Runner.row) -> ratio r.Runner.greedy_self.Runner.cycles r.Runner.original.Runner.cycles) rows)
  in
  let time_t =
    1.0 -. mean (List.map (fun (r : Runner.row) -> ratio r.Runner.tsp_self.Runner.cycles r.Runner.original.Runner.cycles) rows)
  in
  Fmt.pf ppf "execution time improved (mean): greedy %.2f%%, tsp %.2f%% (paper: 1.19 / 2.01)@."
    (100. *. time_g) (100. *. time_t);
  let gap =
    mean
      (List.map
         (fun (r : Runner.row) ->
           if r.Runner.tsp_self.Runner.penalty = 0 then 0.0
           else
             100.
             *. float_of_int (r.Runner.tsp_self.Runner.penalty - r.Runner.lower_bound)
             /. float_of_int r.Runner.tsp_self.Runner.penalty)
         rows)
  in
  Fmt.pf ppf "tsp layouts above the lower bound by %.2f%% on average (paper: ~0.3%%)@." gap;
  let exact = List.fold_left (fun acc (r : Runner.row) -> acc + r.Runner.tsp_exact_procs) 0 rows in
  Fmt.pf ppf "procedures solved to proven optimality: %d@." exact
