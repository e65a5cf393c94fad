(** Extension experiment: branch alignment under {e dynamic} branch
    prediction hardware (the paper's future-work footnote 6).

    For every benchmark/data-set pair, compare control penalties under
    the static per-branch predictor assumed by the reduction against a
    trace-driven simulation of BHT+BTB hardware, for the original, greedy
    and TSP layouts.  The expected shape: dynamic hardware removes most
    mispredict penalties by itself, so alignment's win shrinks to the
    misfetch/fall-through component — but it does not vanish, and the
    layout ranking is unchanged. *)

module W = Ba_workloads.Workload
module Driver = Ba_align.Driver

type row = {
  bench : string;
  ds : string;
  static_ : int * int * int;  (** original, greedy, tsp *)
  dynamic : int * int * int;
  dynamic_mispredicts : int * int * int;
}

let model = Ba_machine.Model.alpha21164

let run_one ?(config = Ba_machine.Predictor.default) (w : W.t)
    ~(test : W.dataset) : row =
  let compiled = W.compile w in
  let cfgs = compiled.Ba_minic.Compile.cfgs in
  let prof = Ba_minic.Compile.profile compiled ~input:test.W.input in
  let run sink = ignore (Ba_minic.Compile.run compiled ~input:test.W.input ~sink) in
  let eval m =
    let a = Driver.align m model cfgs ~train:prof in
    let static_ = Driver.analytic_penalty model a ~test:prof in
    let counters, sink =
      Ba_machine.Dynamic.make_sink ~config model.Ba_machine.Model.penalties
        ~realized:a.Driver.realized ~addr:a.Driver.addr
    in
    run sink;
    ( static_,
      counters.Ba_machine.Dynamic.penalty_cycles,
      counters.Ba_machine.Dynamic.cond_mispredicts )
  in
  let o_s, o_d, o_m = eval Driver.Original in
  let g_s, g_d, g_m = eval Driver.Greedy in
  let t_s, t_d, t_m = eval (Driver.Tsp Ba_align.Tsp_align.default) in
  {
    bench = w.W.name;
    ds = test.W.ds_name;
    static_ = (o_s, g_s, t_s);
    dynamic = (o_d, g_d, t_d);
    dynamic_mispredicts = (o_m, g_m, t_m);
  }

let run_all ?config () : row list =
  List.concat_map
    (fun w -> List.map (fun ds -> run_one ?config w ~test:ds) (W.dataset_list w))
    W.all

(** A 64-entry BHT: small enough that layout-dependent aliasing between
    branches becomes visible (the paper's footnote 6). *)
let tiny_bht = { Ba_machine.Predictor.default with bht_entries = 64 }

let run () = (run_all (), run_all ~config:tiny_bht ())

let print_rows ppf (rows : row list) =
  Tables.section ppf
    "Extension: penalties under dynamic prediction hardware (BHT+BTB)";
  Fmt.pf ppf "%-9s | %9s %7s %7s | %9s %7s %7s | %s@." "bench.ds" "static-o"
    "greedy" "tsp" "dyn-o" "greedy" "tsp" "dyn mispredicts o/g/t";
  (* greedy and tsp normalized to the original *)
  let greedy (o, g, _) = Tables.ratio g o and tsp (o, _, t) = Tables.ratio t o in
  List.iter
    (fun r ->
      let o_s, _, _ = r.static_ and o_d, _, _ = r.dynamic in
      let o_m, g_m, t_m = r.dynamic_mispredicts in
      Fmt.pf ppf "%-9s | %9d %7.3f %7.3f | %9d %7.3f %7.3f | %d/%d/%d@."
        (r.bench ^ "." ^ r.ds) o_s (greedy r.static_) (tsp r.static_) o_d
        (greedy r.dynamic) (tsp r.dynamic) o_m g_m t_m)
    rows;
  let mean f = Tables.mean (List.map f rows) in
  Fmt.pf ppf "%-9s | %9s %7.3f %7.3f | %9s %7.3f %7.3f |@." "MEAN" ""
    (mean (fun r -> greedy r.static_))
    (mean (fun r -> tsp r.static_))
    ""
    (mean (fun r -> greedy r.dynamic))
    (mean (fun r -> tsp r.dynamic))

let print ppf (default, tiny) =
  print_rows ppf default;
  Fmt.pf ppf "@.same, with a tiny 64-entry BHT (aliasing regime):@.";
  print_rows ppf tiny
