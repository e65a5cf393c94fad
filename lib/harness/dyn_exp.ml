(** Extension experiment: branch alignment under {e dynamic} branch
    prediction hardware (the paper's future-work footnote 6).

    For every benchmark/data-set row of the runner, compare control
    penalties under the static per-branch predictor assumed by the
    reduction (the row's own penalties) against a trace-driven
    simulation of BHT+BTB hardware, for the row's original, greedy and
    TSP layouts — once with the default predictor and once with a tiny
    BHT.  The expected shape: dynamic hardware removes most mispredict
    penalties by itself, so alignment's win shrinks to the
    misfetch/fall-through component — but it does not vanish, and the
    layout ranking is unchanged. *)

module Dynamic = Ba_machine.Dynamic

type counts = int * int * int

type hw = { penalties : counts; mispredicts : counts }

type row = {
  bench : string;
  ds : string;
  static_ : counts;
  default_bht : hw;
  tiny_bht : hw;
}

(** A 64-entry BHT: small enough that layout-dependent aliasing between
    branches becomes visible (the paper's footnote 6). *)
let tiny_bht = { Ba_machine.Predictor.default with bht_entries = 64 }

let triple f (o, g, t) = (f o, f g, f t)

let run_one (r : Runner.row) : row =
  let layouts = (r.Runner.original, r.Runner.greedy_self, r.Runner.tsp_self) in
  (* every simulated predictor listens to one run of the testing input *)
  let sink = ref Ba_cfg.Trace.null in
  let simulate config =
    triple
      (fun (m : Runner.measurement) ->
        let counters, s =
          Dynamic.make_sink ~config
            r.Runner.config.Runner.model.Ba_machine.Model.penalties
            ~realized:m.Runner.program.Ba_align.Driver.realized
            ~addr:m.Runner.program.Ba_align.Driver.addr
        in
        sink := Ba_cfg.Trace.tee !sink s;
        counters)
      layouts
  in
  let default_bht = simulate Ba_machine.Predictor.default in
  let tiny = simulate tiny_bht in
  ignore
    (Ba_minic.Compile.run r.Runner.compiled ~input:r.Runner.test_input
       ~sink:!sink);
  let hw counters =
    {
      penalties = triple (fun c -> c.Dynamic.penalty_cycles) counters;
      mispredicts = triple (fun c -> c.Dynamic.cond_mispredicts) counters;
    }
  in
  {
    bench = r.Runner.bench;
    ds = r.Runner.ds;
    static_ = triple (fun (m : Runner.measurement) -> m.Runner.penalty) layouts;
    default_bht = hw default_bht;
    tiny_bht = hw tiny;
  }

let print ppf (rows : row list) =
  Tables.section ppf
    "Extension: penalties under dynamic prediction hardware (BHT+BTB)";
  (* per layout triple: the original's count, then greedy and tsp
     normalized to it *)
  let norm (o, g, t) = (Tables.ratio g o, Tables.ratio t o) in
  let group c =
    let o, _, _ = c and g, t = norm c in
    Fmt.str "%9d %7.3f %7.3f" o g t
  in
  let mean f =
    let m pick = Tables.mean (List.map (fun r -> pick (norm (f r))) rows) in
    Fmt.str "%9s %7.3f %7.3f" "" (m fst) (m snd)
  in
  (* the (static and) hardware penalty groups, then the mispredicts *)
  let table ~static (hw : row -> hw) =
    let groups =
      (if static then [ ("static-o", fun r -> r.static_) ] else [])
      @ [ ("dyn-o", fun r -> (hw r).penalties) ]
    in
    let cells f = String.concat " | " (List.map f groups) in
    Fmt.pf ppf "%-9s | %s | dyn mispredicts o/g/t@." "bench.ds"
      (cells (fun (h, _) -> Fmt.str "%9s %7s %7s" h "greedy" "tsp"));
    List.iter
      (fun r ->
        let o, g, t = (hw r).mispredicts in
        Fmt.pf ppf "%-9s | %s | %d/%d/%d@." (r.bench ^ "." ^ r.ds)
          (cells (fun (_, f) -> group (f r)))
          o g t)
      rows;
    Fmt.pf ppf "%-9s | %s |@." "MEAN" (cells (fun (_, f) -> mean f))
  in
  table ~static:true (fun r -> r.default_bht);
  Fmt.pf ppf "@.the same layouts with a tiny 64-entry BHT (aliasing regime):@.";
  table ~static:false (fun r -> r.tiny_bht)
