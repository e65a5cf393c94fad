(** Extension experiment: the profile-trained layouts evaluated on a
    BTFNT machine (the paper's footnote 3).

    Backward-taken / forward-not-taken hardware predicts by branch
    direction, so the prediction depends on the layout itself — the
    assumption the DTSP reduction is built on no longer holds.  For
    every benchmark/data-set pair, the original, greedy and TSP layouts
    (trained and tested on the same profile) are priced under BTFNT
    prediction. *)

module W = Ba_workloads.Workload
module Driver = Ba_align.Driver

type row = {
  bench : string;
  ds : string;
  original : int;
  greedy : int;
  tsp : int;
}

let model = Ba_machine.Model.alpha21164

let run_one (w : W.t) ~(test : W.dataset) : row =
  let compiled = W.compile w in
  let cfgs = compiled.Ba_minic.Compile.cfgs in
  let prof = Ba_minic.Compile.profile compiled ~input:test.W.input in
  let eval m =
    let a = Driver.align m model cfgs ~train:prof in
    Ba_align.Btfnt.program_penalty model.Ba_machine.Model.penalties cfgs
      ~realized:a.Driver.realized ~test:prof
  in
  {
    bench = w.W.name;
    ds = test.W.ds_name;
    original = eval Driver.Original;
    greedy = eval Driver.Greedy;
    tsp = eval (Driver.Tsp Ba_align.Tsp_align.default);
  }

let run () : row list =
  List.concat_map
    (fun w -> List.map (fun ds -> run_one w ~test:ds) (W.dataset_list w))
    W.all

let print ppf (rows : row list) =
  Tables.section ppf
    "Extension: the same layouts on a BTFNT machine (paper footnote 3)";
  Fmt.pf ppf "%-9s %12s %8s %8s   (penalties normalized to BTFNT-original)@."
    "bench.ds" "orig-btfnt" "greedy" "tsp";
  let norm v r = Tables.ratio v r.original in
  List.iter
    (fun r ->
      Fmt.pf ppf "%-9s %12d %8.3f %8.3f@." (r.bench ^ "." ^ r.ds) r.original
        (norm r.greedy r) (norm r.tsp r))
    rows;
  let mean f = Tables.mean (List.map f rows) in
  Fmt.pf ppf "%-9s %12s %8.3f %8.3f@." "MEAN" ""
    (mean (fun r -> norm r.greedy r))
    (mean (fun r -> norm r.tsp r))
