(** Extension experiment: the runner's profile-trained layouts
    evaluated on a BTFNT machine (the paper's footnote 3).

    Backward-taken / forward-not-taken hardware predicts by branch
    direction, so the prediction depends on the layout itself — the
    assumption the DTSP reduction is built on no longer holds.  For
    every benchmark/data-set row, the original, greedy-self and
    TSP-self layouts (trained and tested on the same profile) are
    priced under BTFNT prediction. *)

type row = {
  bench : string;
  ds : string;
  original : int;
  greedy : int;
  tsp : int;
}

let run_one (r : Runner.row) : row =
  let price (m : Runner.measurement) =
    let p = m.Runner.program in
    Ba_align.Btfnt.program_penalty
      r.Runner.config.Runner.model.Ba_machine.Model.penalties
      p.Ba_align.Driver.cfgs ~realized:p.Ba_align.Driver.realized
      ~test:r.Runner.test_profile
  in
  {
    bench = r.Runner.bench;
    ds = r.Runner.ds;
    original = price r.Runner.original;
    greedy = price r.Runner.greedy_self;
    tsp = price r.Runner.tsp_self;
  }

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
