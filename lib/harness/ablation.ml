(** Ablations of the design choices DESIGN.md §6 calls out, on a
    synthetic corpus: iterated 3-Opt parameters (runs, kicks, neighbor
    width) and the greedy aligners' edge priority.  Quality only —
    solver time is perfbench's number. *)

type t = {
  solver : (string * int) list;  (** variant, total TSP penalty *)
  greedy : (string * int) list;  (** priority rule, total penalty *)
}

let model = Ba_machine.Model.alpha21164

let run () : t =
  let corpus = Synthetic.corpus ~sizes:[ 16; 32; 48 ] ~per_size:4 () in
  let instances =
    List.map
      (fun { Synthetic.g; prof; _ } ->
        Ba_align.Reduction.build model g ~profile:prof)
      corpus
  in
  let total config =
    List.fold_left
      (fun acc inst ->
        let r = Ba_align.Tsp_align.solve_instance ~config inst in
        acc + r.Ba_align.Tsp_align.cost)
      0 instances
  in
  let base = { Ba_align.Tsp_align.default with exact_below = 0 } in
  let with_solver f = { base with solver = f base.solver } in
  let solver =
    List.map
      (fun (name, config) -> (name, total config))
      [
        ("paper default (10 runs, 2n kicks, k=12)", base);
        ("1 run", with_solver (fun s -> { s with Ba_tsp.Iterated.runs = 1 }));
        ("3 runs", with_solver (fun s -> { s with Ba_tsp.Iterated.runs = 3 }));
        ( "no kicks",
          with_solver (fun s -> { s with Ba_tsp.Iterated.kick_factor = 0 }) );
        ( "k=4 neighbors",
          with_solver (fun s -> { s with Ba_tsp.Iterated.neighbors = 4 }) );
        ( "k=24 neighbors",
          with_solver (fun s -> { s with Ba_tsp.Iterated.neighbors = 24 }) );
      ]
  in
  let eval_method f =
    List.fold_left
      (fun acc { Synthetic.g; prof; _ } ->
        acc
        + Ba_align.Evaluate.proc_penalty model g ~order:(f g prof) ~train:prof
            ~test:prof)
      0 corpus
  in
  let greedy =
    [
      ( "pettis-hansen (frequency)",
        eval_method (fun g prof -> Ba_align.Greedy.align g ~profile:prof) );
      ( "calder-grunwald (cost model)",
        eval_method (fun g prof ->
            Ba_align.Calder.align model g ~profile:prof) );
      ( "calder-grunwald + exhaustive prefix",
        eval_method (fun g prof ->
            Ba_align.Calder.align_exhaustive model g ~profile:prof) );
    ]
  in
  { solver; greedy }

let print ppf (t : t) =
  Tables.section ppf "Ablations: solver parameters on the synthetic corpus";
  let rows =
    List.iter (fun (name, cost) -> Fmt.pf ppf "%-40s %14d@." name cost)
  in
  Fmt.pf ppf "%-40s %14s@." "variant" "total penalty";
  rows t.solver;
  Fmt.pf ppf "@.greedy edge-priority ablation (same corpus):@.";
  rows t.greedy
