(** Extension experiment: code replication (tail duplication) + branch
    alignment.

    For each benchmark/data set: profile the original program, tail-
    duplicate its hot join blocks ({!Ba_minic.Transform}), re-profile the
    transformed program, TSP-align both, and compare modelled penalties,
    simulated cycles and code size.  The expected shape: replication
    removes taken-branch penalties alignment alone cannot (joins with
    several hot predecessors), at a measurable code-size cost that the
    I-cache term pushes back on. *)

module W = Ba_workloads.Workload
module Driver = Ba_align.Driver

type row = {
  bench : string;
  ds : string;
  clones : int;
  code_before : int;  (** instructions *)
  code_after : int;
  penalty_before : int;  (** TSP-aligned penalties *)
  penalty_after : int;
  cycles_before : int;
  cycles_after : int;
}

let model = Ba_machine.Model.alpha21164

let measure compiled ~input =
  let prof = Ba_minic.Compile.profile compiled ~input in
  let a =
    Driver.align (Driver.Tsp Ba_align.Tsp_align.default) model
      compiled.Ba_minic.Compile.cfgs ~train:prof
  in
  let penalty = Driver.analytic_penalty model a ~test:prof in
  let sim =
    Driver.simulate model a ~run:(fun sink ->
        ignore (Ba_minic.Compile.run compiled ~input ~sink))
  in
  (prof, penalty, sim.Ba_machine.Cycles.cycles, a.Driver.addr.Ba_machine.Addr.total_instrs)

let run_one ?(config = Ba_minic.Transform.default) (w : W.t)
    ~(test : W.dataset) : row =
  let compiled = W.compile w in
  let input = test.W.input in
  let prof0, penalty_before, cycles_before, code_before =
    measure compiled ~input
  in
  let prog', st =
    Ba_minic.Transform.program ~config compiled.Ba_minic.Compile.prog
      ~profile:prof0
  in
  let compiled' = Ba_minic.Compile.of_ir prog' in
  let _, penalty_after, cycles_after, code_after = measure compiled' ~input in
  {
    bench = w.W.name;
    ds = test.W.ds_name;
    clones = st.Ba_minic.Transform.clones;
    code_before;
    code_after;
    penalty_before;
    penalty_after;
    cycles_before;
    cycles_after;
  }

let run_all ?config () : row list =
  List.concat_map
    (fun w -> List.map (fun ds -> run_one ?config w ~test:ds) (W.dataset_list w))
    W.all

let print ppf (rows : row list) =
  Tables.section ppf
    "Extension: tail duplication + TSP alignment (code replication [15,22])";
  Fmt.pf ppf "%-9s %7s %8s %8s %12s %12s %12s %12s@." "bench.ds" "clones"
    "code" "code'" "penalty" "penalty'" "cycles" "cycles'";
  List.iter
    (fun r ->
      Fmt.pf ppf "%-9s %7d %8d %8d %12d %12d %12d %12d@."
        (r.bench ^ "." ^ r.ds) r.clones r.code_before r.code_after
        r.penalty_before r.penalty_after r.cycles_before r.cycles_after)
    rows;
  let mean f = Tables.mean (List.map f rows) in
  Fmt.pf ppf "mean post/pre ratios: penalties %.3f, cycles %.3f@."
    (mean (fun r -> Tables.ratio r.penalty_after r.penalty_before))
    (mean (fun r -> Tables.ratio r.cycles_after r.cycles_before))
