(** Extension experiment: code replication (tail duplication) + branch
    alignment.

    For each runner row: tail-duplicate the hot join blocks of its
    program under its testing profile ({!Ba_minic.Transform}), then
    profile, TSP-align and measure the transformed program the way the
    runner measures its own [tsp_self] layout ({!Runner.tsp_self}), and
    compare modelled penalties, simulated cycles and code size against
    that layout.  The expected shape: replication removes taken-branch
    penalties alignment alone cannot (joins with several hot
    predecessors), at a measurable code-size cost that the I-cache term
    pushes back on. *)

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

let code_size (m : Runner.measurement) =
  m.Runner.program.Ba_align.Driver.addr.Ba_machine.Addr.total_instrs

let run_one (r : Runner.row) : row =
  let before = r.Runner.tsp_self in
  let prog, st =
    Ba_minic.Transform.program r.Runner.compiled.Ba_minic.Compile.prog
      ~profile:r.Runner.test_profile
  in
  let after =
    Runner.tsp_self r.Runner.config (Ba_minic.Compile.of_ir prog)
      ~input:r.Runner.test_input
  in
  {
    bench = r.Runner.bench;
    ds = r.Runner.ds;
    clones = st.Ba_minic.Transform.clones;
    code_before = code_size before;
    code_after = code_size after;
    penalty_before = before.Runner.penalty;
    penalty_after = after.Runner.penalty;
    cycles_before = before.Runner.cycles;
    cycles_after = after.Runner.cycles;
  }

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
