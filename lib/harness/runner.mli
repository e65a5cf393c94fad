(** The experiment engine: everything Figures 2–3 and Tables 1, 2 and 4
    need, for one benchmark × data set (self-trained and cross-validated
    layouts, analytic penalties, simulated cycles, lower bounds, stage
    timings), plus the static-estimate-trained pair as realized
    programs.  Rows are independent tasks: {!run_all} fans them out
    over a pluggable executor and merges them back in suite order, so
    the measured numbers are identical at any job count.  A row keeps
    each measured layout, the compiled program, the testing input and
    its profile, so the extension studies ({!Dyn_exp}, {!Btfnt_exp},
    {!Replication}) re-price the very layouts Figure 2 prices. *)

module Workload = Ba_workloads.Workload

type config = {
  model : Ba_machine.Model.t;  (** cost model every stage runs under *)
  tsp : Ba_align.Tsp_align.config;
  deadline_ms : int option;
      (** wall-clock limit of each TSP solve ([balign bench
          --deadline-ms]); a solve it cuts short counts in
          [tsp_timeouts].  [None]: no limit *)
}

val default : config

type measurement = {
  penalty : int;  (** analytic control-penalty cycles on the testing set *)
  cycles : int;  (** simulated execution cycles on the testing set *)
  program : Ba_align.Driver.aligned;  (** the measured layout, realized *)
}

type row = {
  bench : string;
  ds : string;  (** testing data set *)
  train_ds : string;  (** sibling set used for cross-validation *)
  n_procs : int;
  n_blocks : int;
  branch_sites : int;
  branch_sites_touched : int;
  executed_branches : int;
  original : measurement;
  greedy_self : measurement;
  tsp_self : measurement;
  greedy_cross : measurement;
  tsp_cross : measurement;
  greedy_static : Ba_align.Driver.aligned;
      (** greedy layout trained on the {!Ba_analysis.Estimate} static
          profile (no training run at all); certified, not simulated *)
  tsp_static : Ba_align.Driver.aligned;
      (** TSP layout trained on the static estimate; certified, not
          simulated *)
  lower_bound : int;
  tsp_exact_procs : int;  (** procedures solved to proven optimality *)
  tsp_timeouts : int;
      (** self-trained procedures whose TSP solve hit the budget *)
  certs : int;
      (** alignment certificates issued ({!Ba_check.Certify}, all seven
          programs of the row) *)
  cert_failures : int;  (** certificates that failed re-verification *)
  stages : Timing.stages;
  solve_dist : Timing.dist;
      (** distribution of self-trained per-procedure TSP solve times *)
  config : config;  (** what the row was measured under *)
  compiled : Ba_minic.Compile.compiled;
  test_input : int array;
  test_profile : Ba_profile.Profile.t;  (** profile of one run on [test_input] *)
}

(** Gap of the self-trained TSP penalty to the Held–Karp lower bound,
    as a fraction of the bound, clamped at 0 (0 when the bound is
    degenerate). *)
val hk_gap : row -> float

(** Run the full experiment for one benchmark on one testing data set.
    Pure up to the wall clock: safe to run concurrently with other
    benchmarks.  Every pipeline phase runs in a span of [spans]
    (default: a fresh buffer); the row's [stages] and [solve_dist] are
    {!Timing.of_spans} over that buffer, so it must hold no other
    row's spans. *)
val run_benchmark :
  ?config:config ->
  ?spans:Ba_obs.Span.buf ->
  Workload.t ->
  test:Workload.dataset ->
  row

(** A row's [tsp_self] column for any compiled program: profile it on
    [input], align every procedure with the row's TSP path (each
    solve's RNG seeded from its instance) trained on that profile, and
    measure it on the same input. *)
val tsp_self :
  config -> Ba_minic.Compile.compiled -> input:int array -> measurement

(** Run the experiment over a whole suite (default: the SPEC92
    stand-ins; pass [Ba_workloads.Workload95.all] for the extension
    suite), fanning rows out over [executor] (default sequential).
    Outcomes come back in suite order with per-task wall clock and
    spans attached. *)
val run_all_outcomes :
  ?config:config ->
  ?executor:Ba_engine.Executor.t ->
  ?workloads:Workload.t list ->
  unit ->
  row Ba_engine.Task.outcome list

(** {!run_all_outcomes} stripped down to the rows. *)
val run_all :
  ?config:config ->
  ?executor:Ba_engine.Executor.t ->
  ?workloads:Workload.t list ->
  unit ->
  row list
