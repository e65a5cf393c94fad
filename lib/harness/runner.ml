(** The experiment engine: everything Figures 2–3 and Tables 1, 2 and 4
    need, for one benchmark × data set.

    For each benchmark and {e testing} data set the runner produces:
    - Table 1 statistics (branch sites touched, executed branches);
    - original / greedy / TSP layouts trained on the testing set itself
      ("self", the paper's Section 4.1 setting) and on the sibling data
      set ("cross", Section 4.2);
    - analytic control penalties for all of those plus the Held–Karp
      lower bound;
    - full-machine simulated cycle counts (penalties + I-cache) for the
      original, greedy and TSP programs under both training regimes —
      the five layouts the figures and the extension studies read;
    - greedy and TSP layouts trained on the static estimate, realized
      and certified but not simulated (their readers price them
      analytically);
    - per-stage timings (Table 2), totals over the row's spans, and the
      distribution of per-procedure TSP solve times (pool
      load-imbalance view).

    Every benchmark × data-set row is an independent {!Ba_engine.Task}:
    {!run_all} fans rows out over a pluggable executor and merges them
    back in suite order, so the measured numbers are identical at any
    job count (timings, of course, are whatever the wall clock says). *)

open Ba_align
module Workload = Ba_workloads.Workload
module Profile = Ba_profile.Profile
module Cycles = Ba_machine.Cycles
module Executor = Ba_engine.Executor
module Task = Ba_engine.Task

type config = { model : Ba_machine.Model.t; tsp : Tsp_align.config }

type measurement = {
  penalty : int;  (** analytic control-penalty cycles on the testing set *)
  cycles : int;  (** simulated execution cycles on the testing set *)
  program : Driver.aligned;  (** the measured layout, realized *)
}

type row = {
  bench : string;
  ds : string;  (** testing data set *)
  train_ds : string;  (** sibling data set used for cross-validation *)
  n_procs : int;
  n_blocks : int;
  branch_sites : int;  (** static CTI blocks *)
  branch_sites_touched : int;
  executed_branches : int;
  original : measurement;
  greedy_self : measurement;
  tsp_self : measurement;
  greedy_cross : measurement;
  tsp_cross : measurement;
  greedy_static : Driver.aligned;
      (** greedy layout trained on the {!Ba_analysis.Estimate} static
          profile (no training run at all); certified, not simulated *)
  tsp_static : Driver.aligned;
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
  test_profile : Profile.t;  (** profile of one run on [test_input] *)
}

let default = { model = Ba_machine.Model.default; tsp = Tsp_align.default }

(** [hk_gap r] is the gap of the self-trained TSP penalty to the
    Held–Karp lower bound, as a fraction of the bound, clamped at 0 (0
    when the bound is degenerate). *)
let hk_gap r =
  if r.lower_bound <= 0 then 0.
  else
    Float.max 0.
      (float_of_int (r.tsp_self.penalty - r.lower_bound)
      /. float_of_int r.lower_bound)

(** Align every procedure with the TSP method, each procedure's matrix
    construction and solve in their own ["matrix"] and ["solve"] spans.
    Returns the orders, the solver's DTSP walk cost of each
    ({!Tsp_align.result.cost}) and the exact/timeout counts.  Each
    solve's RNG is seeded from its instance. *)
let tsp_align_program (cfg : config) spans cfgs ~train =
  let sp name f = Ba_obs.Span.with_span spans name f in
  let n_exact = ref 0 and n_timeouts = ref 0 in
  let results =
    Array.mapi
      (fun fid g ->
        let inst =
          sp "matrix" (fun () ->
              Reduction.build cfg.model g ~profile:(Profile.proc train fid))
        in
        let r =
          sp "solve" (fun () -> Tsp_align.solve_instance ~config:cfg.tsp inst)
        in
        if r.Tsp_align.exact then incr n_exact;
        if r.Tsp_align.degraded <> None then incr n_timeouts;
        r)
      cfgs
  in
  ( Array.map (fun r -> r.Tsp_align.order) results,
    Array.map (fun r -> r.Tsp_align.cost) results,
    !n_exact,
    !n_timeouts )

(** [measure cfg aligned ~test_profile ~run] evaluates one aligned
    program against the testing workload. *)
let measure (cfg : config) (aligned : Driver.aligned) ~test_profile ~run :
    measurement =
  let penalty = Driver.analytic_penalty cfg.model aligned ~test:test_profile in
  let sim = Driver.simulate cfg.model aligned ~run in
  (* internal consistency: the trace-driven penalty count must equal the
     analytic one computed from the very profile that trace produces *)
  if sim.Cycles.penalty_cycles <> penalty then
    invalid_arg
      (Printf.sprintf
         "Runner.measure: simulated penalty %d <> analytic penalty %d"
         sim.Cycles.penalty_cycles penalty);
  { penalty; cycles = sim.Cycles.cycles; program = aligned }

let run_on compiled input sink =
  ignore (Ba_minic.Compile.run compiled ~input ~sink)

(** [tsp_self config compiled ~input] is a row's [tsp_self] column for
    any compiled program: profile it on [input], align every procedure
    through {!tsp_align_program} trained on that profile, and measure it
    on the same input. *)
let tsp_self config (compiled : Ba_minic.Compile.compiled) ~input =
  let cfgs = compiled.Ba_minic.Compile.cfgs in
  let train = Ba_minic.Compile.profile compiled ~input in
  let orders, _, _, _ =
    tsp_align_program config (Ba_obs.Span.create ~task:0) cfgs ~train
  in
  measure config
    (Driver.realize (Driver.Tsp config.tsp) config.model cfgs orders ~train)
    ~test_profile:train ~run:(run_on compiled input)

(** [run_benchmark ?config ?spans w ~test] runs the full experiment for
    one benchmark on testing data set [test] (training on [test] for
    the self rows and on the sibling set for the cross rows).  Pure up
    to the wall clock: safe to run concurrently with other benchmarks.
    Every pipeline phase runs in a span of [spans] (default: a fresh
    buffer), and the row's stage timings are {!Timing.of_spans} over
    that buffer — so it must hold no other row's spans. *)
let run_benchmark ?(config = default) ?(spans = Ba_obs.Span.create ~task:0)
    (w : Workload.t) ~(test : Workload.dataset) : row =
  let sp name f = Ba_obs.Span.with_span spans name f in
  let compiled = sp "compile" (fun () -> Workload.compile w) in
  let cfgs = compiled.Ba_minic.Compile.cfgs in
  let train_ds = Workload.sibling w test in
  let run_test = run_on compiled test.Workload.input in
  let test_profile =
    sp "profile" (fun () ->
        Ba_minic.Compile.profile compiled ~input:test.Workload.input)
  in
  let cross_profile =
    sp "profile-cross" (fun () ->
        Ba_minic.Compile.profile compiled ~input:train_ds.Workload.input)
  in
  (* ---- layouts, each realized against its training profile ---- *)
  let realize ?span m ~train orders =
    let go () = Driver.realize m config.model cfgs orders ~train in
    match span with Some name -> sp name go | None -> go ()
  in
  let each align train =
    Array.mapi (fun fid g -> align g ~profile:(Profile.proc train fid)) cfgs
  in
  let tsp = Driver.Tsp config.tsp in
  let original =
    realize Driver.Original ~train:test_profile
      (Array.map Ba_cfg.Layout.identity cfgs)
  in
  let greedy_self =
    realize ~span:"realize-greedy" Driver.Greedy ~train:test_profile
      (sp "greedy" (fun () -> each Greedy.align test_profile))
  in
  let tsp_self_orders, tsp_self_costs, n_exact, n_timeouts =
    sp "tsp-self" (fun () ->
        tsp_align_program config spans cfgs ~train:test_profile)
  in
  let tsp_self =
    realize ~span:"realize-tsp" tsp ~train:test_profile tsp_self_orders
  in
  let tsp_trained_on name train =
    let orders, _, _, _ =
      sp name (fun () -> tsp_align_program config spans cfgs ~train)
    in
    realize ~span:("realize-" ^ name) tsp ~train orders
  in
  let greedy_cross =
    realize ~span:"greedy-cross" Driver.Greedy ~train:cross_profile
      (each Greedy.align cross_profile)
  in
  let tsp_cross = tsp_trained_on "tsp-cross" cross_profile in
  (* static-estimate regime: train on frequencies computed from CFG
     structure alone ({!Ba_analysis.Estimate}), never on a run.  The
     gap these rows recover between the original layout and the
     self-trained one is the paper's "unprofiled code" story. *)
  let static_profile =
    sp "profile-static" (fun () -> Ba_analysis.Estimate.program cfgs)
  in
  let greedy_static =
    realize ~span:"greedy-static" Driver.Greedy ~train:static_profile
      (each Greedy.align static_profile)
  in
  let tsp_static = tsp_trained_on "tsp-static" static_profile in
  (* ---- measurements (always on the testing input) ---- *)
  let m a = measure config a ~test_profile ~run:run_test in
  let original_m, greedy_self_m, tsp_self_m, greedy_cross_m, tsp_cross_m =
    sp "measure" (fun () ->
        (m original, m greedy_self, m tsp_self, m greedy_cross, m tsp_cross))
  in
  (* ---- lower bound (kept per procedure for the certificates) ---- *)
  (* The Held–Karp upper bound and the certificate's claimed cost are
     the solver's own DTSP walk cost of each self-trained layout, in
     the model's OBJECTIVE units — not penalty cycles.  For
     Control_penalty models the two coincide (the paper's walk-cost
     identity); for Ext-TSP they do not.  The certificate re-derives the
     walk cost independently, so it checks the solver's claim. *)
  let bound, proc_bounds =
    sp "bounds" (fun () ->
        let bounds =
          Array.mapi
            (fun fid g ->
              Bounds.held_karp config.model g
                ~profile:(Profile.proc test_profile fid)
                ~upper:tsp_self_costs.(fid))
            cfgs
        in
        (Array.fold_left ( + ) 0 bounds, bounds))
  in
  (* ---- certificates: independently re-verify every produced layout
     of this row ({!Ba_check.Certify}).  The self-trained TSP layout
     gets the full treatment — claimed-cost cross-check against the
     analytic evaluator, DTSP→STSP locked-pair round-trip, and the
     per-procedure Held–Karp bound; the other six programs (the
     static-estimate-trained pair included) get the
     walk/faithfulness/cost re-verification. *)
  let certs = ref 0 and cert_failures = ref 0 in
  sp "certify" (fun () ->
      let certify ?(claimed = fun _ -> None)
          ?(hk = fun _ -> Ba_check.Certify.Skip) ?(sym_check = false) ~train
          (p : Driver.aligned) =
        Array.iteri
          (fun fid g ->
            incr certs;
            match
              Ba_check.Certify.proc_cert ?claimed:(claimed fid) ~hk:(hk fid)
                ~sym_check ~proc:fid config.model g
                ~profile:(Profile.proc train fid)
                ~order:p.Driver.orders.(fid)
            with
            | Ok _ -> ()
            | Error _ -> incr cert_failures)
          cfgs
      in
      certify ~train:test_profile original;
      certify ~train:test_profile greedy_self;
      certify ~train:test_profile
        ~claimed:(fun fid -> Some tsp_self_costs.(fid))
        ~hk:(fun fid -> Ba_check.Certify.Given proc_bounds.(fid))
        ~sym_check:true tsp_self;
      certify ~train:cross_profile greedy_cross;
      certify ~train:cross_profile tsp_cross;
      certify ~train:static_profile greedy_static;
      certify ~train:static_profile tsp_static);
  (* per-stage timings: totals over the spans this row recorded *)
  let stages, solve_dist = Timing.of_spans (Ba_obs.Span.spans spans) in
  (* ---- table 1 statistics ---- *)
  let sites = Array.fold_left (fun acc g -> acc + Ba_cfg.Cfg.n_branch_sites g) 0 cfgs in
  let touched = ref 0 and executed = ref 0 in
  Array.iteri
    (fun fid g ->
      let prof = Profile.proc test_profile fid in
      touched := !touched + Profile.branch_sites_touched g prof;
      executed := !executed + Profile.executed_branches g prof)
    cfgs;
  let row =
    {
      bench = w.Workload.name;
      ds = test.Workload.ds_name;
      train_ds = train_ds.Workload.ds_name;
      n_procs = Array.length cfgs;
      n_blocks = Array.fold_left (fun acc g -> acc + Ba_cfg.Cfg.n_blocks g) 0 cfgs;
      branch_sites = sites;
      branch_sites_touched = !touched;
      executed_branches = !executed;
      original = original_m;
      greedy_self = greedy_self_m;
      tsp_self = tsp_self_m;
      greedy_cross = greedy_cross_m;
      tsp_cross = tsp_cross_m;
      greedy_static;
      tsp_static;
      lower_bound = bound;
      tsp_exact_procs = n_exact;
      tsp_timeouts = n_timeouts;
      certs = !certs;
      cert_failures = !cert_failures;
      stages;
      solve_dist;
      config;
      compiled;
      test_input = test.Workload.input;
      test_profile;
    }
  in
  (* gap of the self-trained TSP layout to the Held–Karp lower bound *)
  if bound > 0 then Ba_obs.Metrics.observe_hk_gap (hk_gap row);
  row

(** [run_all_outcomes ?config ?executor ?workloads ()] runs the
    experiment for every benchmark × data set pair of the given suite
    (default: the SPEC92 stand-ins, in Table 1 order; pass
    [Ba_workloads.Workload95.all] for the SPEC95 extension suite).
    Rows fan out over [executor] (default sequential) and come back in
    suite order as full task outcomes (row + elapsed time + spans); the
    measured numbers are identical at any job count. *)
let run_all_outcomes ?(config = default) ?(executor = Executor.Seq)
    ?(workloads = Workload.all) () : row Task.outcome list =
  let pairs =
    List.concat_map
      (fun w -> List.map (fun ds -> (w, ds)) (Workload.dataset_list w))
      workloads
  in
  let tasks =
    Array.of_list
      (List.mapi
         (fun i (w, ds) ->
           Task.make ~id:i
             ~label:(w.Workload.name ^ "." ^ ds.Workload.ds_name)
             (fun ctx ->
               run_benchmark ~config ~spans:(Task.spans ctx) w ~test:ds))
         pairs)
  in
  Task.run_all executor tasks |> Array.to_list

(** [run_all] is {!run_all_outcomes} stripped down to the rows. *)
let run_all ?config ?executor ?workloads () : row list =
  run_all_outcomes ?config ?executor ?workloads ()
  |> List.map (fun o -> o.Task.value)
