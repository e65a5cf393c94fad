(* paper-suite: the paper's own traffic, run as a batch compiler pass.

   Inputs: the twelve bundled programs (six SPEC92 and five SPEC95
   stand-ins plus exc), each under both data sets.  Every row is
   cross-trained — laid out on the sibling data set's profile, measured
   on its own — by Driver.align_checked with the paper's schedule, then
   certified with the Held–Karp bound and simulated against the
   original layout.  Compiling and profiling are set-up.

   The traced run replays the same pass through the layer calls: the
   driver's lint gate, Reduction.build, the solver (Replay), realization,
   the Held–Karp bound and the certifier, each under its own span. *)

module Workload = Ba_workloads.Workload
module Compile = Ba_minic.Compile
module Profile = Ba_profile.Profile
module Layout = Ba_cfg.Layout
module Driver = Ba_align.Driver
module Tsp_align = Ba_align.Tsp_align
module Certify = Ba_check.Certify
module Held_karp = Ba_tsp.Held_karp
module Json = Ba_obs.Json

let model = Ba_machine.Model.default
let span = Spans.with_

type program = {
  w : Workload.t;
  compiled : Compile.compiled;
  profiles : (Workload.dataset * Profile.t) list;
}

(** Compile every bundled program and profile it on both data sets. *)
let compile_suite () =
  List.map
    (fun (w : Workload.t) ->
      let compiled = span "minic.compile" (fun () -> Workload.compile w) in
      let profiles =
        List.map
          (fun (ds : Workload.dataset) ->
            ( ds,
              span "profile.collect" (fun () ->
                  Compile.profile compiled ~input:ds.Workload.input) ))
          (Workload.dataset_list w)
      in
      { w; compiled; profiles })
    Ba_workloads.Workload_apps.everything

type row = {
  label : string;
  compiled : Compile.compiled;
  input : int array;  (** the testing data set *)
  train : Profile.t;  (** the sibling data set's profile *)
  test : Profile.t;
  blocks : int;
  original : (int * int) Lazy.t;  (** penalty and cycles of the front end's layout *)
}

let simulate compiled input aligned =
  span "machine.simulate" (fun () ->
      Driver.simulate model aligned ~run:(fun sink ->
          ignore (Compile.run compiled ~input ~sink)))

let rows_of (p : program) =
  List.map
    (fun ((ds : Workload.dataset), test) ->
      let sib = Workload.sibling p.w ds in
      let train =
        snd
          (List.find
             (fun ((d : Workload.dataset), _) -> d.ds_name = sib.ds_name)
             p.profiles)
      in
      let cfgs = p.compiled.Compile.cfgs in
      {
        label = p.w.Workload.name ^ "." ^ ds.ds_name;
        compiled = p.compiled;
        input = ds.input;
        train;
        test;
        blocks = Array.fold_left (fun a g -> a + Ba_cfg.Cfg.n_blocks g) 0 cfgs;
        original =
          lazy
            (span "eval.penalty" (fun () ->
                 let a = Driver.align Driver.Original model cfgs ~train in
                 ( Driver.analytic_penalty model a ~test,
                   (simulate p.compiled ds.input a).Ba_machine.Cycles.cycles )));
      })
    p.profiles

(** What a pass must reproduce exactly at a fixed seed. *)
type fingerprint = {
  mutable penalty : int;
  mutable original_penalty : int;
  mutable cert_cost : int;
  mutable hk_bound : int;
  mutable cycles : int;
  mutable original_cycles : int;
  mutable checksum : int;
}

let fresh () =
  {
    penalty = 0;
    original_penalty = 0;
    cert_cost = 0;
    hk_bound = 0;
    cycles = 0;
    original_cycles = 0;
    checksum = 0;
  }

type acc = {
  mutable attempted : int;
  mutable failed : int;
  align : Report.rate;
  verify : Report.rate;
  mutable simulate_s : float;
  mutable words : int;
  mutable first : fingerprint option;
}

let fail acc label what =
  acc.failed <- acc.failed + 1;
  Printf.eprintf "perfbench: paper-suite %s: %s\n%!" label what

(** Score one aligned row: penalty and simulated cycles on the testing
    input, against the original layout. *)
let score acc fp row (aligned : Driver.aligned) =
  let penalty =
    span "eval.penalty" (fun () ->
        Driver.analytic_penalty model aligned ~test:row.test)
  in
  let sim, sim_s =
    Spans.timed (fun () -> simulate row.compiled row.input aligned)
  in
  acc.simulate_s <- acc.simulate_s +. sim_s;
  if sim.Ba_machine.Cycles.penalty_cycles <> penalty then
    fail acc row.label "simulated penalty differs from the analytic one";
  let orig_penalty, orig_cycles = Lazy.force row.original in
  fp.penalty <- fp.penalty + penalty;
  fp.original_penalty <- fp.original_penalty + orig_penalty;
  fp.cycles <- fp.cycles + sim.Ba_machine.Cycles.cycles;
  fp.original_cycles <- fp.original_cycles + orig_cycles;
  Array.iter
    (fun o -> fp.checksum <- Report.checksum_into fp.checksum o)
    aligned.Driver.orders

let certified acc fp row (cert : Certify.t) =
  fp.cert_cost <- fp.cert_cost + cert.Certify.total_cost;
  List.iter
    (fun (c : Certify.proc_cert) ->
      match c.hk_bound with
      | Some b -> fp.hk_bound <- fp.hk_bound + b
      | None -> fail acc row.label "certificate without a Held-Karp bound")
    cert.Certify.procs

(** One row through the shipped entry points. *)
let plain_row acc fp meth row =
  let cfgs = row.compiled.Compile.cfgs in
  match
    Spans.timed (fun () -> Driver.align_checked meth model cfgs ~train:row.train)
  with
  | Error e, _ -> fail acc row.label (Ba_robust.Errors.to_string e)
  | Ok report, align_s -> (
      Report.add acc.align ~blocks:row.blocks ~secs:align_s;
      if report.Driver.fallbacks <> [] then
        fail acc row.label "a procedure fell back from the TSP aligner";
      let orders = report.Driver.aligned.Driver.orders in
      let cert, verify_s =
        Spans.timed (fun () ->
            Certify.program
              ~hk:(fun _ -> Certify.Compute Held_karp.default)
              model cfgs ~train:row.train ~orders)
      in
      Report.add acc.verify ~blocks:row.blocks ~secs:verify_s;
      score acc fp row report.Driver.aligned;
      match cert with
      | Ok cert -> certified acc fp row cert
      | Error f ->
          fail acc row.label
            (Printf.sprintf "uncertified %s: %s" f.Certify.fname
               (Certify.error_to_string f.Certify.error)))

(** The same row replayed through the layer calls, each under a span. *)
let traced_row acc fp (config : Tsp_align.config) row =
  let cfgs = row.compiled.Compile.cfgs in
  (match span "driver.self" (fun () -> Ba_check.Lint.gate ~profile:row.train cfgs) with
  | Ok () -> ()
  | Error e -> fail acc row.label (Ba_robust.Errors.to_string e));
  let seed = config.Tsp_align.solver.Ba_tsp.Iterated.seed in
  let parts =
    Array.mapi
      (fun fid cfg ->
        let profile = Profile.proc row.train fid in
        let inst =
          span "reduction.build" (fun () ->
              Ba_align.Reduction.build model cfg ~profile)
        in
        acc.words <-
          acc.words
          + span "guard.words" (fun () ->
                Obj.reachable_words (Obj.repr inst.Ba_align.Reduction.dtsp));
        (* the driver's per-procedure task stream *)
        let rng = Ba_engine.Task.seed_rng ~seed ~id:fid in
        let order, ok = Replay.guarded config ~rng inst in
        if not ok then fail acc row.label "replay differs from Iterated.solve";
        span "driver.self" (fun () ->
            let r, pred = Ba_align.Evaluate.realize model cfg ~order ~train:profile in
            (match Layout.check_semantics cfg r with
            | Ok () -> ()
            | Error m -> fail acc row.label m);
            (order, r, pred)))
      cfgs
  in
  let aligned =
    span "driver.self" (fun () ->
        {
          Driver.cfgs;
          orders = Array.map (fun (o, _, _) -> o) parts;
          realized = Array.map (fun (_, r, _) -> r) parts;
          predicted = Array.map (fun (_, _, p) -> p) parts;
          addr =
            Ba_machine.Addr.build
              (Array.map2 (fun g (_, r, _) -> (g, r)) cfgs parts);
          method_ = Driver.Tsp config;
        })
  in
  let procs =
    Array.to_list
      (Array.mapi
         (fun fid cfg ->
           let profile = Profile.proc row.train fid in
           let order = aligned.Driver.orders.(fid) in
           let bound =
             span "held_karp.bound" (fun () ->
                 let d, _ = Certify.dtsp_of model cfg ~profile in
                 Held_karp.directed_bound ~config:Held_karp.default d
                   ~upper_bound:(Certify.recompute_cost model cfg ~profile ~order))
           in
           match
             span "certify.check" (fun () ->
                 Certify.proc_cert ~hk:(Certify.Given bound) ~proc:fid model cfg
                   ~profile ~order)
           with
           | Ok c -> c
           | Error e ->
               fail acc row.label (Certify.error_to_string e);
               {
                 Certify.proc = fid;
                 name = cfg.Ba_cfg.Cfg.name;
                 n_blocks = 0;
                 cost = 0;
                 claimed = None;
                 hk_bound = Some 0;
                 sym_checked = false;
               })
         cfgs)
  in
  score acc fp row aligned;
  certified acc fp row
    {
      Certify.procs;
      total_cost = List.fold_left (fun a c -> a + c.Certify.cost) 0 procs;
    }

let run ~seed ~seconds ~trace : Report.result =
  let rows, setup_s =
    Report.setup_median
      ~repeats:(if trace then 1 else 3)
      (fun () -> List.concat_map rows_of (compile_suite ()))
  in
  (* The seed orders the rows; the solver keeps its default seed.  The
     kick trajectories decide which procedures end optimal, and that
     decides how soon each Held–Karp bound may stop, so a varying solver
     seed moved verification time by a fifth from seed to seed. *)
  let rows =
    Array.to_list
      (Report.shuffle (Random.State.make [| seed |]) (Array.of_list rows))
  in
  let config = Tsp_align.default in
  let acc =
    {
      attempted = 0;
      failed = 0;
      align = Report.rate ();
      verify = Report.rate ();
      simulate_s = 0.;
      words = 0;
      first = None;
    }
  in
  let pass _ =
    let fp = fresh () in
    span "pass" (fun () ->
        List.iter
          (fun row ->
            acc.attempted <- acc.attempted + 1;
            if trace then traced_row acc fp config row
            else plain_row acc fp (Driver.Tsp config) row)
          rows);
    Report.end_pass acc.align;
    Report.end_pass acc.verify;
    match acc.first with
    | None -> acc.first <- Some fp
    | Some first ->
        if first <> fp then fail acc "pass" "a repeated pass differs from the first"
  in
  let passes, wall_s = Report.measure ~seconds pass in
  let fp = Option.get acc.first in
  let ratio a b = float_of_int a /. float_of_int b in
  let quality =
    [
      ("penalty_ratio", Json.Float (ratio fp.penalty fp.original_penalty));
      ( "hk_gap",
        Json.Float (ratio (fp.cert_cost - fp.hk_bound) fp.hk_bound) );
      ("cycles_ratio", Json.Float (ratio fp.cycles fp.original_cycles));
      ("tour_checksum", Json.Int fp.checksum);
      ("rows", Json.Int (List.length rows));
      ("passes", Json.Int passes);
      ("wall_s", Json.Float wall_s);
      ("simulate_s_per_pass", Json.Float (acc.simulate_s /. float_of_int passes));
    ]
  in
  let metrics, detail =
    if trace then Report.layer_metrics ~passes ~words:acc.words
    else
      ( [
          Report.m "setup_s" "s" setup_s;
          Report.m "peak_rss_mb" "MB" (Report.peak_rss_mb ());
          Report.m "align_blocks_per_s" "blocks/s" (Report.median_rate acc.align);
          Report.m "verify_blocks_per_s" "blocks/s"
            (Report.median_rate acc.verify);
          Report.m "penalty_ratio" "ratio"
            (ratio fp.penalty fp.original_penalty);
        ],
        [] )
  in
  {
    Report.attempted = acc.attempted;
    failed = acc.failed;
    metrics;
    detail = ("quality", Json.Obj quality) :: detail;
  }
