(* scale-1e5: whole-program-scale procedures.

   Inputs: the loop-nest, switch and interp families of
   Ba_workloads.Scale at 10⁵ blocks.  Each is aligned by
   Reduction.build + Tsp_align.solve_instance with two runs (identity
   and greedy starts) of 32 kicks each, then certified by the sparse
   certifier without a bound.  Building the instances is set-up.  Here
   the per-kick O(n) bookkeeping and the sparse construction layers
   carry the cost, the reverse of paper-suite. *)

module Scale = Ba_workloads.Scale
module Layout = Ba_cfg.Layout
module Reduction = Ba_align.Reduction
module Tsp_align = Ba_align.Tsp_align
module Certify = Ba_check.Certify
module Json = Ba_obs.Json

let model = Ba_machine.Model.default
let span = Spans.with_
let n_blocks = 100_000

type family = {
  name : string;
  cfg : Ba_cfg.Cfg.t;
  profile : Ba_profile.Profile.proc;
  mutable original : int option;  (** cost of the identity layout *)
}

let setup () =
  List.map
    (fun fam ->
      let cfg, profile = Scale.instance fam ~n:n_blocks ~invocations:1024 in
      { name = Scale.name fam; cfg; profile; original = None })
    Scale.all

let run ~seed ~seconds ~trace : Report.result =
  let families, setup_s =
    Report.setup_median ~repeats:(if trace then 1 else 3) setup
  in
  let config =
    {
      Tsp_align.default with
      solver =
        {
          Tsp_align.default.solver with
          Ba_tsp.Iterated.runs = 2;
          max_kicks = 32;
          (* an unrandomized greedy start: the seed moves only the kicks,
             so the work of a pass hardly depends on it *)
          greedy_skip = 0.;
          seed;
        };
    }
  in
  let attempted = ref 0 and failed = ref 0 in
  let fail fam what =
    incr failed;
    Printf.eprintf "perfbench: scale-1e5 %s: %s\n%!" fam.name what
  in
  let align = Report.rate () and verify = Report.rate () in
  let words = ref 0 in
  let first = ref None in
  let timings = ref [] in
  let pass _ =
    let cost = ref 0 and original = ref 0 and checksum = ref 0 in
    span "pass" (fun () ->
        List.iteri
          (fun i fam ->
            incr attempted;
            let rng = Random.State.make [| seed; i |] in
            let (inst, order, claimed), a_s =
              Spans.timed (fun () ->
                  let inst =
                    span "reduction.build" (fun () ->
                        Reduction.build model fam.cfg ~profile:fam.profile)
                  in
                  if trace then begin
                    words :=
                      !words
                      + span "guard.words" (fun () ->
                            Obj.reachable_words
                              (Obj.repr inst.Reduction.dtsp));
                    let order, ok = Replay.guarded config ~rng inst in
                    if not ok then fail fam "replay differs from Iterated.solve";
                    (inst, order, None)
                  end
                  else begin
                    let r = Tsp_align.solve_instance ~config ~rng inst in
                    if r.Tsp_align.degraded <> None then
                      fail fam "the solve was cut short";
                    (inst, r.Tsp_align.order, Some r.Tsp_align.cost)
                  end)
            in
            (* certification takes tens of milliseconds: time it three
               times and keep the median *)
            let certs =
              List.init 3 (fun _ ->
                  Spans.timed (fun () ->
                      span "certify.check" (fun () ->
                          Certify.proc_cert ?claimed ~hk:Certify.Skip
                            ~sym_check:false ~proc:0 model fam.cfg
                            ~profile:fam.profile ~order)))
            in
            let cert = fst (List.hd certs) in
            let v_s = Report.median (List.map snd certs) in
            timings :=
              Json.Obj
                [
                  ("family", Json.String fam.name);
                  ("align_s", Json.Float a_s);
                  ("verify_s", Json.Float v_s);
                ]
              :: !timings;
            Report.add align ~blocks:n_blocks ~secs:a_s;
            Report.add verify ~blocks:n_blocks ~secs:v_s;
            (match cert with
            | Ok c -> cost := !cost + c.Certify.cost
            | Error e -> fail fam (Certify.error_to_string e));
            let orig =
              match fam.original with
              | Some c -> c
              | None ->
                  let c =
                    span "eval.penalty" (fun () ->
                        Reduction.layout_cost inst (Layout.identity fam.cfg))
                  in
                  fam.original <- Some c;
                  c
            in
            original := !original + orig;
            checksum := Report.checksum_into !checksum order)
          families);
    Report.end_pass align;
    Report.end_pass verify;
    let fp = (!cost, !original, !checksum) in
    match !first with
    | None -> first := Some fp
    | Some f ->
        if f <> fp then begin
          incr failed;
          prerr_endline "perfbench: scale-1e5: a repeated pass differs"
        end
  in
  let passes, wall_s = Report.measure ~seconds pass in
  let cost, original, checksum = Option.get !first in
  let penalty_ratio = float_of_int cost /. float_of_int original in
  let metrics, detail =
    if trace then Report.layer_metrics ~passes ~words:!words
    else
      ( [
          Report.m "setup_s" "s" setup_s;
          Report.m "peak_rss_mb" "MB" (Report.peak_rss_mb ());
          Report.m "align_blocks_per_s" "blocks/s" (Report.median_rate align);
          Report.m "verify_blocks_per_s" "blocks/s" (Report.median_rate verify);
          Report.m "penalty_ratio" "ratio" penalty_ratio;
        ],
        [] )
  in
  {
    Report.attempted = !attempted;
    failed = !failed;
    metrics;
    detail =
      ( "quality",
        Json.Obj
          [
            ("penalty_ratio", Json.Float penalty_ratio);
            ("tour_checksum", Json.Int checksum);
            ("passes", Json.Int passes);
            ("wall_s", Json.Float wall_s);
          ] )
      :: ("timings", Json.List (List.rev !timings))
      :: detail;
  }
