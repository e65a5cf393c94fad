(** Property suite for the certificate validator.

    Two directions: every layout the driver produces certifies cleanly
    (and the validator's from-scratch cost agrees with the reduction's
    walk cost), and every catalogued corruption of a valid layout is
    rejected with the matching certification error.  The corruptions
    are chosen so rejection is guaranteed, not seed-dependent: a block
    swap can yield another valid layout, so we mutate structure the
    walk/locked-pair/cost checks must catch. *)

open Ba_check
module Profile = Ba_profile.Profile
module Synthetic = Ba_harness.Synthetic
module Driver = Ba_align.Driver
module Penalties = Ba_machine.Penalties
module Sym = Ba_tsp.Sym

let penalties = Ba_machine.Model.alpha21164

let scenario ~seed =
  let rng = Random.State.make [| 0xCE57; seed |] in
  let n_procs = 1 + Random.State.int rng 3 in
  let cfgs =
    Array.init n_procs (fun _ ->
        Synthetic.cfg rng ~n:(2 + Random.State.int rng 10))
  in
  let procs =
    Array.map
      (fun g -> Synthetic.profile rng g ~invocations:20 ~max_steps:200)
      cfgs
  in
  (cfgs, { Profile.procs; calls = [] })

(** Procedure 0 of a scenario, with its greedy-aligned order. *)
let aligned_proc ~seed =
  let cfgs, profile = scenario ~seed in
  let row = profile.Profile.procs.(0) in
  let order =
    match Driver.align_proc Driver.Greedy penalties cfgs.(0) ~profile:row with
    | Ok order -> order
    | Error e -> Alcotest.fail (Ba_robust.Errors.to_string e)
  in
  (cfgs.(0), row, order)

let cert ?claimed ?hk ?sym_check ~seed mutate =
  let cfg, row, order = aligned_proc ~seed in
  let order = Array.copy order in
  mutate order;
  Certify.proc_cert ?claimed ?hk ?sym_check ~proc:0 penalties cfg
    ~profile:row ~order

let gen_seed = QCheck2.Gen.int_bound 1_000_000

let prop_align_certifies =
  QCheck2.Test.make ~count:75 ~name:"driver layouts always certify" gen_seed
    (fun seed ->
      let cfgs, profile = scenario ~seed in
      let check tag orders =
        match
          Certify.program penalties cfgs ~train:profile ~orders
        with
        | Ok c ->
            if c.Certify.total_cost < 0 then
              QCheck2.Test.fail_reportf "%s: negative total cost" tag;
            List.length c.Certify.procs = Array.length cfgs
        | Error f ->
            QCheck2.Test.fail_reportf "%s: proc %d (%s) rejected: %s" tag
              f.Certify.fproc f.Certify.fname
              (Certify.error_to_string f.Certify.error)
      in
      let greedy = Driver.align Driver.Greedy penalties cfgs ~train:profile in
      check "greedy" greedy.Driver.orders
      && check "original"
           (Array.map Ba_cfg.Layout.identity cfgs))

let prop_cost_matches_reduction =
  QCheck2.Test.make ~count:75
    ~name:"recomputed cost = reduction walk cost" gen_seed (fun seed ->
      let cfgs, profile = scenario ~seed in
      let aligned = Driver.align Driver.Greedy penalties cfgs ~train:profile in
      Array.for_all
        (fun fid ->
          let cfg = cfgs.(fid) in
          let row = profile.Profile.procs.(fid) in
          let order = aligned.Driver.orders.(fid) in
          let direct =
            Certify.recompute_cost penalties cfg ~profile:row ~order
          in
          let red = Ba_align.Reduction.build penalties cfg ~profile:row in
          let walk = Ba_align.Reduction.layout_cost red order in
          if direct <> walk then
            QCheck2.Test.fail_reportf "proc %d: direct %d <> walk %d" fid
              direct walk
          else true)
        (Array.init (Array.length cfgs) Fun.id))

let expect name pred = function
  | Error e when pred e -> true
  | Error e ->
      QCheck2.Test.fail_reportf "%s: wrong error %s" name
        (Certify.error_to_string e)
  | Ok _ -> QCheck2.Test.fail_reportf "%s: corrupted layout certified" name

let prop_duplicate_rejected =
  QCheck2.Test.make ~count:75 ~name:"duplicated block -> Not_permutation"
    gen_seed (fun seed ->
      cert ~seed (fun o -> o.(Array.length o - 1) <- o.(0))
      |> expect "duplicate" (function
           | Certify.Not_permutation _ -> true
           | _ -> false))

let prop_entry_rejected =
  QCheck2.Test.make ~count:75 ~name:"entry displaced -> Entry_not_first"
    gen_seed (fun seed ->
      cert ~seed (fun o ->
          let t = o.(0) in
          o.(0) <- o.(1);
          o.(1) <- t)
      |> expect "entry" (function
           | Certify.Entry_not_first _ -> true
           | _ -> false))

let prop_claimed_rejected =
  QCheck2.Test.make ~count:75 ~name:"inflated claim -> Cost_mismatch" gen_seed
    (fun seed ->
      let cfg, row, order = aligned_proc ~seed in
      let cost = Certify.recompute_cost penalties cfg ~profile:row ~order in
      cert ~claimed:(cost + 1) ~seed (fun _ -> ())
      |> expect "claimed" (function
           | Certify.Cost_mismatch { claimed; recomputed } ->
               claimed = cost + 1 && recomputed = cost
           | _ -> false))

let prop_bound_rejected =
  QCheck2.Test.make ~count:75
    ~name:"bound above cost -> Bound_exceeds_cost" gen_seed (fun seed ->
      let cfg, row, order = aligned_proc ~seed in
      let cost = Certify.recompute_cost penalties cfg ~profile:row ~order in
      cert ~hk:(Certify.Given (cost + 1)) ~seed (fun _ -> ())
      |> expect "bound" (function
           | Certify.Bound_exceeds_cost { bound; cost = c } ->
               bound = cost + 1 && c = cost
           | _ -> false))

let prop_locked_pair_rejected =
  QCheck2.Test.make ~count:75
    ~name:"broken locked pair -> Locked_pair_broken" gen_seed (fun seed ->
      let cfg, row, order = aligned_proc ~seed in
      let dtsp, dummy = Certify.dtsp_of penalties cfg ~profile:row in
      let sym = Sym.of_dtsp dtsp in
      let dtour = Array.append [| dummy |] order in
      let stour = Sym.expand sym dtour in
      (* [in c0; out c0; in c1; ...] with elements 1,2 swapped separates
         city 0's in/out pair (length >= 6: dummy + >= 2 blocks). *)
      let t = stour.(1) in
      stour.(1) <- stour.(2);
      stour.(2) <- t;
      match Certify.check_sym sym stour with
      | Error (Certify.Locked_pair_broken _) -> true
      | Error e ->
          QCheck2.Test.fail_reportf "wrong error %s"
            (Certify.error_to_string e)
      | Ok _ -> QCheck2.Test.fail_reportf "broken pair accepted")

let prop_sym_roundtrip =
  QCheck2.Test.make ~count:75 ~name:"intact sym tour round-trips" gen_seed
    (fun seed ->
      let cfg, row, order = aligned_proc ~seed in
      let dtsp, dummy = Certify.dtsp_of penalties cfg ~profile:row in
      let sym = Sym.of_dtsp dtsp in
      let dtour = Array.append [| dummy |] order in
      match Certify.check_sym sym (Sym.expand sym dtour) with
      | Ok recovered ->
          Ba_tsp.Dtsp.tour_cost dtsp recovered
          = Ba_tsp.Dtsp.tour_cost dtsp dtour
      | Error e ->
          QCheck2.Test.fail_reportf "intact tour rejected: %s"
            (Certify.error_to_string e))

let () =
  Alcotest.run "check-prop"
    [
      ( "certify",
        [
          QCheck_alcotest.to_alcotest prop_align_certifies;
          QCheck_alcotest.to_alcotest prop_cost_matches_reduction;
          QCheck_alcotest.to_alcotest prop_sym_roundtrip;
        ] );
      ( "adversarial",
        [
          QCheck_alcotest.to_alcotest prop_duplicate_rejected;
          QCheck_alcotest.to_alcotest prop_entry_rejected;
          QCheck_alcotest.to_alcotest prop_claimed_rejected;
          QCheck_alcotest.to_alcotest prop_bound_rejected;
          QCheck_alcotest.to_alcotest prop_locked_pair_rejected;
        ] );
    ]
