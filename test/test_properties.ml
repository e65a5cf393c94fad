(* Cross-cutting property tests and stress tests that span libraries. *)

open Ba_cfg

let p = Ba_machine.Model.alpha21164

(* ---------------- generators ---------------- *)

let gen_seed = QCheck2.Gen.int_bound 1_000_000

let cfg_of_seed ?(min_n = 2) ?(max_n = 14) seed =
  let rng = Random.State.make [| seed |] in
  let n = min_n + Random.State.int rng (max_n - min_n + 1) in
  Ba_testutil.Gen.cfg rng ~n

let random_order rng (g : Cfg.t) =
  let n = Cfg.n_blocks g in
  let o = Array.init n (fun i -> i) in
  for i = n - 1 downto 2 do
    let j = 1 + Random.State.int rng i in
    let t = o.(i) in
    o.(i) <- o.(j);
    o.(j) <- t
  done;
  o

(* ---------------- layout algebra ---------------- *)

let prop_positions_inverse =
  QCheck2.Test.make ~count:100 ~name:"positions inverts order" gen_seed
    (fun seed ->
      let g = cfg_of_seed seed in
      let o = random_order (Random.State.make [| seed + 1 |]) g in
      let pos = Layout.positions o in
      Array.for_all (fun i -> pos.(o.(i)) = i) (Array.init (Array.length o) Fun.id))

let prop_layout_successor_consistent =
  QCheck2.Test.make ~count:100 ~name:"layout successor matches positions"
    gen_seed (fun seed ->
      let g = cfg_of_seed seed in
      let o = random_order (Random.State.make [| seed + 2 |]) g in
      let pos = Layout.positions o and succ = Layout.layout_successor o in
      Array.for_all
        (fun l ->
          match succ.(l) with
          | None -> pos.(l) = Array.length o - 1
          | Some s -> pos.(s) = pos.(l) + 1)
        (Array.init (Array.length o) Fun.id))

(* ---------------- realization semantics ---------------- *)

let prop_realize_preserves_destinations =
  QCheck2.Test.make ~count:100
    ~name:"realized layouts reach exactly the CFG successors" gen_seed
    (fun seed ->
      let g = cfg_of_seed seed in
      let rng = Random.State.make [| seed + 3 |] in
      let prof =
        Ba_testutil.Gen.profile_of ~seed g ~invocations:10 ~max_steps:40
      in
      let pr = Ba_profile.Profile.proc prof 0 in
      let order = random_order rng g in
      let r, _ = Ba_align.Evaluate.realize p g ~order ~train:pr in
      Layout.check_semantics g r = Ok ())

let prop_transfer_penalties_bounded =
  QCheck2.Test.make ~count:100
    ~name:"per-transfer penalties within model bounds" gen_seed (fun seed ->
      let g = cfg_of_seed seed in
      let rng = Random.State.make [| seed + 4 |] in
      let prof = Ba_testutil.Gen.profile_of ~seed g ~invocations:10 ~max_steps:40 in
      let pr = Ba_profile.Profile.proc prof 0 in
      let order = random_order rng g in
      let r, pred = Ba_align.Evaluate.realize p g ~order ~train:pr in
      let pen = p.Ba_machine.Model.penalties in
      let upper = pen.Ba_machine.Penalties.cond_mispredict + pen.Ba_machine.Penalties.uncond_taken in
      let ok = ref true in
      Cfg.iter
        (fun b ->
          let l = b.Block.id in
          List.iter
            (fun dest ->
              match r.Layout.terms.(l) with
              | Layout.R_exit -> ()
              | rt ->
                  let c =
                    Ba_machine.Cost.transfer_penalty p.Ba_machine.Model.penalties rt
                      ~predicted:pred.(l)
                      ~dest
                  in
                  if c < 0 || c > upper then ok := false)
            (Block.distinct_successors b))
        g;
      !ok)

(* ---------------- procedure ordering ---------------- *)

let prop_proc_order_permutation =
  QCheck2.Test.make ~count:100 ~name:"proc orderings are permutations" gen_seed
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 2 + Random.State.int rng 12 in
      let calls =
        List.init (Random.State.int rng 20) (fun _ ->
            (Random.State.int rng n, Random.State.int rng n, 1 + Random.State.int rng 100))
      in
      let is_perm o =
        Array.length o = n
        &&
        let seen = Array.make n false in
        Array.for_all
          (fun x ->
            x >= 0 && x < n
            &&
            if seen.(x) then false
            else (
              seen.(x) <- true;
              true))
          o
      in
      is_perm (Ba_align.Proc_order.order ~n_procs:n ~entry:0 calls)
      && is_perm (Ba_align.Proc_order.by_weight ~n_procs:n ~entry:0 calls))

(* ---------------- caches and predictors ---------------- *)

let prop_icache_misses_bounded =
  QCheck2.Test.make ~count:60 ~name:"icache misses <= accesses" gen_seed
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let c = Ba_machine.Icache.create Ba_machine.Icache.alpha_l1 in
      for _ = 1 to 200 do
        ignore
          (Ba_machine.Icache.touch_range c
             ~addr:(Random.State.int rng 10_000)
             ~ninstr:(1 + Random.State.int rng 40))
      done;
      Ba_machine.Icache.misses c <= Ba_machine.Icache.accesses c
      && Ba_machine.Icache.miss_ratio c <= 1.0)

let prop_predictor_consistent =
  QCheck2.Test.make ~count:60 ~name:"predictor predicts what it was trained on"
    gen_seed (fun seed ->
      let rng = Random.State.make [| seed |] in
      let t = Ba_machine.Predictor.create Ba_machine.Predictor.default in
      let addr = Random.State.int rng 100_000 in
      let dir = Random.State.bool rng in
      for _ = 1 to 4 do
        Ba_machine.Predictor.update_cond t ~addr ~taken:dir
      done;
      Ba_machine.Predictor.predict_taken t ~addr = dir)

(* ---------------- bounds bracket everything ---------------- *)

let prop_bounds_bracket_alignment =
  QCheck2.Test.make ~count:25
    ~name:"hk <= exact <= tsp <= {greedy, calder} on random procedures"
    gen_seed (fun seed ->
      let g = cfg_of_seed ~min_n:3 ~max_n:10 seed in
      let prof = Ba_testutil.Gen.profile_of ~seed g ~invocations:15 ~max_steps:50 in
      let pr = Ba_profile.Profile.proc prof 0 in
      let tsp = (Ba_align.Tsp_align.align p g ~profile:pr).Ba_align.Tsp_align.cost in
      let pen o = Ba_align.Evaluate.proc_penalty p g ~order:o ~train:pr ~test:pr in
      let greedy = pen (Ba_align.Greedy.align g ~profile:pr) in
      let calder = pen (Ba_align.Calder.align p g ~profile:pr) in
      let hk = Ba_align.Bounds.held_karp p g ~profile:pr ~upper:tsp in
      hk <= tsp && tsp <= greedy && tsp <= calder)

(* ---------------- solver robustness ---------------- *)

let dtsp_of_seed ?(min_n = 5) ?(max_n = 12) seed =
  let g = cfg_of_seed ~min_n ~max_n seed in
  let prof =
    Ba_profile.Profile.proc
      (Ba_testutil.Gen.profile_of ~seed g ~invocations:12 ~max_steps:60)
      0
  in
  (Ba_align.Reduction.build p g ~profile:prof).Ba_align.Reduction.dtsp

(* A double-bridge kick reorders whole segments; it must never separate
   an in-city from its locked out-city, or the tour stops encoding a
   block order. *)
let prop_double_bridge_preserves_locked_pairs =
  QCheck2.Test.make ~count:60
    ~name:"double_bridge never cuts a locked intra-pair edge" gen_seed
    (fun seed ->
      let d = dtsp_of_seed seed in
      let s = Ba_tsp.Sym.of_dtsp d in
      let nbr = Ba_tsp.Neighbors.of_sym s ~k:8 in
      let n2 = s.Ba_tsp.Sym.nn in
      let st =
        Ba_tsp.Three_opt.init s ~nbr ~tour:(Array.init n2 Fun.id)
      in
      let rng = Random.State.make [| seed + 11 |] in
      let ok = ref true in
      for _ = 1 to 25 do
        ignore (Ba_tsp.Iterated.double_bridge st rng);
        let tour = Ba_tsp.Three_opt.tour st in
        if not (Ba_tsp.Sym.check_alternating s tour) then ok := false;
        (* explicit adjacency: city 2i and 2i+1 are cyclic neighbors *)
        let pos = Array.make n2 0 in
        Array.iteri (fun i c -> pos.(c) <- i) tour;
        for i = 0 to (n2 / 2) - 1 do
          let a = pos.(2 * i) and b = pos.((2 * i) + 1) in
          let dist = (b - a + n2) mod n2 in
          if dist <> 1 && dist <> n2 - 1 then ok := false
        done
      done;
      !ok)

(* Whatever the budget — zero deadline, a few milliseconds, none —
   the solver must hand back a valid Hamiltonian walk whose cost is the
   tour's true directed cost and at least the Held–Karp bound. *)
let prop_budgeted_solve_valid =
  QCheck2.Test.make ~count:40
    ~name:"solve under any budget: valid tour, cost >= HK bound" gen_seed
    (fun seed ->
      let d = dtsp_of_seed seed in
      let budgets =
        [
          Some (Ba_robust.Budget.create ~deadline_ms:0 ());
          Some (Ba_robust.Budget.create ~deadline_ms:(seed mod 4) ());
          None (* no limit *);
        ]
      in
      let light =
        { Ba_tsp.Held_karp.iterations = 400; lambda0 = 2.0; patience = 40 }
      in
      List.for_all
        (fun budget ->
          let tour, stats = Ba_tsp.Iterated.solve ?budget d in
          Ba_tsp.Dtsp.is_tour d tour
          && stats.Ba_tsp.Iterated.best_cost = Ba_tsp.Dtsp.tour_cost d tour
          &&
          let hk =
            Ba_tsp.Held_karp.directed_bound ~config:light d
              ~upper_bound:stats.Ba_tsp.Iterated.best_cost
          in
          hk <= stats.Ba_tsp.Iterated.best_cost)
        budgets)

(* ---------------- stress: large instance ---------------- *)

let test_stress_large_procedure () =
  (* a 150-block synthetic procedure: the heuristic must return a valid
     layout in bounded work and stay near the (lightly converged) bound *)
  let rng = Random.State.make [| 4242 |] in
  let g = Ba_harness.Synthetic.cfg rng ~n:150 in
  let prof = Ba_harness.Synthetic.profile rng g ~invocations:120 ~max_steps:400 in
  let config =
    { Ba_align.Tsp_align.default with Ba_align.Tsp_align.exact_below = 0 }
  in
  let r = Ba_align.Tsp_align.align ~config p g ~profile:prof in
  Alcotest.(check bool) "valid layout" true (Layout.is_valid g r.Ba_align.Tsp_align.order);
  let light = { Ba_tsp.Held_karp.iterations = 2_000; lambda0 = 2.0; patience = 60 } in
  let inst = Ba_align.Reduction.build p g ~profile:prof in
  let hk =
    Ba_tsp.Held_karp.directed_bound ~config:light inst.Ba_align.Reduction.dtsp
      ~upper_bound:r.Ba_align.Tsp_align.cost
  in
  Alcotest.(check bool)
    (Printf.sprintf "bound %d <= tour %d" hk r.Ba_align.Tsp_align.cost)
    true
    (hk <= r.Ba_align.Tsp_align.cost);
  (* the greedy baseline should not beat the TSP aligner even here *)
  let greedy =
    Ba_align.Evaluate.proc_penalty p g
      ~order:(Ba_align.Greedy.align g ~profile:prof)
      ~train:prof ~test:prof
  in
  Alcotest.(check bool)
    (Printf.sprintf "tsp %d <= greedy %d at n=150" r.Ba_align.Tsp_align.cost greedy)
    true
    (r.Ba_align.Tsp_align.cost <= greedy)

let () =
  Alcotest.run "properties"
    [
      ( "layout",
        [
          QCheck_alcotest.to_alcotest prop_positions_inverse;
          QCheck_alcotest.to_alcotest prop_layout_successor_consistent;
        ] );
      ( "realization",
        [
          QCheck_alcotest.to_alcotest prop_realize_preserves_destinations;
          QCheck_alcotest.to_alcotest prop_transfer_penalties_bounded;
        ] );
      ( "proc-order",
        [ QCheck_alcotest.to_alcotest prop_proc_order_permutation ] );
      ( "machine",
        [
          QCheck_alcotest.to_alcotest prop_icache_misses_bounded;
          QCheck_alcotest.to_alcotest prop_predictor_consistent;
        ] );
      ("bounds", [ QCheck_alcotest.to_alcotest prop_bounds_bracket_alignment ]);
      ( "solver",
        [
          QCheck_alcotest.to_alcotest prop_double_bridge_preserves_locked_pairs;
          QCheck_alcotest.to_alcotest prop_budgeted_solve_valid;
        ] );
      ( "stress",
        [ Alcotest.test_case "150-block procedure" `Slow test_stress_large_procedure ] );
    ]
