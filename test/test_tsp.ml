(* Tests for the TSP substrate: construction heuristics, symmetrization,
   3-opt, iterated 3-opt, exact DP, and both lower bounds. *)

open Ba_tsp

let rng = Random.State.make [| 42 |]

let random_dtsp ?(max_cost = 100) n =
  Dtsp.make
    (Array.init n (fun i ->
         Array.init n (fun j ->
             if i = j then 0 else Random.State.int rng (max_cost + 1))))

(* ---------------- Dtsp basics ---------------- *)

let test_tour_cost () =
  let d = Dtsp.make [| [| 0; 1; 9 |]; [| 9; 0; 2 |]; [| 3; 9; 0 |] |] in
  Alcotest.(check int) "cycle 0-1-2" 6 (Dtsp.tour_cost d [| 0; 1; 2 |]);
  Alcotest.(check int) "cycle 0-2-1" 27 (Dtsp.tour_cost d [| 0; 2; 1 |])

let test_tour_cost_rejects_non_tour () =
  let d = random_dtsp 4 in
  Alcotest.check_raises "duplicate city" (Invalid_argument "Dtsp.tour_cost: not a tour")
    (fun () -> ignore (Dtsp.tour_cost d [| 0; 1; 1; 3 |]))

let test_rotate () =
  let t = Dtsp.rotate_to [| 3; 1; 0; 2 |] 0 in
  Alcotest.(check (array int)) "rotated" [| 0; 2; 3; 1 |] t

(* ---------------- construction ---------------- *)

let test_nn_is_tour () =
  for n = 2 to 12 do
    let d = random_dtsp n in
    let t = Construct.nearest_neighbor d ~start:0 in
    Alcotest.(check bool) (Printf.sprintf "nn tour n=%d" n) true (Dtsp.is_tour d t)
  done

let test_greedy_is_tour () =
  for n = 2 to 12 do
    let d = random_dtsp n in
    let t = Construct.greedy_edge d in
    Alcotest.(check bool) (Printf.sprintf "greedy tour n=%d" n) true (Dtsp.is_tour d t)
  done

let test_randomized_constructions_are_tours () =
  let d = random_dtsp 15 in
  for _ = 1 to 20 do
    let t1 = Construct.greedy_edge ~rng ~skip_prob:0.3 d in
    let t2 =
      Construct.nearest_neighbor ~rng ~choices:3 d ~start:(Random.State.int rng 15)
    in
    Alcotest.(check bool) "greedy" true (Dtsp.is_tour d t1);
    Alcotest.(check bool) "nn" true (Dtsp.is_tour d t2)
  done

let test_nn_on_easy_instance () =
  (* a directed ring with cheap forward edges: nn from 0 must follow it *)
  let n = 8 in
  let d =
    Dtsp.make
      (Array.init n (fun i ->
           Array.init n (fun j -> if j = (i + 1) mod n then 1 else 50)))
  in
  let t = Construct.nearest_neighbor d ~start:0 in
  Alcotest.(check int) "optimal ring found" n (Dtsp.tour_cost d t)

(* ---------------- symmetrization ---------------- *)

let test_sym_roundtrip () =
  for n = 2 to 10 do
    let d = random_dtsp n in
    let s = Sym.of_dtsp d in
    let dtour = Construct.nearest_neighbor d ~start:0 in
    let stour = Sym.expand s dtour in
    Alcotest.(check bool) "alternating" true (Sym.check_alternating s stour);
    let back = Sym.extract s stour in
    (* the extracted tour is the same cycle, possibly rotated *)
    Alcotest.(check (array int))
      (Printf.sprintf "roundtrip n=%d" n)
      (Dtsp.rotate_to dtour 0) (Dtsp.rotate_to back 0)
  done

let test_sym_cost_offset () =
  for n = 2 to 10 do
    let d = random_dtsp n in
    let s = Sym.of_dtsp d in
    let dtour = Construct.greedy_edge d in
    let stour = Sym.expand s dtour in
    Alcotest.(check int)
      (Printf.sprintf "offset identity n=%d" n)
      (Dtsp.tour_cost d dtour)
      (Sym.tour_cost s stour + s.Sym.offset)
  done

let test_sym_reversed_extract () =
  let d = random_dtsp 6 in
  let s = Sym.of_dtsp d in
  let dtour = [| 0; 3; 1; 5; 2; 4 |] in
  let stour = Sym.expand s dtour in
  let rev = Array.init (Array.length stour) (fun i ->
      stour.(Array.length stour - 1 - i)) in
  let back = Sym.extract s rev in
  (* reversing the symmetric tour must recover the same directed cycle *)
  Alcotest.(check (array int)) "reversed" (Dtsp.rotate_to dtour 0)
    (Dtsp.rotate_to back 0)

(* The 3-Opt gain bound sums up to four costs of at most [inf] each, so
   [Sym.of_dtsp] refuses instances where that could wrap. *)
let two_city cost = Dtsp.make [| [| 0; cost |]; [| cost; 0 |] |]

let test_sym_rejects_wrapping_costs () =
  Alcotest.check_raises "cost near max_int/16"
    (Invalid_argument "Sym.of_dtsp: max_cost too large for 63-bit gain sums")
    (fun () -> ignore (Sym.of_dtsp (two_city (max_int / 16))))

(* the largest cost the lint gate admits: a BA208-limit count times the
   largest per-transfer penalty of any control-penalty model *)
let test_sym_admits_lint_clean_costs () =
  let penalty (m : Ba_machine.Model.t) =
    let p = m.Ba_machine.Model.penalties in
    Ba_machine.Penalties.(
      List.fold_left max 0
        [ p.uncond_taken; p.cond_fall_correct; p.cond_taken_correct;
          p.cond_mispredict; p.multi_correct; p.multi_mispredict ])
  in
  let pmax =
    List.fold_left max 0
      (List.map penalty
         Ba_machine.Model.[ alpha21164; deep_pipeline; free_fetch ])
  in
  let cost = Ba_profile.Profile.overflow_guard * pmax in
  let s = Sym.of_dtsp (two_city cost) in
  Alcotest.(check bool) "4·inf fits" true (s.Sym.inf <= max_int / 4)

(* ---------------- 3-opt ---------------- *)

let three_opt_improves d =
  let s = Sym.of_dtsp d in
  let nbr = Neighbors.of_sym s ~k:8 in
  let start = Construct.identity d.Dtsp.n in
  let st = Three_opt.init s ~nbr ~tour:(Sym.expand s start) in
  Three_opt.activate_all st;
  Three_opt.run st;
  let final = Three_opt.tour st in
  Alcotest.(check bool) "still alternating" true (Sym.check_alternating s final);
  let c0 = Dtsp.tour_cost d start
  and c1 = Sym.tour_cost s final + s.Sym.offset in
  Alcotest.(check bool) "no worse than start" true (c1 <= c0);
  c1

let test_three_opt_preserves_structure () =
  for n = 4 to 12 do
    ignore (three_opt_improves (random_dtsp n))
  done

let test_three_opt_finds_ring () =
  (* cheap directed ring hidden in an expensive matrix; 3-opt from the
     identity should find a tour no worse than greedy construction *)
  let n = 10 in
  let perm = [| 0; 7; 3; 9; 1; 4; 8; 2; 6; 5 |] in
  let m =
    Array.init n (fun i -> Array.init n (fun j -> if j = i then 0 else 100))
  in
  Array.iteri (fun k p -> m.(p).(perm.((k + 1) mod n)) <- 1) perm;
  let d = Dtsp.make m in
  let c = three_opt_improves d in
  Alcotest.(check bool) "close to optimal ring" true (c <= 3 * n)

(* ---------------- exact solver ---------------- *)

let test_exact_small_by_enumeration () =
  (* compare the DP against explicit enumeration of all (n-1)! tours *)
  let rec perms = function
    | [] -> [ [] ]
    | l -> List.concat_map (fun x -> List.map (fun p -> x :: p) (perms (List.filter (( <> ) x) l))) l
  in
  for n = 3 to 6 do
    let d = random_dtsp n in
    let rest = List.init (n - 1) (fun i -> i + 1) in
    let best =
      perms rest
      |> List.map (fun p -> Dtsp.tour_cost d (Array.of_list (0 :: p)))
      |> List.fold_left min max_int
    in
    let tour, cost = Exact.solve d in
    Alcotest.(check bool) "valid" true (Dtsp.is_tour d tour);
    Alcotest.(check int) (Printf.sprintf "dp tour cost n=%d" n) cost
      (Dtsp.tour_cost d tour);
    Alcotest.(check int) (Printf.sprintf "dp optimal n=%d" n) best cost
  done

let test_exact_rejects_large () =
  let d = random_dtsp 19 in
  Alcotest.check_raises "too large"
    (Invalid_argument "Exact.solve: instance too large") (fun () ->
      ignore (Exact.solve d))

(* ---------------- iterated solver vs exact ---------------- *)

let test_iterated_matches_exact () =
  let hits = ref 0 and total = ref 0 in
  for n = 4 to 11 do
    for _ = 1 to 3 do
      incr total;
      let d = random_dtsp n in
      let tour, stats = Iterated.solve d in
      Alcotest.(check bool) "valid tour" true (Dtsp.is_tour d tour);
      Alcotest.(check int) "reported cost is tour cost" stats.Iterated.best_cost
        (Dtsp.tour_cost d tour);
      let opt = Exact.optimal_cost d in
      Alcotest.(check bool) "not below optimum" true (stats.Iterated.best_cost >= opt);
      if stats.Iterated.best_cost = opt then incr hits
    done
  done;
  (* the solver should find the optimum on nearly all tiny instances *)
  Alcotest.(check bool)
    (Printf.sprintf "optimum found on %d/%d" !hits !total)
    true
    (!hits * 10 >= !total * 9)

let test_iterated_deterministic () =
  let d = random_dtsp 9 in
  let _, s1 = Iterated.solve d in
  let _, s2 = Iterated.solve d in
  Alcotest.(check int) "same cost for same seed" s1.Iterated.best_cost
    s2.Iterated.best_cost

(* ---------------- lower bounds ---------------- *)

let test_ap_bound_below_optimum () =
  for n = 4 to 10 do
    let d = random_dtsp n in
    let opt = Exact.optimal_cost d in
    let ap = Hungarian.ap_bound d in
    Alcotest.(check bool) (Printf.sprintf "ap <= opt n=%d" n) true (ap <= opt)
  done

let test_hungarian_known () =
  (* classic 3x3 assignment *)
  let c = [| 4; 1; 3; 2; 0; 5; 3; 2; 2 |] in
  let assignment, total = Hungarian.solve ~n:3 c in
  Alcotest.(check int) "optimal assignment cost" 5 total;
  (* check it is a permutation achieving the cost *)
  let seen = Array.make 3 false in
  Array.iter (fun j -> seen.(j) <- true) assignment;
  Alcotest.(check bool) "permutation" true (Array.for_all Fun.id seen)

let test_hungarian_identity () =
  let n = 5 in
  let c = Array.init (n * n) (fun k -> if k / n = k mod n then 0 else 10) in
  let _, total = Hungarian.solve ~n c in
  Alcotest.(check int) "diagonal optimal" 0 total

let test_hk_bound_brackets_optimum () =
  for n = 4 to 10 do
    let d = random_dtsp n in
    let tour, stats = Iterated.solve d in
    ignore tour;
    let opt = Exact.optimal_cost d in
    let hk = Held_karp.directed_bound d ~upper_bound:stats.Iterated.best_cost in
    Alcotest.(check bool)
      (Printf.sprintf "hk %d <= opt %d (n=%d)" hk opt n)
      true (hk <= opt)
  done

let test_hk_tight_on_ring () =
  (* on a pure directed ring the bound should be very close to n *)
  let n = 12 in
  let d =
    Dtsp.make
      (Array.init n (fun i ->
           Array.init n (fun j -> if j = (i + 1) mod n then 1 else 40)))
  in
  let _, stats = Iterated.solve d in
  Alcotest.(check int) "solver finds ring" n stats.Iterated.best_cost;
  let hk = Held_karp.directed_bound d ~upper_bound:stats.Iterated.best_cost in
  Alcotest.(check bool)
    (Printf.sprintf "hk=%d close to %d" hk n)
    true
    (hk <= n && hk >= n - 2)

(* ---------------- patching heuristic ---------------- *)

let test_patching_is_tour () =
  for n = 2 to 14 do
    let d = random_dtsp n in
    let tour, cost = Patching.solve d in
    Alcotest.(check bool) (Printf.sprintf "tour n=%d" n) true (Dtsp.is_tour d tour);
    Alcotest.(check int) "reported cost" (Dtsp.tour_cost d tour) cost
  done

let test_patching_bracketed () =
  for n = 4 to 10 do
    let d = random_dtsp n in
    let _, cost = Patching.solve d in
    let opt = Exact.optimal_cost d in
    let ap = Hungarian.ap_bound d in
    Alcotest.(check bool)
      (Printf.sprintf "ap %d <= opt %d <= patching %d (n=%d)" ap opt cost n)
      true
      (ap <= opt && opt <= cost)
  done

let test_patching_exact_when_ap_is_single_cycle () =
  (* a directed ring: the AP solution is already one cycle, so patching
     must return the optimum *)
  let n = 9 in
  let d =
    Dtsp.make
      (Array.init n (fun i ->
           Array.init n (fun j -> if j = (i + 1) mod n then 1 else 50)))
  in
  let _, cost = Patching.solve d in
  Alcotest.(check int) "ring solved exactly" n cost

let test_patching_usually_loses_to_3opt () =
  (* on structured (non-random) instances, iterated 3-opt should be at
     least as good as patching overall — the appendix's claim *)
  let total_patch = ref 0 and total_3opt = ref 0 in
  for seed = 0 to 9 do
    let st = Random.State.make [| seed |] in
    (* clustered costs: two groups with cheap intra-group edges *)
    let n = 12 in
    let d =
      Dtsp.make
        (Array.init n (fun i ->
             Array.init n (fun j ->
                 if i = j then 0
                 else if i / 6 = j / 6 then Random.State.int st 10
                 else 50 + Random.State.int st 50)))
    in
    total_patch := !total_patch + snd (Patching.solve d);
    let _, s = Iterated.solve d in
    total_3opt := !total_3opt + s.Iterated.best_cost
  done;
  Alcotest.(check bool)
    (Printf.sprintf "3opt %d <= patching %d" !total_3opt !total_patch)
    true
    (!total_3opt <= !total_patch)

(* ---------------- qcheck properties ---------------- *)

let gen_dtsp =
  QCheck2.Gen.(
    let* n = int_range 4 12 in
    let* seed = int_bound 1_000_000 in
    return (n, seed))

let make_instance (n, seed) =
  let st = Random.State.make [| seed |] in
  Dtsp.make
    (Array.init n (fun i ->
         Array.init n (fun j -> if i = j then 0 else Random.State.int st 1000)))

let prop_solver_bracketed =
  QCheck2.Test.make ~count:30 ~name:"hk <= exact <= iterated on random instances"
    gen_dtsp (fun spec ->
      let d = make_instance spec in
      let _, stats = Iterated.solve d in
      let opt = Exact.optimal_cost d in
      let hk = Held_karp.directed_bound d ~upper_bound:stats.Iterated.best_cost in
      let ap = Hungarian.ap_bound d in
      hk <= opt && ap <= opt && stats.Iterated.best_cost >= opt)

let prop_sym_roundtrip =
  QCheck2.Test.make ~count:50 ~name:"sym expand/extract roundtrip" gen_dtsp
    (fun spec ->
      let d = make_instance spec in
      let s = Sym.of_dtsp d in
      let t = Construct.greedy_edge d in
      let back = Sym.extract s (Sym.expand s t) in
      Dtsp.rotate_to back 0 = Dtsp.rotate_to t 0)

let () =
  Alcotest.run "ba_tsp"
    [
      ( "dtsp",
        [
          Alcotest.test_case "tour cost" `Quick test_tour_cost;
          Alcotest.test_case "rejects non-tour" `Quick test_tour_cost_rejects_non_tour;
          Alcotest.test_case "rotate" `Quick test_rotate;
        ] );
      ( "construct",
        [
          Alcotest.test_case "nearest neighbor is a tour" `Quick test_nn_is_tour;
          Alcotest.test_case "greedy edge is a tour" `Quick test_greedy_is_tour;
          Alcotest.test_case "randomized variants are tours" `Quick
            test_randomized_constructions_are_tours;
          Alcotest.test_case "nn finds easy ring" `Quick test_nn_on_easy_instance;
        ] );
      ( "sym",
        [
          Alcotest.test_case "roundtrip" `Quick test_sym_roundtrip;
          Alcotest.test_case "cost offset" `Quick test_sym_cost_offset;
          Alcotest.test_case "reversed extract" `Quick test_sym_reversed_extract;
          Alcotest.test_case "rejects wrapping costs" `Quick
            test_sym_rejects_wrapping_costs;
          Alcotest.test_case "admits lint-clean costs" `Quick
            test_sym_admits_lint_clean_costs;
        ] );
      ( "three-opt",
        [
          Alcotest.test_case "preserves locked structure" `Quick
            test_three_opt_preserves_structure;
          Alcotest.test_case "finds hidden ring" `Quick test_three_opt_finds_ring;
        ] );
      ( "exact",
        [
          Alcotest.test_case "matches enumeration" `Quick test_exact_small_by_enumeration;
          Alcotest.test_case "rejects large instances" `Quick test_exact_rejects_large;
        ] );
      ( "iterated",
        [
          Alcotest.test_case "matches exact on small instances" `Slow
            test_iterated_matches_exact;
          Alcotest.test_case "deterministic" `Quick test_iterated_deterministic;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "ap below optimum" `Quick test_ap_bound_below_optimum;
          Alcotest.test_case "hungarian known instance" `Quick test_hungarian_known;
          Alcotest.test_case "hungarian identity" `Quick test_hungarian_identity;
          Alcotest.test_case "hk brackets optimum" `Quick test_hk_bound_brackets_optimum;
          Alcotest.test_case "hk tight on ring" `Quick test_hk_tight_on_ring;
        ] );
      ( "patching",
        [
          Alcotest.test_case "produces tours" `Quick test_patching_is_tour;
          Alcotest.test_case "bracketed by ap and opt" `Quick test_patching_bracketed;
          Alcotest.test_case "exact on single-cycle AP" `Quick
            test_patching_exact_when_ap_is_single_cycle;
          Alcotest.test_case "loses to 3-opt on structured instances" `Quick
            test_patching_usually_loses_to_3opt;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_solver_bracketed;
          QCheck_alcotest.to_alcotest prop_sym_roundtrip;
        ] );
    ]
