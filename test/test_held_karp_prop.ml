(** Differential suite for the Held–Karp bound ({!Ba_tsp.Held_karp}).

    The shipped 1-tree of a symmetrized instance is the pair step or,
    where its premises fail, a fused, allocation-free Prim, and the
    shipped [directed_bound] stops once its rounded bound reaches the
    tour cost.  Both are pinned here against test-local copies of the
    textbook two-pass Prim and the full ascent without that stop: the
    1-tree's weight must agree bit for bit and its degrees exactly, on
    both sides of the pair-step premises, and every integer bound must
    be the one the full ascent rounds to.  A section covers the
    float-exact guard and its certificate failure; the last holds every
    paper-suite ascent to the bound it reached before λ could recover. *)

open Ba_tsp
module Metrics = Ba_obs.Metrics

let gen_seed = QCheck2.Gen.int_bound 1_000_000

(* ------------------------------------------------------------------ *)
(* oracles: the two-pass Prim and the ascent without the integral stop *)

let oracle_one_tree ~n (cost : int array) (pi : float array) =
  let w u v = float_of_int cost.((u * n) + v) +. pi.(u) +. pi.(v) in
  let deg = Array.make n 0 in
  let in_tree = Array.make n false in
  let best = Array.make n infinity and parent = Array.make n (-1) in
  in_tree.(1) <- true;
  for v = 2 to n - 1 do
    best.(v) <- w 1 v;
    parent.(v) <- 1
  done;
  let weight = ref 0.0 in
  for _ = 2 to n - 1 do
    let u = ref (-1) in
    for v = 2 to n - 1 do
      if (not in_tree.(v)) && (!u < 0 || best.(v) < best.(!u)) then u := v
    done;
    let u = !u in
    in_tree.(u) <- true;
    weight := !weight +. best.(u);
    deg.(u) <- deg.(u) + 1;
    deg.(parent.(u)) <- deg.(parent.(u)) + 1;
    for v = 2 to n - 1 do
      if (not in_tree.(v)) && w u v < best.(v) then begin
        best.(v) <- w u v;
        parent.(v) <- u
      end
    done
  done;
  let e1 = ref (-1) and e2 = ref (-1) in
  for v = 1 to n - 1 do
    if !e1 < 0 || w 0 v < w 0 !e1 then begin
      e2 := !e1;
      e1 := v
    end
    else if !e2 < 0 || w 0 v < w 0 !e2 then e2 := v
  done;
  weight := !weight +. w 0 !e1 +. w 0 !e2;
  deg.(0) <- 2;
  deg.(!e1) <- deg.(!e1) + 1;
  deg.(!e2) <- deg.(!e2) + 1;
  (!weight, deg)

(** The float-error bound of an iterate [l] at π, as [directed_bound]
    rounds with it: [2⁻⁵²·(n·(n·(A + 2·max |π|) + 2A) + |l|)] for
    entries of magnitude at most A. *)
let oracle_slack ~n (cost : int array) pi l =
  let a = float_of_int (Array.fold_left (fun m c -> max m (abs c)) 0 cost) in
  let pimax = Array.fold_left (fun m p -> Float.max m (Float.abs p)) 0.0 pi in
  let n = float_of_int n in
  Float.ldexp ((n *. ((n *. (a +. (2.0 *. pimax))) +. (2.0 *. a))) +. Float.abs l) (-52)

(** The full ascent, under the shipped step rule: λ halves after
    [patience] iterations without a new best and grows by 2% on every
    new best, up to λ0.  Besides the bound and its slack it reports the
    iterations run and the first iteration whose best bound [proves l
    slack] — the point where the shipped ascent must stop. *)
let oracle_bound ~(config : Held_karp.config) ~proves ~n (cost : int array)
    ~upper_bound =
  let pi = Array.make n 0.0 in
  let prev_grad = Array.make n 0.0 in
  let best = ref neg_infinity and best_slack = ref 0.0 in
  let lambda = ref config.Held_karp.lambda0 in
  let since_improve = ref 0 in
  let iter = ref 0 in
  let proof = ref None in
  let continue = ref true in
  while !continue && !iter < config.Held_karp.iterations do
    incr iter;
    let weight, deg = oracle_one_tree ~n cost pi in
    let sum_pi = Array.fold_left ( +. ) 0.0 pi in
    let l = weight -. (2.0 *. sum_pi) in
    if l > !best then begin
      best := l;
      best_slack := oracle_slack ~n cost pi l;
      since_improve := 0;
      lambda := Float.min config.Held_karp.lambda0 (!lambda *. 1.02);
      if !proof = None && proves l !best_slack then proof := Some !iter;
      if l >= float_of_int upper_bound -. 1e-9 then continue := false
    end
    else begin
      incr since_improve;
      if !since_improve >= config.Held_karp.patience then begin
        lambda := !lambda /. 2.0;
        since_improve := 0
      end
    end;
    let norm2 = ref 0.0 in
    for v = 0 to n - 1 do
      let g = float_of_int (deg.(v) - 2) in
      norm2 := !norm2 +. (g *. g)
    done;
    if !norm2 = 0.0 then continue := false
    else if !lambda < 1e-6 then continue := false
    else begin
      let gap = float_of_int upper_bound -. l in
      let gap = if gap <= 0.0 then 1.0 else gap in
      let t = !lambda *. gap /. !norm2 in
      for v = 0 to n - 1 do
        let g =
          (0.7 *. float_of_int (deg.(v) - 2)) +. (0.3 *. prev_grad.(v))
        in
        prev_grad.(v) <- g;
        pi.(v) <- pi.(v) +. (t *. g)
      done
    end
  done;
  (!best, !best_slack, !iter, !proof)

(** [(bound, iterations, first proving iteration)] of the full ascent
    on the directed instance, rounded the way [directed_bound] rounds. *)
let oracle_directed ~config (d : Dtsp.t) ~upper_bound =
  let s = Sym.of_dtsp d in
  let round l slack =
    let x = l +. float_of_int s.Sym.offset in
    int_of_float (Float.ceil (x -. (slack +. Float.ldexp (Float.abs x) (-52))))
  in
  let b, slack, iters, proof =
    oracle_bound ~config
      ~proves:(fun l slack -> round l slack >= upper_bound)
      ~n:s.Sym.nn (Sym.to_flat s)
      ~upper_bound:(upper_bound - s.Sym.offset)
  in
  (round b slack, iters, proof)

(* ------------------------------------------------------------------ *)
(* the pair-step 1-tree of symmetrized instances                       *)

(** The shipped [sym_one_tree] against the two-pass oracle on the dense
    matrix of the same instance: weight bits and degrees.  Reports
    whether the pair step ran (the dense-fallback counter stayed put). *)
let sym_agrees (s : Sym.t) pi =
  let d0 = Metrics.get Metrics.Held_karp_dense_iterations in
  let w, deg = Held_karp.sym_one_tree s pi in
  let pair_step = Metrics.get Metrics.Held_karp_dense_iterations = d0 in
  let w', deg' = oracle_one_tree ~n:s.Sym.nn (Sym.to_flat s) pi in
  if Int64.bits_of_float w <> Int64.bits_of_float w' || deg <> deg' then
    QCheck2.Test.fail_reportf
      "n=%d (%s): weight %h (oracle %h), degrees %s (oracle %s)" s.Sym.n_cities
      (if pair_step then "pair step" else "dense")
      w w'
      (String.concat "," (Array.to_list (Array.map string_of_int deg)))
      (String.concat "," (Array.to_list (Array.map string_of_int deg')))
  else pair_step

(** Random directed instance, 2–40 cities, costs in [0, range] with
    range below [max_range] (default 4), so equal weights and Prim's tie
    order are common. *)
let sym_of_seed ?(max_range = 4) seed =
  let rng = Random.State.make [| 0x5E1; seed |] in
  let n = 2 + Random.State.int rng 39 in
  let range = 1 + Random.State.int rng max_range in
  Sym.of_dtsp
    (Dtsp.make
       (Array.init n (fun i ->
            Array.init n (fun j ->
                if i = j then 0 else Random.State.int rng (range + 1)))))

let prop_sym_one_tree_at_zero =
  QCheck2.Test.make ~count:300
    ~name:"pair-step 1-tree = two-pass Prim at π = 0 (weight bits, degrees)"
    gen_seed (fun seed ->
      let s = sym_of_seed seed in
      (* at π = 0 both premises hold on every nonnegative instance *)
      sym_agrees s (Array.make s.Sym.nn 0.0))

(** The ascent's own step rule, driven by the oracle's degrees: Polyak
    steps against a loose upper bound with the 0.7/0.3 momentum, so π
    spreads the way it does inside [directed_bound]. *)
let prop_sym_one_tree_along_ascent =
  QCheck2.Test.make ~count:60
    ~name:"pair-step 1-tree agrees along a subgradient walk" gen_seed
    (fun seed ->
      let s = sym_of_seed seed in
      let nn = s.Sym.nn in
      let flat = Sym.to_flat s in
      let upper = float_of_int (nn * (s.Sym.real_max + 1) - s.Sym.offset) in
      let pi = Array.make nn 0.0 and prev = Array.make nn 0.0 in
      let pair_steps = ref 0 in
      for step = 1 to 60 do
        if sym_agrees s pi then incr pair_steps;
        let weight, deg = oracle_one_tree ~n:nn flat pi in
        let l = weight -. (2.0 *. Array.fold_left ( +. ) 0.0 pi) in
        let norm2 =
          Array.fold_left (fun a d -> a +. float_of_int ((d - 2) * (d - 2))) 0.0 deg
        in
        if norm2 > 0.0 then begin
          let t = 2.0 /. float_of_int step *. Float.max 1.0 (upper -. l) /. norm2 in
          Array.iteri
            (fun v d ->
              let g = (0.7 *. float_of_int (d - 2)) +. (0.3 *. prev.(v)) in
              prev.(v) <- g;
              pi.(v) <- pi.(v) +. (t *. g))
            deg
        end
      done;
      !pair_steps > 0)

(** π spreads that break one premise each: in-cities lifted far above
    out-cities (premise 1), or one pair lifted above every directed
    edge (premise 2).  The dense fallback must run, and agree with the
    two-pass Prim bit for bit.  Costs span at most [0, 6] and the π
    noise under the lift is zero, a small multiple of ½ (ties survive
    the modification) or an arbitrary float in [−5, 5), so the dense
    Prim's first-minimum tie order is exercised as well as its
    arithmetic. *)
let prop_sym_one_tree_guard_broken =
  QCheck2.Test.make ~count:400
    ~name:"π breaking a pair-step premise falls back to the dense Prim"
    gen_seed (fun seed ->
      let s = sym_of_seed ~max_range:6 seed in
      let rng = Random.State.make [| 0x6A7; seed |] in
      let nn = s.Sym.nn in
      let pi =
        match (seed / 2) mod 3 with
        | 0 -> Array.make nn 0.0
        | 1 ->
            Array.init nn (fun _ ->
                0.5 *. float_of_int (Random.State.int rng 5 - 2))
        | _ -> Array.init nn (fun _ -> Random.State.float rng 10.0 -. 5.0)
      in
      (if seed mod 2 = 0 then begin
         (* beyond the gap [inf − cmax] by more than π's noise of 10 *)
         let lift = float_of_int (s.Sym.inf + 16) in
         let lift = if Random.State.bool rng then lift else -.lift in
         for a = 1 to s.Sym.n_cities - 1 do
           pi.(2 * a) <- pi.(2 * a) +. lift
         done
       end
       else
         let a = 1 + Random.State.int rng (s.Sym.n_cities - 1) in
         let lift = float_of_int (s.Sym.m + s.Sym.real_max + 16) in
         pi.(2 * a) <- pi.(2 * a) +. lift;
         pi.((2 * a) + 1) <- pi.((2 * a) + 1) +. lift);
      if sym_agrees s pi then
        QCheck2.Test.fail_reportf "n=%d: the pair step ran" s.Sym.n_cities
      else true)

(** Premise 1 within a few units of its edge, at magnitudes (π ≈ 2⁵⁰)
    where one addition rounds by up to ¼: whichever path runs must
    agree with the oracle. *)
let prop_sym_one_tree_near_the_edge =
  QCheck2.Test.make ~count:200
    ~name:"pair-step 1-tree agrees with premise 1 near its edge" gen_seed
    (fun seed ->
      let s = sym_of_seed seed in
      let rng = Random.State.make [| 0xED6; seed |] in
      let deltas = [| -1.0; -0.25; 0.0; 0.25; 0.5; 1.0; 2.0; 4.0; 8.0; 32.0 |] in
      let delta = deltas.(Random.State.int rng (Array.length deltas)) in
      let base = Float.ldexp 1.0 50 in
      let quarter () = 0.25 *. float_of_int (Random.State.int rng 4) in
      let spread = float_of_int (s.Sym.inf - s.Sym.real_max) -. delta in
      let spread = if Random.State.bool rng then spread else -.spread in
      let pi =
        Array.init s.Sym.nn (fun v ->
            if v land 1 = 0 && v > 0 then base +. spread +. quarter ()
            else base +. quarter ())
      in
      ignore (sym_agrees s pi);
      true)

let zero_costs n = Dtsp.make (Array.make_matrix n n 0)

(** Premise 1 holds by ¼ exactly, and that ¼ is lost to rounding:
    with π = 2⁵⁰ on out-cities, the forbidden edge 1–3 and the cross
    edge 1–4 both round to 2⁵¹ + 24, and the dense Prim's first-index
    tie order takes the forbidden one.  Only the rounding margin sends
    this π to the dense Prim. *)
let test_sym_margin_covers_rounding () =
  let s = Sym.of_dtsp (zero_costs 3) in
  let a = Float.ldexp 1.0 50 in
  let pi = [| a; a; a +. 24.75; a; a +. 23.75; a |] in
  Alcotest.(check bool) "premise 1 holds without the margin" true
    (float_of_int (s.Sym.inf - s.Sym.real_max) > 23.75);
  let d0 = Metrics.get Metrics.Held_karp_dense_iterations in
  Alcotest.(check bool) "agrees with the two-pass Prim" false (sym_agrees s pi);
  Alcotest.(check int) "held_karp.dense_iterations counts the fallback"
    (d0 + 1) (Metrics.get Metrics.Held_karp_dense_iterations)

let test_sym_one_tree_rejects_bad_sizes () =
  let raises f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  let one = Sym.of_dtsp (Dtsp.make [| [| 0; 0 |]; [| 0; 0 |] |]) in
  Alcotest.(check bool)
    "π not one entry per city" true
    (raises (fun () -> Held_karp.sym_one_tree one (Array.make 3 0.)));
  Alcotest.(check bool)
    "one directed city" true
    (raises (fun () ->
         Held_karp.sym_one_tree (Sym.of_dtsp (Dtsp.make [| [| 0 |] |]))
           (Array.make 2 0.)))

(* ------------------------------------------------------------------ *)
(* the bound                                                           *)

(** Random directed instance, n ∈ [2, 12], costs in [0, 100). *)
let dtsp_of_seed seed =
  let rng = Random.State.make [| 0xB0B; seed |] in
  let n = 2 + Random.State.int rng 11 in
  Dtsp.make
    (Array.init n (fun i ->
         Array.init n (fun j -> if i = j then 0 else Random.State.int rng 100)))

(** A branch-alignment instance: the reduction of a random CFG. *)
let reduction_of_seed seed =
  let rng = Random.State.make [| 0xA11; seed |] in
  let g = Ba_testutil.Gen.cfg rng ~n:(2 + Random.State.int rng 11) in
  let prof = Ba_testutil.Gen.profile_of ~seed g ~invocations:10 ~max_steps:40 in
  (Ba_align.Reduction.build Ba_machine.Model.alpha21164 g
     ~profile:(Ba_profile.Profile.proc prof 0))
    .Ba_align.Reduction.dtsp

(* [default] and the light configs of the property suite *)
let configs =
  [
    ("default", Held_karp.default);
    ("light-400", { Held_karp.iterations = 400; lambda0 = 2.0; patience = 40 });
    ("light-2000", { Held_karp.iterations = 2_000; lambda0 = 2.0; patience = 60 });
  ]

(** Tight (the solver's tour) and loose (the identity tour) upper
    bounds: the first usually ends in the proof, the second never. *)
let upper_bounds d =
  let _, stats = Iterated.solve d in
  [ stats.Iterated.best_cost; Dtsp.tour_cost d (Construct.identity d.Dtsp.n) ]

let check_against_oracle d =
  List.for_all
    (fun (name, config) ->
      List.for_all
        (fun upper_bound ->
          let it0 = Metrics.get Metrics.Held_karp_iterations in
          let pr0 = Metrics.get Metrics.Held_karp_proved in
          let b = Held_karp.directed_bound ~config d ~upper_bound in
          let iters = Metrics.get Metrics.Held_karp_iterations - it0 in
          let proved = Metrics.get Metrics.Held_karp_proved - pr0 in
          let b', oracle_iters, proof = oracle_directed ~config d ~upper_bound in
          let want_iters, want_proved =
            match proof with Some i -> (i, 1) | None -> (oracle_iters, 0)
          in
          if b <> b' || iters <> want_iters || proved <> want_proved then
            QCheck2.Test.fail_reportf
              "%s, n=%d, upper %d: bound %d (oracle %d), %d iterations \
               (expected %d), proved %d (expected %d)"
              name d.Dtsp.n upper_bound b b' iters want_iters proved
              want_proved
          else true)
        (upper_bounds d))
    configs

let prop_bound_matches_full_ascent =
  QCheck2.Test.make ~count:60
    ~name:"directed_bound = full ascent (random DTSP), iterations cut at the proof"
    gen_seed (fun seed -> check_against_oracle (dtsp_of_seed seed))

let prop_bound_matches_full_ascent_reduction =
  QCheck2.Test.make ~count:40
    ~name:"directed_bound = full ascent (branch-alignment instances)" gen_seed
    (fun seed -> check_against_oracle (reduction_of_seed seed))

let prop_bound_below_optimum =
  QCheck2.Test.make ~count:60 ~name:"directed_bound <= exact optimum (n <= 12)"
    gen_seed (fun seed ->
      let d = dtsp_of_seed seed in
      let opt = Exact.optimal_cost d in
      List.for_all
        (fun (_, config) ->
          List.for_all
            (fun ub -> Held_karp.directed_bound ~config d ~upper_bound:ub <= opt)
            (opt :: upper_bounds d))
        configs)

(** The proof must actually fire: across a fixed sample some bounds
    reach the tour cost and stop early, and some do not. *)
let test_proof_fires () =
  let proved = ref 0 and unproved = ref 0 in
  for seed = 0 to 39 do
    let d = dtsp_of_seed seed in
    let _, stats = Iterated.solve d in
    let p0 = Metrics.get Metrics.Held_karp_proved in
    ignore (Held_karp.directed_bound d ~upper_bound:stats.Iterated.best_cost);
    if Metrics.get Metrics.Held_karp_proved > p0 then incr proved
    else incr unproved
  done;
  Alcotest.(check bool) (Printf.sprintf "%d bounds proved" !proved) true (!proved > 0);
  Alcotest.(check bool)
    (Printf.sprintf "%d bounds unproved" !unproved)
    true (!unproved > 0)

(* ------------------------------------------------------------------ *)
(* the float-exact guard                                               *)

let big = 1 lsl 50

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

(* raised by the float-exact guard itself, not by an earlier check *)
let raises_limit f =
  match f () with
  | _ -> false
  | exception Invalid_argument msg ->
      let key = "float-exact limit" in
      let k = String.length key in
      let rec has i =
        i + k <= String.length msg && (String.sub msg i k = key || has (i + 1))
      in
      has 0

(* Found by a seeded search over 3- and 4-city instances with costs
   below 10: its 1-tree at π = 0 is not a tour, so the ascent takes a
   step instead of stopping at its first iterate. *)
let pi_growth_instance =
  Dtsp.make [| [| 0; 3; 1 |]; [| 0; 0; 2 |]; [| 4; 7; 0 |] |]

let test_guard_rejects_huge_instances () =
  (* directed costs of 2⁵⁰ put the forbidden-pair weight (≈ 24× the
     largest cost) far above 2⁵² *)
  let d =
    Dtsp.make
      (Array.init 5 (fun i -> Array.init 5 (fun j -> if i = j then 0 else big + i + j)))
  in
  Alcotest.(check bool)
    "directed_bound raises" true
    (raises_invalid (fun () -> Held_karp.directed_bound d ~upper_bound:(5 * big)));
  Alcotest.(check bool)
    "upper bound beyond 2^52 raises" true
    (raises_invalid (fun () ->
         Held_karp.directed_bound (dtsp_of_seed 1) ~upper_bound:(1 lsl 53)));
  Alcotest.(check bool)
    "a directed cost of 2^52 raises" true
    (raises_limit (fun () ->
         Held_karp.directed_bound
           (Dtsp.make [| [| 0; 1 lsl 52 |]; [| 1 lsl 52; 0 |] |])
           ~upper_bound:0));
  (* small costs pass the static check, but a loose upper bound just
     under 2⁵² makes the Polyak steps — and so π and the modified
     weights — that large, once the 1-tree at π = 0 is not a tour *)
  let d = pi_growth_instance in
  let s = Sym.of_dtsp d in
  let _, deg = Held_karp.sym_one_tree s (Array.make s.Sym.nn 0.0) in
  Alcotest.(check bool) "the 1-tree at π = 0 is not a tour" false
    (Array.for_all (( = ) 2) deg);
  let _, stats = Iterated.solve d in
  Alcotest.(check bool) "a tight upper bound bounds normally" true
    (Held_karp.directed_bound d ~upper_bound:stats.Iterated.best_cost
     <= stats.Iterated.best_cost);
  Alcotest.(check bool)
    "π growth past 2^52 raises" true
    (raises_limit (fun () ->
         Held_karp.directed_bound d ~upper_bound:((1 lsl 52) - 1)));
  (* paper-scale magnitudes (~10⁸) stay well inside *)
  let d =
    Dtsp.make
      (Array.init 6 (fun i ->
           Array.init 6 (fun j -> if i = j then 0 else 100_000_000 * (1 + ((i + j) mod 3)))))
  in
  let _, stats = Iterated.solve d in
  Alcotest.(check bool)
    "10^8 costs bound normally" true
    (Held_karp.directed_bound d ~upper_bound:stats.Iterated.best_cost
     <= stats.Iterated.best_cost)

(** A procedure whose profile counts reach 2⁵⁰: [Compute] must fail the
    certificate rather than report a bound; [Skip] still certifies. *)
let test_certify_reports_unavailable_bound () =
  let open Ba_cfg in
  let g =
    Cfg.make ~name:"huge" ~entry:0
      [|
        Block.make ~id:0 ~size:2 (Block.Branch { t = 2; f = 1 });
        Block.make ~id:1 ~size:2 (Block.Goto 2);
        Block.make ~id:2 ~size:1 Block.Exit;
      |]
  in
  let profile =
    { Ba_profile.Profile.freqs = [| [| (1, big); (2, big) |]; [| (2, big) |]; [||] |] }
  in
  let m = Ba_machine.Model.alpha21164 in
  let order = [| 0; 1; 2 |] in
  let certify hk = Ba_check.Certify.proc_cert ~hk ~proc:0 m g ~profile ~order in
  (match certify Ba_check.Certify.Skip with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "Skip should certify: %s" (Ba_check.Certify.error_to_string e));
  let failed0 = Metrics.get Metrics.Certs_failed in
  match certify (Ba_check.Certify.Compute Held_karp.default) with
  | Error (Ba_check.Certify.Bound_unavailable _) ->
      Alcotest.(check int)
        "counted as a failed certificate" (failed0 + 1)
        (Metrics.get Metrics.Certs_failed)
  | Error e ->
      Alcotest.failf "wrong failure: %s" (Ba_check.Certify.error_to_string e)
  | Ok c ->
      Alcotest.failf "certified with bound %s"
        (match c.Ba_check.Certify.hk_bound with
        | Some b -> string_of_int b
        | None -> "none")

(* ------------------------------------------------------------------ *)
(* the paper-suite ascents                                             *)

(** Every Held–Karp ascent of one paper-suite pass, as
    [(row, procedure, directed cities, tour cost, bound)]: each bundled
    program under each data set, certified against the sibling data
    set's profile it was laid out on.  The tour cost is the shipped
    solver's, kept here so that the ascent is tested on its own; the
    bound is the one the halving-only step rule reached (λ0 = 2, λ halved
    after 100 iterations without a new best and never raised).  A bound
    equal to the tour cost proved that tour optimal. *)
let paper_suite_floor =
  [
    ("com.in", "hash", 2, 0, 0);
    ("com.in", "main", 26, 315008, 315008);
    ("com.st", "hash", 2, 0, 0);
    ("com.st", "main", 26, 398240, 398240);
    ("dod.re", "clamp", 8, 0, 0);
    ("dod.re", "lcg", 2, 0, 0);
    ("dod.re", "main", 41, 61861, 61861);
    ("dod.sm", "clamp", 8, 0, 0);
    ("dod.sm", "lcg", 2, 0, 0);
    ("dod.sm", "main", 41, 398252, 398252);
    ("eqn.fx", "cmp_rows", 11, 186615, 186615);
    ("eqn.fx", "qsort", 23, 263164, 263164);
    ("eqn.fx", "main", 19, 96507, 96507);
    ("eqn.ip", "cmp_rows", 11, 204470, 204470);
    ("eqn.ip", "qsort", 23, 269581, 269581);
    ("eqn.ip", "main", 19, 182943, 182943);
    ("esp.ti", "popcount", 5, 728, 728);
    ("esp.ti", "main", 38, 164466, 164466);
    ("esp.tl", "popcount", 5, 260, 260);
    ("esp.tl", "main", 38, 199065, 199065);
    ("su2.re", "main", 33, 50993, 50993);
    ("su2.sh", "main", 33, 130863, 130863);
    ("xli.ne", "main", 51, 1824447, 1824447);
    ("xli.q7", "main", 51, 3503, 3494);
    ("m88.srt", "main", 64, 450075, 450075);
    ("m88.clz", "main", 64, 91195, 91195);
    ("ijp.sm", "main", 44, 340480, 340480);
    ("ijp.nz", "main", 44, 338027, 338027);
    ("prl.hi", "is_word_byte", 14, 150775, 150775);
    ("prl.hi", "main", 49, 403198, 400658);
    ("prl.lo", "is_word_byte", 14, 149580, 149580);
    ("prl.lo", "main", 49, 419004, 413540);
    ("vor.rd", "main", 56, 667402, 665493);
    ("vor.wr", "main", 56, 586959, 586959);
    ("go.a", "main", 73, 476458, 476458);
    ("go.b", "main", 73, 224937, 224937);
    ("exc.dp", "peek", 2, 0, 0);
    ("exc.dp", "advance", 2, 0, 0);
    ("exc.dp", "emit1", 2, 0, 0);
    ("exc.dp", "emit2", 2, 0, 0);
    ("exc.dp", "parse_factor", 17, 21200, 21200);
    ("exc.dp", "parse_term", 11, 46088, 46088);
    ("exc.dp", "parse_expr", 11, 34498, 34498);
    ("exc.dp", "run_code", 20, 32860, 32860);
    ("exc.dp", "main", 19, 17775, 17775);
    ("exc.fl", "peek", 2, 0, 0);
    ("exc.fl", "advance", 2, 0, 0);
    ("exc.fl", "emit1", 2, 0, 0);
    ("exc.fl", "emit2", 2, 0, 0);
    ("exc.fl", "parse_factor", 17, 19370, 19370);
    ("exc.fl", "parse_term", 11, 50572, 50572);
    ("exc.fl", "parse_expr", 11, 37550, 37550);
    ("exc.fl", "run_code", 20, 28343, 28343);
    ("exc.fl", "main", 19, 17777, 17777)
  ]

(** The directed instance of every procedure of every paper-suite row,
    built the way [Certify] builds it from the row's training profile. *)
let paper_suite_instances () =
  let module W = Ba_workloads.Workload in
  let module Compile = Ba_minic.Compile in
  List.concat_map
    (fun (w : W.t) ->
      let compiled = W.compile w in
      let profiles =
        List.map
          (fun (ds : W.dataset) ->
            (ds.W.ds_name, Compile.profile compiled ~input:ds.W.input))
          (W.dataset_list w)
      in
      List.concat_map
        (fun (ds : W.dataset) ->
          let train = List.assoc (W.sibling w ds).W.ds_name profiles in
          Array.to_list
            (Array.mapi
               (fun fid cfg ->
                 let d, _ =
                   Ba_check.Certify.dtsp_of Ba_machine.Model.default cfg
                     ~profile:(Ba_profile.Profile.proc train fid)
                 in
                 ((w.W.name ^ "." ^ ds.W.ds_name, cfg.Ba_cfg.Cfg.name), d))
               compiled.Compile.cfgs))
        (W.dataset_list w))
    Ba_workloads.Workload_apps.everything

(** No step rule may lower a paper-suite bound: each of the 54 ascents
    reaches at least the recorded bound, and proves wherever it proved.
    xli.q7's ascent, which stalled unproved at 19,003 iterations under
    the halving-only rule, proves in a pinned count of iterations. *)
let test_paper_suite_bounds_never_fall () =
  let instances = paper_suite_instances () in
  (* one directed city is its locked pair: no ascent runs *)
  Alcotest.(check int) "every paper-suite ascent is recorded"
    (List.length (List.filter (fun (_, d) -> d.Dtsp.n >= 2) instances))
    (List.length paper_suite_floor);
  List.iter
    (fun (row, proc, n, upper_bound, floor) ->
      let what = Printf.sprintf "%s/%s" row proc in
      let d = List.assoc (row, proc) instances in
      Alcotest.(check int) (what ^ " directed cities") n d.Dtsp.n;
      let it0 = Metrics.get Metrics.Held_karp_iterations in
      let pr0 = Metrics.get Metrics.Held_karp_proved in
      let b = Held_karp.directed_bound d ~upper_bound in
      let iters = Metrics.get Metrics.Held_karp_iterations - it0 in
      let proved = Metrics.get Metrics.Held_karp_proved - pr0 = 1 in
      if b < floor then Alcotest.failf "%s: bound %d fell below %d" what b floor;
      if floor = upper_bound && not proved then
        Alcotest.failf "%s: no longer proves %d optimal" what upper_bound;
      if what = "xli.q7/main" then begin
        Alcotest.(check bool) "xli.q7/main proves" true proved;
        Alcotest.(check int) "xli.q7/main iterations" 2_672 iters
      end)
    paper_suite_floor

let () =
  Alcotest.run "held-karp-prop"
    [
      ( "pair-step",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_sym_one_tree_at_zero;
            prop_sym_one_tree_along_ascent;
            prop_sym_one_tree_guard_broken;
            prop_sym_one_tree_near_the_edge;
          ]
        @ [
            Alcotest.test_case "margin covers rounding" `Quick
              test_sym_margin_covers_rounding;
            Alcotest.test_case "rejects bad sizes" `Quick
              test_sym_one_tree_rejects_bad_sizes;
          ] );
      ( "bound",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_bound_matches_full_ascent;
            prop_bound_matches_full_ascent_reduction;
            prop_bound_below_optimum;
          ]
        @ [ Alcotest.test_case "integral proof fires" `Quick test_proof_fires ] );
      ( "paper-suite",
        [
          Alcotest.test_case "bounds never fall" `Quick
            test_paper_suite_bounds_never_fall;
        ] );
      ( "float-guard",
        [
          Alcotest.test_case "huge instances raise" `Quick
            test_guard_rejects_huge_instances;
          Alcotest.test_case "Compute fails the certificate" `Quick
            test_certify_reports_unavailable_bound;
        ] );
    ]
