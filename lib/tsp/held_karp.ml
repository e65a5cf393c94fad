(** Held–Karp lower bound via 1-tree Lagrangian relaxation [6, 7].

    For node potentials π, the minimum 1-tree under modified weights
    w(u,v) = c(u,v) + π(u) + π(v), minus 2·Σπ, lower-bounds every tour;
    maximizing over π by subgradient ascent gives the Held–Karp bound,
    empirically within a fraction of a percent of the optimum on a wide
    range of instance classes [12] — including, as the paper shows, the
    symmetrized branch-alignment instances.

    We use the Polyak step rule t = λ·(UB − L)/‖deg − 2‖², which is
    scale-free and therefore robust to the large locked-edge weights of
    {!Sym} instances.  λ halves when the bound stagnates and grows by 2%
    on every iterate that sets a new best, up to λ0, so a step halved by
    an early overshoot recovers instead of creeping toward the tour cost
    for the rest of the ascent. *)

type config = {
  iterations : int;  (** max subgradient iterations *)
  lambda0 : float;  (** initial step multiplier *)
  patience : int;  (** iterations without improvement before halving λ *)
}

let default = { iterations = 20_000; lambda0 = 2.0; patience = 150 }

(** Every quantity the ascent carries in floats — the costs, the
    locked-edge offset, the upper bound and the π-modified weights —
    must stay below 2⁵² in magnitude, where doubles still resolve every
    integer and the final round-up is sound. *)
let float_exact_limit = 1 lsl 52

let check_exact what x =
  if x >= float_exact_limit || x <= -float_exact_limit then
    invalid_arg
      (Printf.sprintf "Held_karp: %s %d exceeds the float-exact limit 2^52"
         what x)

(* What the pair-step 1-tree needs to know of a {!Sym} instance, in
   floats (every value is an integer below 2⁵², so exact). *)
type pairs = {
  gap : float;  (** [inf − cmax]: a forbidden pair's lead over any directed cost *)
  m : float;  (** the locked-edge weight is [−m] *)
  cmin : float;  (** smallest directed cost *)
  abs_max : float;  (** largest entry magnitude (the forbidden weight) *)
}

(* Per-bound scratch: the float cost matrix and the Prim arrays,
   allocated once and reused by every subgradient iteration. *)
type work = {
  n : int;
  fc : float array;  (** the flat cost matrix, as floats *)
  pairs : pairs;  (** the instance's shape, for the pair-step premises *)
  deg : int array;
  rest : int array;  (** cities (pair step: directed cities) not yet in the tree, ascending *)
  best : float array;
  parent : int array;
}

(* The float matrix of a {!Sym} instance, built from the directed rows
   without an int copy, and its [pairs] shape.  Every entry goes
   through [check_exact]. *)
let sym_work (s : Sym.t) =
  let nn = s.Sym.nn and n = s.Sym.n_cities in
  check_exact "cost" s.Sym.inf;
  check_exact "cost" (-s.Sym.m);
  let fc = Array.make (nn * nn) (float_of_int s.Sym.inf) in
  let row = Array.make n 0 in
  (* one directed city has no directed edge: its range reads [0, 0] *)
  let cmin = ref (if n = 1 then 0 else max_int) in
  let cmax = ref (if n = 1 then 0 else min_int) in
  for i = 0 to n - 1 do
    (* row of out-city 2i+1: directed row i at the in-cities *)
    Dtsp.blit_row s.Sym.dir i row;
    let base = ((2 * i) + 1) * nn in
    for j = 0 to n - 1 do
      if j <> i then begin
        let c = row.(j) in
        check_exact "cost" c;
        cmin := min !cmin c;
        cmax := max !cmax c;
        let fcj = float_of_int c in
        fc.(base + (2 * j)) <- fcj;
        fc.(((2 * j) * nn) + (2 * i) + 1) <- fcj
      end
    done;
    let lock = float_of_int (-s.Sym.m) in
    fc.(((2 * i) * nn) + (2 * i) + 1) <- lock;
    fc.(base + (2 * i)) <- lock
  done;
  let abs_max = List.fold_left max s.Sym.inf [ s.Sym.m; abs !cmin; abs !cmax ] in
  let pairs =
    {
      gap = float_of_int (s.Sym.inf - !cmax);
      m = float_of_int s.Sym.m;
      cmin = float_of_int !cmin;
      abs_max = float_of_int abs_max;
    }
  in
  ( {
      n = nn;
      fc;
      pairs;
      deg = Array.make nn 0;
      rest = Array.make nn 0;
      best = Array.make nn infinity;
      parent = Array.make nn (-1);
    },
    abs_max )

(* The 1-tree's last two edges: the two cheapest at city 0, added to
   the tree's [weight] in that order. *)
let close_at_city0 w (pi : float array) weight =
  let n = w.n and fc = w.fc and deg = w.deg in
  let e1 = ref (-1) and w1 = ref infinity in
  let e2 = ref (-1) and w2 = ref infinity in
  let p0 = pi.(0) in
  for v = 1 to n - 1 do
    let wv = fc.(v) +. p0 +. pi.(v) in
    if !e1 < 0 || wv < !w1 then begin
      e2 := !e1;
      w2 := !w1;
      e1 := v;
      w1 := wv
    end
    else if !e2 < 0 || wv < !w2 then begin
      e2 := v;
      w2 := wv
    end
  done;
  deg.(0) <- 2;
  deg.(!e1) <- deg.(!e1) + 1;
  deg.(!e2) <- deg.(!e2) + 1;
  weight +. !w1 +. !w2

(* Minimum 1-tree into [w.deg], returning its modified weight.  Each
   modified weight is evaluated once, as [(c(u,v) +. π u) +. π v]; each
   Prim step relaxes the edges at the new vertex and picks the next one
   in the same pass (first minimum in ascending index order), so the
   tree, its weight and the degrees are those of the textbook two-pass
   Prim bit for bit. *)
let fill_one_tree w (pi : float array) =
  let n = w.n and fc = w.fc and deg = w.deg and rest = w.rest in
  let best = w.best and parent = w.parent in
  Array.fill deg 0 n 0;
  (* Prim over 1..n-1, rooted at 1 *)
  let next = ref (-1) and next_w = ref infinity in
  let p1 = pi.(1) in
  for v = 2 to n - 1 do
    let wv = fc.(n + v) +. p1 +. pi.(v) in
    best.(v) <- wv;
    parent.(v) <- 1;
    rest.(v - 2) <- v;
    if !next < 0 || wv < !next_w then begin
      next := v;
      next_w := wv
    end
  done;
  let weight = ref 0.0 in
  for k = n - 2 downto 1 do
    let u = !next in
    weight := !weight +. !next_w;
    deg.(u) <- deg.(u) + 1;
    deg.(parent.(u)) <- deg.(parent.(u)) + 1;
    next := -1;
    next_w := infinity;
    let row = u * n and pu = pi.(u) in
    (* drop u from [rest] in place, keeping the ascending order; every
       index below is in range by construction ([rest] holds cities
       2..n−1 and [fc] is n×n), so the hot loop skips bounds checks *)
    let j = ref 0 in
    for i = 0 to k - 1 do
      let v = Array.unsafe_get rest i in
      if v <> u then begin
        Array.unsafe_set rest !j v;
        incr j;
        let wv =
          Array.unsafe_get fc (row + v) +. pu +. Array.unsafe_get pi v
        in
        let bv =
          if wv < Array.unsafe_get best v then begin
            Array.unsafe_set best v wv;
            Array.unsafe_set parent v u;
            wv
          end
          else Array.unsafe_get best v
        in
        if !next < 0 || bv < !next_w then begin
          next := v;
          next_w := bv
        end
      end
    done
  done;
  close_at_city0 w pi !weight

(* Rounding slack of the pair-step checks, relative to the largest
   magnitude [M = abs_max + 2·max |π|] any weight or check side can
   reach.  An addition rounds by at most 2⁻⁵³·M, so a modified weight
   is within 2·2⁻⁵³·M of its exact value and each side of a check within
   3·2⁻⁵³·M; a margin of 2⁻⁴⁸·M = 32·2⁻⁵³·M leaves every comparison the
   checks decide far enough apart before rounding that the float
   comparisons Prim makes come out the same way. *)
let pair_slack = Float.ldexp 1.0 (-48)

(* Do the pair step's two premises hold at π?  With P_in the least π
   over in-cities 2, 4, …, n−2 and P_out over out-cities 1, 3, …, n−1:

   1. [inf − cmax > |P_in − P_out| + margin].  Across a cut whose two
      sides hold whole in/out pairs (city 1 stands in for its pair),
      every same-parity edge (u, v) has a cross edge below it: one side
      holds the out-city (in-city) of least π, and the cross edge from
      it to v or to u beats [inf + π u + π v] by at least the left
      side minus the right.
   2. [max_a (−m + π(2a) + π(2a+1)) + margin < cmin + P_in + P_out].
      A locked edge undercuts every directed edge, and (with 1) every
      forbidden one, so a city's partner is always the next city Prim
      adds.

   A NaN or infinite π fails both. *)
let pairs_hold (p : pairs) ~n (pi : float array) =
  let p_in = ref infinity and p_out = ref pi.(1) in
  let lock = ref neg_infinity and pimax = ref (Float.abs pi.(1)) in
  for a = 1 to (n / 2) - 1 do
    let pin = pi.(2 * a) and pout = pi.((2 * a) + 1) in
    p_in := Float.min !p_in pin;
    p_out := Float.min !p_out pout;
    lock := Float.max !lock (-.p.m +. pin +. pout);
    pimax := Float.max !pimax (Float.max (Float.abs pin) (Float.abs pout))
  done;
  let margin = (p.abs_max +. (2.0 *. !pimax)) *. pair_slack in
  p.gap > Float.abs (!p_in -. !p_out) +. margin
  && !lock +. margin < p.cmin +. !p_in +. !p_out

(* The minimum 1-tree of a {!Sym} matrix when [pairs_hold]: the tree,
   weight bits and degrees of [fill_one_tree], in half its relaxations.
   By premise 2 each city Prim adds is followed by its partner, so a
   step adds the pair; by premise 1 no same-parity weight is ever the
   least, so one pass over the remaining pairs relaxes each in-city
   from the new out-city and each out-city from the new in-city only,
   evaluating the same sums [(c(u,v) +. π u) +. π v] with [u] in the
   tree, and picks the next city as the first minimum in ascending
   index order (in-city 2b before out-city 2b+1).  Out-cities start
   with no cross-parity tree neighbour ([infinity]); [rest] holds the
   directed cities 1..n/2−1 still outside. *)
let fill_pair_step w (pi : float array) =
  let n = w.n and fc = w.fc and deg = w.deg and rest = w.rest in
  let best = w.best and parent = w.parent in
  Array.fill deg 0 n 0;
  let next = ref (-1) and next_w = ref infinity in
  let p1 = pi.(1) in
  for b = 1 to (n / 2) - 1 do
    let v = 2 * b in
    let wv = fc.(n + v) +. p1 +. pi.(v) in
    best.(v) <- wv;
    parent.(v) <- 1;
    best.(v + 1) <- infinity;
    rest.(b - 1) <- b;
    if !next < 0 || wv < !next_w then begin
      next := v;
      next_w := wv
    end
  done;
  let weight = ref 0.0 in
  for k = (n / 2) - 1 downto 1 do
    let u = !next in
    let pu = u lxor 1 in
    weight := !weight +. !next_w;
    deg.(u) <- deg.(u) + 1;
    deg.(parent.(u)) <- deg.(parent.(u)) + 1;
    (* the locked partner joins next, relaxed from u as Prim would *)
    weight := !weight +. (fc.((u * n) + pu) +. pi.(u) +. pi.(pu));
    deg.(u) <- deg.(u) + 1;
    deg.(pu) <- deg.(pu) + 1;
    next := -1;
    next_w := infinity;
    let a = u asr 1 in
    let ci = 2 * a in
    let co = ci + 1 in
    let row_i = ci * n and row_o = co * n in
    let pi_i = pi.(ci) and pi_o = pi.(co) in
    (* drop a from [rest] in place, keeping the ascending order; every
       index below is in range by construction, as in [fill_one_tree] *)
    let j = ref 0 in
    for r = 0 to k - 1 do
      let b = Array.unsafe_get rest r in
      if b <> a then begin
        Array.unsafe_set rest !j b;
        incr j;
        let vi = 2 * b in
        let wi =
          Array.unsafe_get fc (row_o + vi) +. pi_o +. Array.unsafe_get pi vi
        in
        let bi =
          if wi < Array.unsafe_get best vi then begin
            Array.unsafe_set best vi wi;
            Array.unsafe_set parent vi co;
            wi
          end
          else Array.unsafe_get best vi
        in
        if !next < 0 || bi < !next_w then begin
          next := vi;
          next_w := bi
        end;
        let vo = vi + 1 in
        let wo =
          Array.unsafe_get fc (row_i + vo) +. pi_i +. Array.unsafe_get pi vo
        in
        let bo =
          if wo < Array.unsafe_get best vo then begin
            Array.unsafe_set best vo wo;
            Array.unsafe_set parent vo ci;
            wo
          end
          else Array.unsafe_get best vo
        in
        if bo < !next_w then begin
          next := vo;
          next_w := bo
        end
      end
    done
  done;
  close_at_city0 w pi !weight

(* One iteration's 1-tree: the pair step when its premises hold at π,
   else the dense Prim.  Returns the weight and whether the dense Prim
   ran in place of the pair step. *)
let fill w (pi : float array) =
  if pairs_hold w.pairs ~n:w.n pi then (fill_pair_step w pi, false)
  else (fill_one_tree w pi, true)

(** [sym_one_tree s pi] is the minimum 1-tree of the symmetrized
    instance [s] under π, computed the way [directed_bound]'s ascent
    computes it: the pair step when its premises hold, else the dense
    Prim, counted in [held_karp.dense_iterations]. *)
let sym_one_tree (s : Sym.t) (pi : float array) =
  if s.Sym.nn < 4 then
    invalid_arg "Held_karp.sym_one_tree: need at least 2 directed cities";
  if Array.length pi <> s.Sym.nn then
    invalid_arg "Held_karp.sym_one_tree: π must have one entry per city";
  let w, _ = sym_work s in
  let weight, dense = fill w pi in
  if dense then Ba_obs.Metrics.(incr Held_karp_dense_iterations);
  (weight, w.deg)

(* How far an iterate's computed [l = w(T) − 2·Σπ] can sit from its
   exact value at the same π.  Every modified weight is at most
   [M = abs_max + 2·max |π|] in magnitude and every |π| at most M/2, so
   with u = 2⁻⁵³ the n tree weights round by 2u·M each, their recursive
   sum by (n−1)·u·n·M, Σπ (doubled exactly) by (n−1)·u·n·M and the
   subtraction by u·|l|: under u·(2n²·M + |l|) in all.  The slack,
   2u·(n²·M + 2n·abs_max + |l|), leaves 4n·u·abs_max + u·|l| over for
   the second-order terms.  It grows with n and the magnitudes, where
   a fixed 10⁻⁶ fell below the bound on paper-suite instances. *)
let rounding_slack ~n ~abs_max ~pimax l =
  let n = float_of_int n in
  Float.ldexp
    ((n *. ((n *. (abs_max +. (2.0 *. pimax))) +. (2.0 *. abs_max)))
    +. Float.abs l)
    (-52)

(* λ's growth on every new best, capped at [lambda0]: the recovery
   that undoes a halving once the ascent is climbing again *)
let lambda_growth = 1.02

(* The subgradient ascent behind [directed_bound].  [stop l slack] is
   asked of every new best [l], with its [rounding_slack]; [true] ends
   the ascent as proved.  Returns the best [l] and its slack. *)
let ascend ~config ~stop ~cmax w ~upper_bound =
  let n = w.n in
  let cmax = float_of_int cmax in
  let limit = float_of_int float_exact_limit in
  let pi = Array.make n 0.0 in
  let prev_grad = Array.make n 0.0 in
  let best = ref neg_infinity and best_slack = ref 0.0 in
  let pimax = ref 0.0 (* max |π| of the current π *) in
  let lambda = ref config.lambda0 in
  let since_improve = ref 0 in
  let iter = ref 0 and dense = ref 0 in
  let proved = ref false in
  let continue = ref true in
  while !continue && !iter < config.iterations do
    incr iter;
    let weight, fell_back = fill w pi in
    if fell_back then incr dense;
    let deg = w.deg in
    let sum_pi = Array.fold_left ( +. ) 0.0 pi in
    let l = weight -. (2.0 *. sum_pi) in
    if l > !best then begin
      best := l;
      best_slack := rounding_slack ~n ~abs_max:cmax ~pimax:!pimax l;
      since_improve := 0;
      lambda := Float.min config.lambda0 (!lambda *. lambda_growth);
      (* the bound can never exceed the optimum: once it reaches the
         known upper bound it has certified that tour optimal *)
      if stop l !best_slack then begin
        proved := true;
        continue := false
      end
      else if l >= float_of_int upper_bound -. 1e-9 then continue := false
    end
    else begin
      incr since_improve;
      if !since_improve >= config.patience then begin
        lambda := !lambda /. 2.0;
        since_improve := 0
      end
    end;
    if !continue then begin
      let norm2 = ref 0.0 in
      for v = 0 to n - 1 do
        let g = float_of_int (deg.(v) - 2) in
        norm2 := !norm2 +. (g *. g)
      done;
      if !norm2 = 0.0 then continue := false (* the 1-tree is a tour: optimal *)
      else if !lambda < 1e-6 then continue := false
      else begin
        let gap = float_of_int upper_bound -. l in
        let gap = if gap <= 0.0 then 1.0 else gap in
        let t = !lambda *. gap /. !norm2 in
        pimax := 0.0;
        for v = 0 to n - 1 do
          (* momentum 0.7/0.3 smooths the zig-zag of pure subgradients *)
          let g =
            (0.7 *. float_of_int (deg.(v) - 2)) +. (0.3 *. prev_grad.(v))
          in
          prev_grad.(v) <- g;
          pi.(v) <- pi.(v) +. (t *. g);
          pimax := Float.max !pimax (Float.abs pi.(v))
        done;
        if cmax +. (2.0 *. !pimax) >= limit then
          invalid_arg
            "Held_karp: π-modified weights exceed the float-exact limit 2^52"
      end
    end
  done;
  Ba_obs.Metrics.(incr ~n:!iter Held_karp_iterations);
  Ba_obs.Metrics.(incr ~n:!dense Held_karp_dense_iterations);
  if !proved then Ba_obs.Metrics.(incr Held_karp_proved);
  (!best, !best_slack)

(** [directed_bound ?config d ~upper_bound] is an integer Held–Karp lower
    bound on the optimal directed tour of [d]: the bound of the
    symmetrized instance shifted back by the locked-edge offset, rounded
    up (tour costs are integral).  [upper_bound] is any known directed
    tour cost.  The ascent stops as soon as the rounded bound reaches
    [upper_bound]: the bound never exceeds the optimum, so every later
    iterate would round to the same integer.  Its 1-trees take the pair
    step ([fill_pair_step]) at every π where that is exact. *)
let directed_bound ?(config = default) (d : Dtsp.t) ~upper_bound : int =
  let s = Sym.of_dtsp d in
  let offset = s.Sym.offset in
  check_exact "offset" offset;
  check_exact "upper bound" upper_bound;
  let w, cmax = sym_work s in
  (* shifting by the offset rounds once more, by at most 2⁻⁵³·|x| *)
  let round (l, slack) =
    let x = l +. float_of_int offset in
    int_of_float (Float.ceil (x -. (slack +. Float.ldexp (Float.abs x) (-52))))
  in
  let sym_upper = upper_bound - offset in
  check_exact "upper bound" sym_upper;
  round
    (* one directed city: the tour is its locked pair, twice *)
    (if s.Sym.nn = 2 then (float_of_int (-2 * s.Sym.m), 0.0)
     else
       ascend ~config
         ~stop:(fun l slack -> round (l, slack) >= upper_bound)
         ~cmax w ~upper_bound:sym_upper)
