(** Held–Karp lower bound via 1-tree Lagrangian relaxation [6, 7].

    For node potentials π, the minimum 1-tree under modified weights
    w(u,v) = c(u,v) + π(u) + π(v), minus 2·Σπ, lower-bounds every tour;
    maximizing over π by subgradient ascent gives the Held–Karp bound,
    empirically within a fraction of a percent of the optimum on a wide
    range of instance classes [12] — including, as the paper shows, the
    symmetrized branch-alignment instances.

    We use the Polyak step rule t = λ·(UB − L)/‖deg − 2‖², halving λ when
    the bound stagnates, which is scale-free and therefore robust to the
    large locked-edge weights of {!Sym} instances. *)

type config = {
  iterations : int;  (** max subgradient iterations *)
  lambda0 : float;  (** initial step multiplier *)
  patience : int;  (** iterations without improvement before halving λ *)
}

let default = { iterations = 20_000; lambda0 = 2.0; patience = 100 }

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

(* Per-bound scratch: the float copy of the cost matrix and the Prim
   arrays, allocated once and reused by every subgradient iteration. *)
type work = {
  n : int;
  fc : float array;  (** [float_of_int] of the flat cost matrix *)
  deg : int array;
  rest : int array;  (** cities not yet in the Prim tree, ascending *)
  best : float array;
  parent : int array;
}

let work ~n (cost : int array) =
  {
    n;
    fc = Array.map float_of_int cost;
    deg = Array.make n 0;
    rest = Array.make n 0;
    best = Array.make n infinity;
    parent = Array.make n (-1);
  }

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
  (* two cheapest edges from city 0 *)
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
  weight := !weight +. !w1 +. !w2;
  deg.(0) <- 2;
  deg.(!e1) <- deg.(!e1) + 1;
  deg.(!e2) <- deg.(!e2) + 1;
  !weight

(** [one_tree ~n cost pi] computes a minimum 1-tree under π-modified
    weights: a minimum spanning tree over cities 1..n−1 (Prim, O(n²))
    plus the two cheapest edges incident to city 0.  [cost] is a flat
    row-major n×n matrix.  Returns the modified weight and the degree of
    every node. *)
let one_tree ~n (cost : int array) (pi : float array) =
  if n < 3 then invalid_arg "Held_karp.one_tree: need at least 3 cities";
  if Array.length cost <> n * n || Array.length pi <> n then
    invalid_arg "Held_karp.one_tree: cost must be n×n and π of length n";
  let w = work ~n cost in
  let weight = fill_one_tree w pi in
  (weight, w.deg)

(* The subgradient ascent behind [bound].  [stop l] is asked of every
   new best [l]; [true] ends the ascent as proved. *)
let ascend ~config ~stop ~cmax ~n (cost : int array) ~upper_bound =
  let w = work ~n cost in
  let cmax = float_of_int cmax in
  let limit = float_of_int float_exact_limit in
  let pi = Array.make n 0.0 in
  let prev_grad = Array.make n 0.0 in
  let best = ref neg_infinity in
  let lambda = ref config.lambda0 in
  let since_improve = ref 0 in
  let iter = ref 0 in
  let proved = ref false in
  let continue = ref true in
  while !continue && !iter < config.iterations do
    incr iter;
    let weight = fill_one_tree w pi in
    let deg = w.deg in
    let sum_pi = Array.fold_left ( +. ) 0.0 pi in
    let l = weight -. (2.0 *. sum_pi) in
    if l > !best then begin
      best := l;
      since_improve := 0;
      (* the bound can never exceed the optimum: once it reaches the
         known upper bound it has certified that tour optimal *)
      if stop l then begin
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
        let pimax = ref 0.0 in
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
  if !proved then Ba_obs.Metrics.(incr Held_karp_proved);
  !best

let bound_with ?(config = default) ~stop ~n (cost : int array) ~upper_bound
    : float =
  if n < 2 then invalid_arg "Held_karp.bound: need at least 2 cities";
  if Array.length cost <> n * n then invalid_arg "Held_karp.bound: not n×n";
  let cmax =
    Array.fold_left
      (fun m c ->
        check_exact "cost" c;
        max m (abs c))
      0 cost
  in
  check_exact "upper bound" upper_bound;
  if n = 2 then float_of_int (2 * cost.(1))
  else if n = 3 then
    float_of_int (cost.(1) + cost.(n + 2) + cost.(2 * n))
  else ascend ~config ~stop ~cmax ~n cost ~upper_bound

(** [bound ?config cost ~upper_bound] is the Held–Karp lower bound for the
    symmetric instance [cost], as a float.  [upper_bound] is the cost of
    any known tour (used only to scale subgradient steps; a loose value
    merely slows convergence).  For [n < 3] the bound is the exact forced
    tour cost. *)
let bound ?config ~n cost ~upper_bound =
  bound_with ?config ~stop:(fun _ -> false) ~n cost ~upper_bound

(** [directed_bound ?config d ~upper_bound] is an integer Held–Karp lower
    bound on the optimal directed tour of [d]: the bound of the
    symmetrized instance shifted back by the locked-edge offset, rounded
    up (tour costs are integral).  [upper_bound] is any known directed
    tour cost.  The ascent stops as soon as the rounded bound reaches
    [upper_bound]: the bound never exceeds the optimum, so every later
    iterate would round to the same integer. *)
let directed_bound ?config (d : Dtsp.t) ~upper_bound : int =
  let s = Sym.of_dtsp d in
  let offset = s.Sym.offset in
  check_exact "offset" offset;
  check_exact "upper bound" upper_bound;
  let round l = int_of_float (Float.ceil (l +. float_of_int offset -. 1e-6)) in
  let b =
    bound_with ?config
      ~stop:(fun l -> round l >= upper_bound)
      ~n:s.Sym.nn (Sym.to_flat s)
      ~upper_bound:(upper_bound - offset)
  in
  round b
