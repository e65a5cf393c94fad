(** Held–Karp lower bound via 1-tree Lagrangian relaxation with Polyak
    subgradient steps — the paper's source of provable near-optimality
    certificates. *)

type config = {
  iterations : int;  (** max subgradient iterations *)
  lambda0 : float;  (** initial step multiplier *)
  patience : int;
      (** iterations without improvement before halving λ; every new best
          grows λ by 2% again, up to [lambda0] *)
}

val default : config

(** The 1-tree of the symmetrized instance under π, as {!directed_bound}'s
    ascent computes it.  When π passes two O(n) premises it takes the
    {e pair step}: each Prim step adds a city and its locked partner and
    then makes one pass over the remaining pairs, never reading a
    same-parity ([inf]) entry.  With P_in the least π over in-cities
    2, 4, …, n−2 and P_out over out-cities 1, 3, …, n−1, the premises are
    [inf − cmax > |P_in − P_out| + margin] (no forbidden edge is ever
    the cheapest across a cut) and
    [max_a (−m + π(2a) + π(2a+1)) + margin < cmin + P_in + P_out] (a
    locked edge undercuts every other candidate).  The margin,
    [2⁻⁴⁸·(|entry|max + 2·max |π|)], covers float rounding.  Under the
    premises the pair step returns the dense Prim's tree, weight bits
    and degrees, ties included; otherwise the dense Prim runs and
    [held_karp.dense_iterations] counts one.
    @raise Invalid_argument if [s] has fewer than 2 directed cities, π
    is not one entry per symmetric city, or a cost reaches 2⁵². *)
val sym_one_tree : Sym.t -> float array -> float * int array

(** Integer Held–Karp lower bound on the optimal directed tour: bound of
    the symmetrized instance, shifted back and rounded up after
    subtracting a bound on the iterate's float error, derived from the
    city count and the largest weight magnitude.  The ascent runs in
    doubles, which resolve every integer only below 2⁵², so every
    quantity it carries must stay below that magnitude.  It stops as soon as the rounded bound reaches [upper_bound] (the
    integral proof that the known tour is optimal); the result is the
    one the full ascent would round to.  Its 1-trees are those of
    {!sym_one_tree}: the pair step wherever its premises hold, which
    halves the relaxations of the dense Prim and changes no bit of any
    iterate.  Each call adds its iterations to the
    [held_karp.iterations] counter, those that fell back to the dense
    Prim to [held_karp.dense_iterations] and, when it stopped on the
    proof, one to [held_karp.proved].
    @raise Invalid_argument if the symmetrized costs, the locked-edge
    offset, [upper_bound] or a π-modified weight reaches 2⁵² in
    magnitude; the bound would no longer be exact. *)
val directed_bound : ?config:config -> Dtsp.t -> upper_bound:int -> int
