(** Held–Karp lower bound via 1-tree Lagrangian relaxation with Polyak
    subgradient steps — the paper's source of provable near-optimality
    certificates. *)

type config = {
  iterations : int;  (** max subgradient iterations *)
  lambda0 : float;  (** initial step multiplier *)
  patience : int;  (** iterations without improvement before halving λ *)
}

val default : config

(** Minimum 1-tree under π-modified weights: MST over cities 1..n−1 plus
    the two cheapest edges at city 0; the cost matrix is flat row-major
    n×n.  Returns (modified weight, degrees).
    @raise Invalid_argument if [n < 3] or the sizes are wrong. *)
val one_tree : n:int -> int array -> float array -> float * int array

(** Held–Karp bound for a symmetric instance given as a flat row-major
    n×n matrix, as a float.  [upper_bound] is any known tour cost
    (scales the steps; reaching it certifies optimality and stops
    early).

    The ascent runs in doubles, which resolve every integer only below
    2⁵².  Costs, [upper_bound] and the π-modified weights must stay
    below that magnitude.
    @raise Invalid_argument if [n < 2], the size is wrong, or a cost,
    [upper_bound] or a π-modified weight reaches 2⁵² in magnitude. *)
val bound : ?config:config -> n:int -> int array -> upper_bound:int -> float

(** Integer Held–Karp lower bound on the optimal directed tour: bound of
    the symmetrized instance, shifted back and rounded up.  The ascent
    stops as soon as the rounded bound reaches [upper_bound] (the
    integral proof that the known tour is optimal); the result is the
    one the full ascent would round to.  Each call adds its iterations
    to the [held_karp.iterations] counter and, when it stopped on the
    proof, one to [held_karp.proved].
    @raise Invalid_argument if the symmetrized costs, the locked-edge
    offset, [upper_bound] or a π-modified weight reaches 2⁵² in
    magnitude (see {!bound}); the bound would no longer be exact. *)
val directed_bound : ?config:config -> Dtsp.t -> upper_bound:int -> int
