(** Tour-construction heuristics for directed instances; both are
    randomized the way the paper's solver uses them (pick among the best
    few / randomly skip edges), and both are sparse-aware: they drive
    the CSR rows of {!Dtsp} instead of scanning the O(n²) logical
    matrix, which is what makes multi-start solves viable at 10⁵–10⁶
    blocks. *)

(** The identity tour 0,1,…,n−1. *)
val identity : int -> int array

(** Grow a tour from [start], moving to one of the [choices] nearest
    unvisited cities (uniformly among them; [choices = 1] is
    deterministic).  O(choices + deg) per step via a merge of the
    current row's sorted explicit deviations with an unvisited-list
    walk at the default cost; bit-identical to the dense O(n)-per-step
    scan at every size, including the RNG stream (one draw per step). *)
val nearest_neighbor :
  ?rng:Random.State.t -> ?choices:int -> Dtsp.t -> start:int -> int array

(** Scan the edges in increasing (cost, i, j) order, linking chain
    tails to chain heads; with [rng], live edges (source without a
    successor, destination without a predecessor) are skipped with
    probability [skip_prob] and leftover fragments stitched
    cheapest-first.  A merge of the explicit-deviation stream with a
    per-row default stream, without materializing the n(n−1) edges; one
    RNG draw per live edge, so the result depends only on the logical
    instance and the RNG, not on which entries are stored explicitly. *)
val greedy_edge : ?rng:Random.State.t -> ?skip_prob:float -> Dtsp.t -> int array
