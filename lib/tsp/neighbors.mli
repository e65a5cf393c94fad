(** k-nearest-neighbor candidate lists (finite, non-locked partners
    only), sorted by increasing cost so searches can stop early.

    Each list is a merge of the city's sorted explicit deviations with
    its default-cost tail over the sparse CSR rows, O(n log n + n·k + E)
    in total.  Ties break by a per-city order, so every list is the
    unique k-cheapest under a strict total order, independent of which
    entries the instance stores explicitly:

    - out-city [2i+1] orders in-city [2j] by (cost, (j − i − 1) mod n),
      a tail that starts just after the city itself;
    - in-city [2j] orders out-city [2i+1] by (cost, i). *)

(** [of_sym s ~k] builds, for every symmetric city, its up-to-[k]
    cheapest candidate partners (finite cost, not the locked partner).
    [k] is clamped to [0..n−1]. *)
val of_sym : Sym.t -> k:int -> int array array
