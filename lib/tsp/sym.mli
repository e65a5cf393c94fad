(** DTSP → symmetric TSP via the standard 2-city transformation: city
    [i] becomes in-city [2i] and out-city [2i+1] joined by a locked edge
    of weight [−m]; directed edge i → j becomes (out i, in j); all other
    pairs are forbidden ([inf]).  Improving local-search moves can
    neither drop a locked edge nor add a forbidden one.

    The symmetric matrix is implicit: [cost] computes any entry in O(1)
    from city parity plus the sparse directed lookup, so the instance
    stays O(n + E) in memory. *)

type t = {
  n_cities : int;  (** directed cities *)
  nn : int;  (** symmetric cities = 2 × n_cities *)
  dir : Dtsp.t;  (** the sparse directed instance (shared, not copied) *)
  m : int;  (** locked-edge weight magnitude *)
  inf : int;  (** forbidden-pair weight *)
  real_max : int;  (** largest directed cost; bounds improving gains *)
  nonneg : bool;  (** every directed cost is ≥ 0 (true for all registered
                      objectives); licenses the 3-Opt gain bound *)
  offset : int;  (** directed cost = symmetric cost + offset (= n·m) *)
}

val in_city : int -> int
val out_city : int -> int

(** Build the symmetric instance — O(1), no matrix is materialized.
    @raise Invalid_argument when [4·inf] would exceed [max_int]. *)
val of_dtsp : Dtsp.t -> t

(** Symmetric weight of a pair: [−m] if locked, [inf] if same parity
    (incl. the diagonal), the directed cost otherwise. *)
val cost : t -> int -> int -> int

(** Is (a, b) an in/out pair edge? *)
val is_locked : t -> int -> int -> bool

(** Dense row-major copy ([a*nn + b]): the reference matrix the
    Held–Karp tests check that kernel's own float matrix against. *)
val to_flat : t -> int array

(** Directed tour → symmetric tour [in t0; out t0; in t1; …]. *)
val expand : t -> int array -> int array

(** Cost of a symmetric cycle. *)
val tour_cost : t -> int array -> int

(** Cost of a symmetric cycle in directed units ([tour_cost + offset]):
    locked edges count 0 and each in/out pair the tour does not join
    counts [m], so no [−m] term can wrap the sum. *)
val directed_tour_cost : t -> int array -> int

(** Are all in/out pairs adjacent (all locked edges intact)? *)
val check_alternating : t -> int array -> bool

(** Recover the directed tour from a symmetric tour with intact locked
    edges, orientation normalized.
    @raise Invalid_argument if a locked edge was dropped. *)
val extract : t -> int array -> int array
