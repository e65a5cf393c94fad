(** Iterated 3-Opt for the directed TSP (via symmetrization), following
    the paper's appendix: randomized Greedy / Nearest-Neighbor / identity
    starts, 3-Opt to exhaustion, then double-bridge kicks with
    re-optimization, worsening kicks undone by journaled rollback
    ({!Three_opt.rollback}); best tour over all runs.  A kick costs
    O(moves) tour operations — O(moves·√n) on the two-level tour —
    rather than O(n) copies. *)

type config = {
  runs : int;  (** independent restarts (paper: 10) *)
  kick_factor : int;  (** iterations per run = kick_factor × n (paper: 2) *)
  max_kicks : int;  (** hard cap on iterations per run *)
  neighbors : int;  (** candidate-list width *)
  nn_choices : int;  (** randomization width of NN starts *)
  greedy_skip : float;  (** skip probability of greedy starts *)
  seed : int;
  tour_repr : Tour_repr.kind;
      (** tour representation for the 3-Opt states (trajectory-neutral;
          [Auto] gates on instance size) *)
}

val default : config

type stats = {
  best_cost : int;  (** directed cost of the best tour *)
  runs_with_best : int;  (** how many runs ended at the best cost *)
  kicks : int;
  moves_2opt : int;
  moves_3opt : int;
  scans_skipped : int;  (** 3-Opt scans elided by the don't-look stamps *)
  timed_out : bool;  (** the budget ran out before the search finished *)
}

(** Overwrite a search state's tour (positions recomputed, don't-look
    version bumped; alias of {!Three_opt.set_tour}). *)
val set_tour : Three_opt.state -> int array -> unit

(** Random double-bridge kick that never cuts a locked pair edge,
    applied in place as (at most) one rotation and three range
    reversals — journaled when a {!Three_opt.mark} is open; returns the
    boundary cities to re-activate (empty, and the tour untouched, if
    the kick degenerated and was skipped). *)
val double_bridge : Three_opt.state -> Random.State.t -> int list

(** [solve ?config ?rng ?budget d] returns the best directed tour found
    and solver statistics.  Deterministic for a fixed seed and unlimited
    budget; re-entrant — all randomness comes from [rng] (default: a
    state derived from [config.seed] and the instance) and no shared
    state is touched, so concurrent solves cannot interfere.  Instances
    with n ≤ 3 are enumerated exactly.  The [budget] (default: none,
    no limit) is polled between moves, kicks and restarts; on
    exhaustion the best tour so far is returned with [timed_out] set —
    a valid tour comes back even under a zero budget.

    [initial], when given and of the right length, replaces the
    identity start of run 0 with a caller-supplied directed tour (must
    be a permutation of the cities) — the warm-start hook used by
    incremental re-alignment: re-optimizing a previous solution after a
    small profile drift converges in a few moves instead of a full
    search.  The warm tour is re-optimized by the same budgeted 3-Opt,
    so a warm solve is never weaker than its seed tour. *)
val solve :
  ?config:config ->
  ?rng:Random.State.t ->
  ?budget:Ba_robust.Budget.t ->
  ?initial:int array ->
  Dtsp.t ->
  int array * stats
