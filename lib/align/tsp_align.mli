(** The paper's TSP-based branch aligner: build the DTSP instance, solve
    it (exactly on small instances, iterated 3-Opt otherwise), read the
    layout off the best tour.  Runs under the caller's
    {!Ba_robust.Budget}, if any: on exhaustion a valid layout still
    comes back, with the degradation reason recorded in the result. *)

open Ba_cfg
module Profile = Ba_profile.Profile

type config = {
  solver : Ba_tsp.Iterated.config;  (** iterated 3-Opt parameters *)
  exact_below : int;
      (** solve instances with at most this many cities exactly;
          0 disables exact solving *)
}

val default : config

type result = {
  order : Layout.order;
  cost : int;  (** modelled penalty under the training profile *)
  exact : bool;  (** solved to proven optimality *)
  stats : Ba_tsp.Iterated.stats option;  (** when the heuristic ran *)
  degraded : Ba_robust.Errors.t option;
      (** why the result is weaker than requested; [None] when full *)
}

(** Solve a pre-built reduction instance (lets callers time matrix
    construction and solving separately).  [rng], when given, is the
    task's own random stream; the default derives a deterministic state
    from the config and the instance.  An absent [budget] means no
    limit.  Never raises on budget exhaustion.  [initial], when given and valid for the instance's
    CFG, seeds run 0 of the iterated solver with that layout's tour
    instead of the identity — the warm-start hook for incremental
    re-alignment (invalid orders are silently ignored). *)
val solve_instance :
  ?config:config ->
  ?rng:Random.State.t ->
  ?budget:Ba_robust.Budget.t ->
  ?initial:Layout.order ->
  Reduction.t ->
  result

(** Align one procedure under the model's objective. *)
val align :
  ?config:config ->
  ?rng:Random.State.t ->
  ?budget:Ba_robust.Budget.t ->
  ?initial:Layout.order ->
  Ba_machine.Model.t ->
  Cfg.t ->
  profile:Profile.proc ->
  result
