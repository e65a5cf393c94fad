(** The paper's TSP-based branch aligner.

    Build the DTSP instance of the procedure ({!Reduction}), solve it
    near-optimally — exactly (Held–Karp DP) when the instance is small,
    with iterated 3-Opt on the symmetrized instance otherwise — and read
    the layout off the best tour.

    The solver runs under the caller's {!Ba_robust.Budget}, if any:
    when its deadline passes the aligner still returns a valid layout
    (the best one found, or the identity layout if the budget was
    exhausted on arrival) and records the degradation reason in the
    result, so callers can fall back to a cheaper aligner. *)

open Ba_cfg
open Ba_tsp
module Profile = Ba_profile.Profile
module Budget = Ba_robust.Budget

type config = {
  solver : Iterated.config;  (** iterated 3-Opt parameters *)
  exact_below : int;
      (** solve instances with at most this many cities (blocks + dummy)
          exactly by DP; 0 disables exact solving *)
}

let default = { solver = Iterated.default; exact_below = 13 }

type result = {
  order : Layout.order;
  cost : int;  (** DTSP walk cost = modelled penalty under the training profile *)
  exact : bool;  (** the instance was solved to proven optimality *)
  stats : Iterated.stats option;  (** heuristic solver statistics, if used *)
  degraded : Ba_robust.Errors.t option;
      (** why the result is weaker than requested (budget exhaustion);
          [None] for a full-strength solve *)
}

(** [solve_instance ?config ?rng ?budget inst] solves a pre-built
    reduction instance (lets callers time matrix construction and
    solving separately).  [rng], when given, is the task's own random
    stream (see {!Ba_engine.Task}); by default the solver derives a
    deterministic state from its config and the instance.  An absent
    [budget] means no limit.  Never raises on budget exhaustion: a
    valid, possibly degraded layout always comes back. *)
let solve_instance ?(config = default) ?rng ?budget ?initial
    (inst : Reduction.t) : result =
  let timeout () = Option.map (fun b -> Budget.timeout_error b) budget in
  if Option.fold ~none:false ~some:Budget.exhausted budget then begin
    (* exhausted on arrival: hand back the identity layout, flagged *)
    Ba_obs.Metrics.incr Ba_obs.Metrics.Budget_exhaustions;
    let order = Layout.identity inst.Reduction.cfg in
    {
      order;
      cost = Reduction.layout_cost inst order;
      exact = false;
      stats = None;
      degraded = timeout ();
    }
  end
  else begin
    let n_cities = inst.Reduction.dtsp.Dtsp.n in
    if n_cities <= min config.exact_below Exact.max_n then begin
      let tour, cost = Exact.solve inst.Reduction.dtsp in
      Ba_obs.Metrics.incr Ba_obs.Metrics.Exact_solves;
      let order = Reduction.order_of_tour inst tour in
      { order; cost; exact = true; stats = None; degraded = None }
    end
    else begin
      (* warm start: a previous layout of the same CFG (the serve
         cache's tour) seeds run 0; orders that fail validity (stale
         or poisoned) are ignored rather than trusted *)
      let initial =
        match initial with
        | Some order when Layout.is_valid inst.Reduction.cfg order ->
            Some (Reduction.tour_of_order inst order)
        | _ -> None
      in
      let tour, stats =
        Iterated.solve ~config:config.solver ?rng ?budget ?initial
          inst.Reduction.dtsp
      in
      let order = Reduction.order_of_tour inst tour in
      (* recompute from the layout in case the tour was degenerate *)
      let cost = Reduction.layout_cost inst order in
      {
        order;
        cost;
        exact = false;
        stats = Some stats;
        degraded = (if stats.Iterated.timed_out then timeout () else None);
      }
    end
  end

(** [align ?config ?rng ?budget m cfg ~profile] aligns one procedure:
    build the reduction instance under the model's objective, then solve
    it. *)
let align ?config ?rng ?budget ?initial (m : Ba_machine.Model.t)
    (cfg : Cfg.t) ~(profile : Profile.proc) : result =
  solve_instance ?config ?rng ?budget ?initial (Reduction.build m cfg ~profile)
