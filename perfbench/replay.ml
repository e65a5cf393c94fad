(* Traced replay of the TSP solver through its public layer calls.

   [solve] repeats Iterated.solve step for step — the same calls in the
   same order, drawing from the same random stream — with a span around
   each call, so a traced run can say where a solve spends its time
   without any tracing inside lib/.  [solve_instance] does the same for
   Tsp_align.solve_instance, and [guarded] runs the shipped solver on
   the same instance and stream and counts every replay that disagrees
   with it: the per-layer breakdown is only worth reading while that
   count stays zero. *)

module Dtsp = Ba_tsp.Dtsp
module Sym = Ba_tsp.Sym
module Neighbors = Ba_tsp.Neighbors
module Construct = Ba_tsp.Construct
module Three_opt = Ba_tsp.Three_opt
module Iterated = Ba_tsp.Iterated
module Exact = Ba_tsp.Exact
module Reduction = Ba_align.Reduction
module Tsp_align = Ba_align.Tsp_align

let span = Spans.with_

(** Totals over every replayed solve of the run. *)
type counts = {
  mutable kicks : int;
  mutable accepted : int;  (** kicks that improved the run's best tour *)
  mutable moves : int;
  mutable scans_skipped : int;
  mutable exact : int;
  mutable heuristic : int;
  mutable mismatches : int;  (** replays that disagree with the solver *)
  mutable replay_s : float;
  mutable reference_s : float;
}

let counts =
  {
    kicks = 0;
    accepted = 0;
    moves = 0;
    scans_skipped = 0;
    exact = 0;
    heuristic = 0;
    mismatches = 0;
    replay_s = 0.;
    reference_s = 0.;
  }

(** Iterated.solve without a budget: the best directed tour and its
    cost. *)
let solve (config : Iterated.config) ~rng (d : Dtsp.t) =
  let n = d.Dtsp.n in
  if n <= 3 then begin
    let tour, stats = Iterated.solve ~config ~rng d in
    (tour, stats.Iterated.best_cost)
  end
  else begin
    (* Iterated.solve runs 3-Opt under an unlimited budget; so does the
       replay, so every move spends a unit exactly as there *)
    let budget = Ba_robust.Budget.unlimited () in
    let s = span "sym.build" (fun () -> Sym.of_dtsp d) in
    let nbr =
      span "neighbors.build" (fun () ->
          Neighbors.of_sym s ~k:config.Iterated.neighbors)
    in
    let kicks_per_run = min config.max_kicks (config.kick_factor * n) in
    let best_tour = ref [||] and best_cost = ref max_int in
    for run = 0 to max 1 config.runs - 1 do
      let start =
        span "construct.start" (fun () ->
            if run = 0 then Construct.identity n
            else if run land 1 = 1 then
              Construct.greedy_edge ~rng ~skip_prob:config.greedy_skip d
            else
              Construct.nearest_neighbor ~rng ~choices:config.nn_choices d
                ~start:(Random.State.int rng n))
      in
      let st =
        span "three_opt.init" (fun () ->
            Three_opt.init ~repr:config.tour_repr s ~nbr
              ~tour:(Sym.expand s start))
      in
      span "three_opt.descent" (fun () ->
          Three_opt.activate_all st;
          Three_opt.run ~budget st);
      let run_best, run_best_cost =
        span "iterated.kick_bookkeeping" (fun () ->
            (ref (Three_opt.tour st), ref (Three_opt.cost st)))
      in
      for _ = 1 to kicks_per_run do
        span "iterated.kick_bookkeeping" (fun () ->
            List.iter (Three_opt.activate st) (Iterated.double_bridge st rng));
        span "iterated.kick_descent" (fun () -> Three_opt.run ~budget st);
        span "iterated.kick_bookkeeping" (fun () ->
            let c = Three_opt.cost st in
            if c < !run_best_cost then begin
              run_best_cost := c;
              run_best := Three_opt.tour st;
              counts.accepted <- counts.accepted + 1
            end
            else Iterated.set_tour st !run_best)
      done;
      counts.kicks <- counts.kicks + kicks_per_run;
      counts.moves <-
        counts.moves + st.Three_opt.moves_2opt + st.Three_opt.moves_3opt;
      counts.scans_skipped <- counts.scans_skipped + st.Three_opt.scans_skipped;
      let directed = !run_best_cost + s.Sym.offset in
      if directed < !best_cost then begin
        best_cost := directed;
        best_tour :=
          span "iterated.kick_bookkeeping" (fun () -> Sym.extract s !run_best)
      end
    done;
    (!best_tour, !best_cost)
  end

(** Tsp_align.solve_instance without a budget: the layout, its cost
    and the solver's best directed cost. *)
let solve_instance (config : Tsp_align.config) ~rng (inst : Reduction.t) =
  let d = inst.Reduction.dtsp in
  if d.Dtsp.n <= min config.exact_below Exact.max_n then begin
    counts.exact <- counts.exact + 1;
    let tour, cost = span "exact.solve" (fun () -> Exact.solve d) in
    let order =
      span "driver.self" (fun () -> Reduction.order_of_tour inst tour)
    in
    (order, cost, cost)
  end
  else begin
    counts.heuristic <- counts.heuristic + 1;
    let tour, best =
      span "iterated.solve" (fun () -> solve config.solver ~rng d)
    in
    let order, cost =
      span "driver.self" (fun () ->
          let order = Reduction.order_of_tour inst tour in
          (order, Reduction.layout_cost inst order))
    in
    (order, cost, best)
  end

let flip = ref false

(** [solve_instance] checked against Tsp_align.solve_instance (and so
    Iterated.solve) on the same instance and random stream.  The two
    run in alternating order so neither always finds warm caches;
    returns the replayed layout and whether it matched. *)
let guarded config ~rng inst =
  let ref_rng = Random.State.copy rng in
  let replay () = Spans.timed (fun () -> solve_instance config ~rng inst) in
  let reference () =
    span "guard.reference" (fun () ->
        Spans.timed (fun () ->
            Tsp_align.solve_instance ~config ~rng:ref_rng inst))
  in
  flip := not !flip;
  let ((order, cost, best), replay_s), (r, reference_s) =
    if !flip then
      let a = replay () in
      (a, reference ())
    else
      let b = reference () in
      (replay (), b)
  in
  counts.replay_s <- counts.replay_s +. replay_s;
  counts.reference_s <- counts.reference_s +. reference_s;
  let solver_best =
    match r.Tsp_align.stats with
    | Some st -> st.Iterated.best_cost
    | None -> r.Tsp_align.cost
  in
  let ok = r.Tsp_align.order = order && r.Tsp_align.cost = cost && solver_best = best in
  if not ok then counts.mismatches <- counts.mismatches + 1;
  (order, ok)
