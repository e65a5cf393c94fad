(** Iterated 3-Opt for the directed TSP (via symmetrization).

    Following the paper's appendix: each {e run} starts from a
    construction tour (the original ordering once, randomized greedy and
    randomized nearest-neighbor for the rest), optimizes it with 3-Opt to
    exhaustion, then performs a number of {e iterations}, each consisting
    of a random double-bridge 4-Opt kick [20] followed by 3-Opt
    re-optimization; a worsening iteration is undone.  The best tour over
    all runs is returned.  The paper uses 10 runs of 2·N iterations.

    A kick costs O(moves) tour operations, not O(n): the double bridge
    is three range reversals on the live tour, the 3-Opt state tracks
    the cost from move gains, and a worsening iteration is undone by
    replaying the state's reversal journal backwards
    ({!Three_opt.rollback}).  The tour is materialized once per run. *)

type config = {
  runs : int;  (** independent restarts (paper: 10) *)
  kick_factor : int;  (** iterations per run = kick_factor × n (paper: 2) *)
  max_kicks : int;  (** hard cap on iterations per run *)
  neighbors : int;  (** candidate-list width for 3-Opt *)
  nn_choices : int;  (** randomization width of nearest-neighbor starts *)
  greedy_skip : float;  (** skip probability of randomized greedy starts *)
  seed : int;
  tour_repr : Tour_repr.kind;
      (** tour representation for the 3-Opt states (trajectory-neutral;
          [Auto] gates on instance size) *)
}

let default =
  {
    runs = 10;
    kick_factor = 2;
    max_kicks = 2000;
    neighbors = 12;
    nn_choices = 3;
    greedy_skip = 0.1;
    seed = 0x5eed;
    tour_repr = Tour_repr.Auto;
  }

type stats = {
  best_cost : int;  (** directed cost of the best tour *)
  runs_with_best : int;  (** how many runs ended at the best cost *)
  kicks : int;  (** total kicks over all runs *)
  moves_2opt : int;
  moves_3opt : int;
  scans_skipped : int;  (** 3-Opt scans elided by the don't-look stamps *)
  timed_out : bool;  (** the budget ran out before the search finished *)
}

(* ------------------------------------------------------------------ *)

(** Overwrite the search state's tour (bumps the don't-look version). *)
let set_tour = Three_opt.set_tour

(** Random double-bridge kick that never cuts a locked pair edge.
    Returns the boundary cities whose don't-look bits must be cleared. *)
let double_bridge (st : Three_opt.state) rng =
  let s = st.Three_opt.s in
  let n = s.Sym.nn in
  (* make sure the wrap-around edge (t[n-1], t[0]) is not locked: read
     the tour rotated by one (the cycle is the same) and apply the
     rotation only if the kick goes ahead *)
  let rot =
    if Sym.is_locked s (Three_opt.city_at st (n - 1)) (Three_opt.city_at st 0)
    then 1
    else 0
  in
  let t p = Three_opt.city_at st (if p + rot = n then 0 else p + rot) in
  let ok p = not (Sym.is_locked s (t (p - 1)) (t p)) in
  let rand_cut () =
    let p = ref (1 + Random.State.int rng (n - 1)) in
    while not (ok !p) do
      p := 1 + ((!p + 1 - 1) mod (n - 1))
    done;
    !p
  in
  let p1 = ref (rand_cut ()) and p2 = ref (rand_cut ()) and p3 = ref (rand_cut ()) in
  (* need three distinct sorted cut positions *)
  let attempts = ref 0 in
  while (!p1 = !p2 || !p2 = !p3 || !p1 = !p3) && !attempts < 64 do
    incr attempts;
    p2 := rand_cut ();
    p3 := rand_cut ()
  done;
  if !p1 = !p2 || !p2 = !p3 || !p1 = !p3 then [] (* degenerate: skip kick *)
  else begin
    let a = min !p1 (min !p2 !p3) and c = max !p1 (max !p2 !p3) in
    let b = !p1 + !p2 + !p3 - a - c in
    let touched =
      [
        t 0; t (n - 1);
        t (a - 1); t a;
        t (b - 1); t b;
        t (c - 1); t c;
      ]
    in
    (* A = t[0..a-1], B = t[a..b-1], C = t[b..c-1], D = t[c..n-1];
       double bridge: A C B D.  Reversing B C gives rev C, rev B;
       reversing each half restores their orientation.  The state
       keeps the cost from the changed edges and journals all four
       operations. *)
    if rot = 1 then Three_opt.shift st 1;
    let mid = a + c - b in
    Three_opt.reverse st a (c - 1);
    Three_opt.reverse st a (mid - 1);
    Three_opt.reverse st mid (c - 1);
    touched
  end

(* ------------------------------------------------------------------ *)

let brute_force (d : Dtsp.t) =
  (* for n <= 3 every cyclic order is exhausted trivially *)
  match d.Dtsp.n with
  | 2 ->
      let t = [| 0; 1 |] in
      (t, Dtsp.tour_cost d t)
  | 3 ->
      let t1 = [| 0; 1; 2 |] and t2 = [| 0; 2; 1 |] in
      let c1 = Dtsp.tour_cost d t1 and c2 = Dtsp.tour_cost d t2 in
      if c1 <= c2 then (t1, c1) else (t2, c2)
  | _ -> invalid_arg "Iterated.brute_force: n > 3"

(** [solve ?config ?rng ?budget d] returns the best directed tour found
    and solver statistics.  Deterministic for a fixed [config.seed] and
    unlimited budget; all randomness comes from [rng] (default: a state
    derived from [config.seed] and the instance), so the solve is
    re-entrant — no global or otherwise shared state is touched, and
    concurrent solves of different instances cannot interfere.  [budget]
    (default: none, no limit) is polled between improving moves, kicks
    and restarts; on exhaustion the best tour found so far is returned
    with [timed_out] set — the first (identity-start) construction
    always completes, so a valid tour is returned even for a zero
    budget. *)
let solve ?(config = default) ?rng ?budget ?initial (d : Dtsp.t) :
    int array * stats =
  let exhausted () =
    match budget with Some b -> Ba_robust.Budget.exhausted b | None -> false
  in
  let n = d.Dtsp.n in
  if n <= 3 then begin
    let tour, c = brute_force d in
    Ba_obs.Metrics.incr Ba_obs.Metrics.Exact_solves;
    ( tour,
      { best_cost = c; runs_with_best = config.runs; kicks = 0; moves_2opt = 0;
        moves_3opt = 0; scans_skipped = 0; timed_out = false } )
  end
  else begin
    let rng =
      match rng with
      | Some r -> r
      | None -> Random.State.make [| config.seed; n; Dtsp.max_cost d |]
    in
    let s = Sym.of_dtsp d in
    let nbr = Neighbors.of_sym s ~k:config.neighbors in
    let kicks_per_run = min config.max_kicks (config.kick_factor * n) in
    let best_tour = ref None and best_cost = ref max_int in
    let runs_with_best = ref 0 in
    let total_kicks = ref 0 and m2 = ref 0 and m3 = ref 0 and skipped = ref 0 in
    let run = ref 0 in
    (* run 0 (the identity start) always executes so that an exhausted
       budget still yields a valid tour; later runs are skipped once the
       budget runs out *)
    while !run = 0 || (!run < config.runs && not (exhausted ())) do
      let start_directed =
        if !run = 0 then
          (* run 0 always completes even on an exhausted budget; with a
             warm start (incremental re-alignment: the serve cache's
             previous tour) it re-optimizes that tour instead of the
             identity, so small profile drifts converge in a few moves *)
          match initial with
          | Some t when Array.length t = n -> Array.copy t
          | _ -> Construct.identity n
        else if !run land 1 = 1 then
          Construct.greedy_edge ~rng ~skip_prob:config.greedy_skip d
        else
          Construct.nearest_neighbor ~rng ~choices:config.nn_choices d
            ~start:(Random.State.int rng n)
      in
      let st =
        Three_opt.init ~repr:config.tour_repr s ~nbr
          ~tour:(Sym.expand s start_directed)
      in
      Three_opt.activate_all st;
      Three_opt.run ?budget st;
      (* costs in directed units: acceptance compares values that
         cannot wrap where the directed cost does not *)
      let run_best_cost = ref (Three_opt.directed_cost st) in
      let kick = ref 0 in
      while !kick < kicks_per_run && not (exhausted ()) do
        incr kick;
        incr total_kicks;
        Three_opt.mark st;
        let touched = double_bridge st rng in
        List.iter (Three_opt.activate st) touched;
        Three_opt.run ?budget st;
        let c = Three_opt.directed_cost st in
        if c < !run_best_cost then begin
          run_best_cost := c;
          Three_opt.commit st
        end
        else Three_opt.rollback st
      done;
      m2 := !m2 + st.Three_opt.moves_2opt;
      m3 := !m3 + st.Three_opt.moves_3opt;
      skipped := !skipped + st.Three_opt.scans_skipped;
      (* the state now holds the run's best tour; one from-scratch sum
         per run checks the tracked cost independently of the kicks *)
      let run_best = Three_opt.tour st in
      assert (Sym.directed_tour_cost s run_best = !run_best_cost);
      if !run_best_cost < !best_cost then begin
        best_cost := !run_best_cost;
        best_tour := Some (Sym.extract s run_best);
        runs_with_best := 1
      end
      else if !run_best_cost = !best_cost then incr runs_with_best;
      incr run
    done;
    let tour = Option.get !best_tour in
    assert (Dtsp.tour_cost d tour = !best_cost);
    let timed_out = exhausted () in
    (* observability: per-solve totals (move counters are fed by
       Three_opt.run itself) *)
    Ba_obs.Metrics.(
      incr Heuristic_solves;
      incr ~n:!total_kicks Kicks;
      incr ~n:!run Restarts;
      set_gauge Neighbor_width config.neighbors;
      if timed_out then incr Budget_exhaustions);
    ( tour,
      {
        best_cost = !best_cost;
        runs_with_best = !runs_with_best;
        kicks = !total_kicks;
        moves_2opt = !m2;
        moves_3opt = !m3;
        scans_skipped = !skipped;
        timed_out;
      } )
  end
