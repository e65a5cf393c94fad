(** Property suite for the 3-Opt search state ({!Ba_tsp.Three_opt}):
    after an arbitrary interleaving of [activate]/[try_city]/[run] the
    state's internal invariants must hold — [pos] and [tour] stay
    inverse permutations, locked in/out pair edges are never cut, and
    the work queue holds no duplicates and agrees with [in_queue].
    The kick section pins the journaled rollback against the exact
    tour it must restore and {!Ba_tsp.Iterated.solve} against the
    copy-and-[set_tour] kick loop it replaced.  The gain-bound section
    runs [try_city] in lockstep with a scan that computes every gain in
    full, and checks the pairs the bound skips directly. *)

open Ba_tsp
module Budget = Ba_robust.Budget

let gen_seed = QCheck2.Gen.int_bound 1_000_000

(** Random directed instance: n ∈ [min_n, max_n], costs in
    [lo, lo + 100). *)
let dtsp_of_seed ?(min_n = 4) ?(max_n = 12) ?(lo = 0) seed =
  let rng = Random.State.make [| seed |] in
  let n = min_n + Random.State.int rng (max_n - min_n + 1) in
  Dtsp.make
    (Array.init n (fun _ ->
         Array.init n (fun _ -> lo + Random.State.int rng 100)))

let random_directed_tour rng n =
  let t = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = t.(i) in
    t.(i) <- t.(j);
    t.(j) <- tmp
  done;
  t

(** Fresh search state over a random tour of a random instance. *)
let state_of_seed ?repr ?min_n seed =
  let d = dtsp_of_seed ?min_n seed in
  let s = Sym.of_dtsp d in
  let rng = Random.State.make [| seed + 1 |] in
  let nbr = Neighbors.of_sym s ~k:8 in
  let tour = Sym.expand s (random_directed_tour rng d.Dtsp.n) in
  (d, s, Three_opt.init ?repr s ~nbr ~tour)

(** Drive the state through a random operation sequence. *)
let churn seed (st : Three_opt.state) =
  let rng = Random.State.make [| seed + 2 |] in
  let nn = st.Three_opt.s.Sym.nn in
  for _ = 1 to 30 do
    match Random.State.int rng 4 with
    | 0 -> Three_opt.activate st (Random.State.int rng nn)
    | 1 -> ignore (Three_opt.try_city st (Random.State.int rng nn))
    | 2 ->
        (* run on an exhausted budget: stops at its first poll *)
        Three_opt.run ~budget:(Budget.create ~deadline_ms:0 ()) st
    | _ -> Three_opt.activate_all st
  done

(* ---------------- invariants ---------------- *)

let inverse_permutations (st : Three_opt.state) =
  let nn = st.Three_opt.s.Sym.nn in
  let t = Three_opt.tour st in
  Array.length t = nn
  && Array.for_all (fun c -> 0 <= c && c < nn) t
  && Array.for_all
       (fun i ->
         let c = Three_opt.city_at st i in
         t.(i) = c
         && Three_opt.position st c = i
         && Three_opt.succ st c = t.((i + 1) mod nn)
         && Three_opt.pred st c = t.((i + nn - 1) mod nn))
       (Array.init nn Fun.id)

let locked_pairs_intact (st : Three_opt.state) =
  Sym.check_alternating st.Three_opt.s (Three_opt.tour st)

let queue_consistent (st : Three_opt.state) =
  let nn = st.Three_opt.s.Sym.nn in
  let seen = Array.make nn 0 in
  Queue.iter
    (fun c -> if c >= 0 && c < nn then seen.(c) <- seen.(c) + 1)
    st.Three_opt.queue;
  let no_dups = Array.for_all (fun k -> k <= 1) seen in
  let agrees =
    Array.for_all
      (fun c -> st.Three_opt.in_queue.(c) = (seen.(c) = 1))
      (Array.init nn Fun.id)
  in
  no_dups && agrees

let prop name check =
  QCheck2.Test.make ~count:200 ~name gen_seed (fun seed ->
      let _, _, st = state_of_seed seed in
      churn seed st;
      check st)

let prop_inverse = prop "pos and tour stay inverse permutations"
    inverse_permutations

let prop_locked = prop "locked pair edges never cut" locked_pairs_intact
let prop_queue = prop "queue has no duplicates and matches in_queue"
    queue_consistent

(** After a full (unbudgeted) run the tour must still extract to a
    valid directed tour whose directed cost matches the symmetric cost
    plus the transformation offset. *)
let prop_full_run_extracts =
  QCheck2.Test.make ~count:100 ~name:"full run leaves an extractable tour"
    gen_seed (fun seed ->
      let d, s, st = state_of_seed seed in
      Three_opt.activate_all st;
      Three_opt.run st;
      let sym_tour = Three_opt.tour st in
      let directed = Sym.extract s sym_tour in
      Dtsp.is_tour d directed
      && Dtsp.tour_cost d directed
         = Sym.tour_cost s sym_tour + s.Sym.offset)

(** The cached incremental cost never drifts from a from-scratch
    recomputation, whatever the operation interleaving. *)
let prop_cost_consistent =
  QCheck2.Test.make ~count:200 ~name:"incremental cost matches recomputation"
    gen_seed (fun seed ->
      let _, s, st = state_of_seed seed in
      churn seed st;
      Three_opt.cost st = Sym.tour_cost s (Three_opt.tour st))

(* ---------------- don't-look version stamps ---------------- *)

(** A failed-scan stamp may never run ahead of the tour version —
    otherwise a stale stamp could suppress a needed rescan. *)
let stamps_sound (st : Three_opt.state) =
  Array.for_all
    (fun v -> v <= st.Three_opt.version)
    st.Three_opt.last_fail

let prop_stamps_sound =
  prop "failed-scan stamps never exceed the tour version" stamps_sound

(** The tentpole claim: don't-look bits are trajectory-exact.  The same
    operation sequence against bits-on and bits-off states ends in
    identical tours, costs, and move counts — the bits may only elide
    provably futile rescans. *)
let prop_bits_trajectory_exact =
  QCheck2.Test.make ~count:200
    ~name:"bits-on run identical to bits-off (tour, cost, moves)" gen_seed
    (fun seed ->
      let d = dtsp_of_seed seed in
      let s = Sym.of_dtsp d in
      let rng = Random.State.make [| seed + 1 |] in
      let nbr = Neighbors.of_sym s ~k:8 in
      let tour = Sym.expand s (random_directed_tour rng d.Dtsp.n) in
      let on = Three_opt.init ~dont_look:true s ~nbr ~tour in
      let off = Three_opt.init ~dont_look:false s ~nbr ~tour in
      (* same deterministic op sequence on both states *)
      churn seed on;
      churn seed off;
      Three_opt.activate_all on;
      Three_opt.activate_all off;
      Three_opt.run on;
      Three_opt.run off;
      if Three_opt.tour on <> Three_opt.tour off then
        QCheck2.Test.fail_reportf "tours differ";
      if Three_opt.cost on <> Three_opt.cost off then
        QCheck2.Test.fail_reportf "costs differ";
      if
        on.Three_opt.moves_2opt <> off.Three_opt.moves_2opt
        || on.Three_opt.moves_3opt <> off.Three_opt.moves_3opt
      then QCheck2.Test.fail_reportf "move counts differ";
      if off.Three_opt.scans_skipped <> 0 then
        QCheck2.Test.fail_reportf "bits-off state skipped a scan";
      true)

(* run repeated full passes until one applies no move: every city's
   failed scan is then stamped with the final version *)
let rec settle (st : Three_opt.state) =
  let m = st.Three_opt.moves_2opt + st.Three_opt.moves_3opt in
  Three_opt.activate_all st;
  Three_opt.run st;
  if st.Three_opt.moves_2opt + st.Three_opt.moves_3opt > m then settle st

(** Once converged, a full reactivation performs zero scans: every pop
    hits the don't-look stamp. *)
let prop_converged_pass_all_skipped =
  QCheck2.Test.make ~count:150
    ~name:"post-convergence pass skips every scan" gen_seed (fun seed ->
      let _, _, st = state_of_seed seed in
      settle st;
      let nn = st.Three_opt.s.Sym.nn in
      let skipped = st.Three_opt.scans_skipped in
      let moves = st.Three_opt.moves_2opt + st.Three_opt.moves_3opt in
      Three_opt.activate_all st;
      Three_opt.run st;
      if st.Three_opt.moves_2opt + st.Three_opt.moves_3opt <> moves then
        QCheck2.Test.fail_reportf "converged state still moved";
      if st.Three_opt.scans_skipped <> skipped + nn then
        QCheck2.Test.fail_reportf "expected %d skips, got %d" nn
          (st.Three_opt.scans_skipped - skipped);
      true)

(** [set_tour] (the kick path) must invalidate every stamp, so no city
    can be skipped against the new tour it was never scanned on. *)
let prop_set_tour_invalidates =
  QCheck2.Test.make ~count:150
    ~name:"set_tour bumps version past every stamp" gen_seed (fun seed ->
      let _, s, st = state_of_seed seed in
      settle st;
      (* rotating the cyclic tour keeps the cycle (and the locked
         pairs) but changes the array: exactly what a kick does *)
      let t = Three_opt.tour st in
      let nn = Array.length t in
      let rot = Array.init nn (fun i -> t.((i + 2) mod nn)) in
      let v = st.Three_opt.version in
      Iterated.set_tour st rot;
      if st.Three_opt.version <= v then
        QCheck2.Test.fail_reportf "set_tour did not bump the version";
      if
        not
          (Array.for_all
             (fun f -> f < st.Three_opt.version)
             st.Three_opt.last_fail)
      then QCheck2.Test.fail_reportf "a stamp survived set_tour";
      (* and the state still converges cleanly from the new tour *)
      settle st;
      inverse_permutations st
      && locked_pairs_intact st
      && Three_opt.cost st = Sym.tour_cost s (Three_opt.tour st))

(* ---------------- kicks: journaled rollback ---------------- *)

let reprs = [ Tour_repr.Array; Tour_repr.Two_level ]

(** Kick, re-descend, roll back: the exact tour array (absolute
    positions included) and cost come back, and the version ends above
    every stamp.  Three-city instances admit no three distinct cuts, so
    their kicks degenerate; even seeds put a locked pair on the
    wrap-around edge, which the kick must rotate away. *)
let prop_rollback_restores =
  QCheck2.Test.make ~count:200
    ~name:"kick + run + rollback restores tour, cost, stamps (both reprs)"
    gen_seed (fun seed ->
      List.iter
        (fun repr ->
          let _, s, st = state_of_seed ~repr ~min_n:3 seed in
          settle st;
          let t = Three_opt.tour st in
          let nn = Array.length t in
          let wrap_locked = Sym.is_locked s t.(nn - 1) t.(0) in
          if wrap_locked <> (seed land 1 = 0) then
            Three_opt.set_tour st (Array.init nn (fun i -> t.((i + 1) mod nn)));
          let rng = Random.State.make [| seed + 5 |] in
          for kick = 1 to 6 do
            let before = Three_opt.tour st in
            let cost = Three_opt.cost st in
            let dcost = Three_opt.directed_cost st in
            Three_opt.mark st;
            let touched = Iterated.double_bridge st rng in
            if touched = [] && Three_opt.tour st <> before then
              QCheck2.Test.fail_reportf "a degenerate kick moved the tour";
            if s.Sym.n_cities = 3 && touched <> [] then
              QCheck2.Test.fail_reportf "a three-city kick did not degenerate";
            List.iter (Three_opt.activate st) touched;
            Three_opt.run st;
            if Three_opt.cost st <> Sym.tour_cost s (Three_opt.tour st) then
              QCheck2.Test.fail_reportf "tracked cost drifted during the kick";
            Three_opt.rollback st;
            if Three_opt.tour st <> before then
              QCheck2.Test.fail_reportf "rollback %d (%s) left a different tour"
                kick (Tour_repr.kind_name repr);
            if Three_opt.cost st <> cost || Three_opt.directed_cost st <> dcost
            then QCheck2.Test.fail_reportf "rollback %d left a different cost" kick;
            if
              not
                (Array.for_all
                   (fun f -> f < st.Three_opt.version)
                   st.Three_opt.last_fail)
            then QCheck2.Test.fail_reportf "a stamp survived rollback %d" kick;
            if not (inverse_permutations st) then
              QCheck2.Test.fail_reportf "positions broken after rollback %d" kick
          done;
          if
            Three_opt.directed_cost st
            <> Sym.directed_tour_cost s (Three_opt.tour st)
            || Three_opt.directed_cost st <> Three_opt.cost st + s.Sym.offset
          then QCheck2.Test.fail_reportf "directed cost disagrees with a recount")
        reprs;
      true)

(* The kick loop as it was before the journal, kept as the oracle: the
   double bridge copies, rotates and rebuilds the tour through
   [set_tour], the cost is re-summed after every kick, and a worsening
   kick is undone by [set_tour] from a copy of the run's best tour. *)
let oracle_double_bridge (st : Three_opt.state) rng =
  let s = st.Three_opt.s in
  let n = s.Sym.nn in
  let t = Three_opt.tour st in
  if Sym.is_locked s t.(n - 1) t.(0) then begin
    let first = t.(0) in
    Array.blit t 1 t 0 (n - 1);
    t.(n - 1) <- first
  end;
  let ok p = not (Sym.is_locked s t.(p - 1) t.(p)) in
  let rand_cut () =
    let p = ref (1 + Random.State.int rng (n - 1)) in
    while not (ok !p) do
      p := 1 + ((!p + 1 - 1) mod (n - 1))
    done;
    !p
  in
  let p1 = ref (rand_cut ()) and p2 = ref (rand_cut ()) and p3 = ref (rand_cut ()) in
  let attempts = ref 0 in
  while (!p1 = !p2 || !p2 = !p3 || !p1 = !p3) && !attempts < 64 do
    incr attempts;
    p2 := rand_cut ();
    p3 := rand_cut ()
  done;
  if !p1 = !p2 || !p2 = !p3 || !p1 = !p3 then []
  else begin
    let a = min !p1 (min !p2 !p3) and c = max !p1 (max !p2 !p3) in
    let b = !p1 + !p2 + !p3 - a - c in
    let t' =
      Array.concat
        [ Array.sub t 0 a; Array.sub t b (c - b); Array.sub t a (b - a);
          Array.sub t c (n - c) ]
    in
    let touched =
      [ t.(0); t.(n - 1); t.(a - 1); t.(a); t.(b - 1); t.(b); t.(c - 1); t.(c) ]
    in
    Three_opt.set_tour st t';
    touched
  end

let accepted_kicks = ref 0
let rejected_kicks = ref 0

let oracle_solve (config : Iterated.config) (d : Dtsp.t) =
  let n = d.Dtsp.n in
  let rng = Random.State.make [| config.seed; n; Dtsp.max_cost d |] in
  let s = Sym.of_dtsp d in
  let nbr = Neighbors.of_sym s ~k:config.neighbors in
  let kicks_per_run = min config.max_kicks (config.kick_factor * n) in
  let best_tour = ref [||] and best_cost = ref max_int in
  let runs_with_best = ref 0 and kicks = ref 0 in
  let m2 = ref 0 and m3 = ref 0 and skipped = ref 0 in
  let sym_cost st = Sym.tour_cost s (Three_opt.tour st) in
  for run = 0 to config.runs - 1 do
    let start =
      if run = 0 then Construct.identity n
      else if run land 1 = 1 then
        Construct.greedy_edge ~rng ~skip_prob:config.greedy_skip d
      else
        Construct.nearest_neighbor ~rng ~choices:config.nn_choices d
          ~start:(Random.State.int rng n)
    in
    let st =
      Three_opt.init ~repr:config.tour_repr s ~nbr ~tour:(Sym.expand s start)
    in
    Three_opt.activate_all st;
    Three_opt.run st;
    let run_best = ref (Three_opt.tour st) in
    let run_best_cost = ref (sym_cost st) in
    for _ = 1 to kicks_per_run do
      incr kicks;
      List.iter (Three_opt.activate st) (oracle_double_bridge st rng);
      Three_opt.run st;
      let c = sym_cost st in
      if c < !run_best_cost then begin
        incr accepted_kicks;
        run_best_cost := c;
        run_best := Three_opt.tour st
      end
      else begin
        incr rejected_kicks;
        Three_opt.set_tour st !run_best
      end
    done;
    m2 := !m2 + st.Three_opt.moves_2opt;
    m3 := !m3 + st.Three_opt.moves_3opt;
    skipped := !skipped + st.Three_opt.scans_skipped;
    let directed = !run_best_cost + s.Sym.offset in
    if directed < !best_cost then begin
      best_cost := directed;
      best_tour := Sym.extract s !run_best;
      runs_with_best := 1
    end
    else if directed = !best_cost then incr runs_with_best
  done;
  ( !best_tour,
    {
      Iterated.best_cost = !best_cost;
      runs_with_best = !runs_with_best;
      kicks = !kicks;
      moves_2opt = !m2;
      moves_3opt = !m3;
      scans_skipped = !skipped;
      timed_out = false;
    } )

(** The journaled solver walks the oracle's trajectory exactly: best
    tour, every stats field (moves and don't-look skips included), on
    both representations. *)
let prop_solve_matches_oracle =
  QCheck2.Test.make ~count:60
    ~name:"Iterated.solve = copy/set_tour kick-loop oracle (both reprs)"
    gen_seed (fun seed ->
      let d = dtsp_of_seed ~max_n:14 seed in
      List.iter
        (fun repr ->
          let config =
            { Iterated.default with runs = 3; max_kicks = 16; seed;
              tour_repr = repr }
          in
          let tour, stats = Iterated.solve ~config d in
          let otour, ostats = oracle_solve config d in
          if tour <> otour then
            QCheck2.Test.fail_reportf "best tours differ (%s)"
              (Tour_repr.kind_name repr);
          if stats <> ostats then
            QCheck2.Test.fail_reportf
              "stats differ (%s): cost %d/%d moves %d+%d/%d+%d skipped %d/%d"
              (Tour_repr.kind_name repr) stats.Iterated.best_cost
              ostats.Iterated.best_cost stats.Iterated.moves_2opt
              stats.Iterated.moves_3opt ostats.Iterated.moves_2opt
              ostats.Iterated.moves_3opt stats.Iterated.scans_skipped
              ostats.Iterated.scans_skipped)
        reprs;
      true)

(* the differential is only as strong as the kicks it sees: on seeds
   like the property's, the oracle must both accept and reject *)
let test_oracle_saw_both_outcomes () =
  accepted_kicks := 0;
  rejected_kicks := 0;
  for seed = 0 to 9 do
    let config = { Iterated.default with runs = 3; max_kicks = 16; seed } in
    ignore (oracle_solve config (dtsp_of_seed ~max_n:14 seed))
  done;
  Alcotest.(check bool) "some kicks accepted" true (!accepted_kicks > 0);
  Alcotest.(check bool) "some kicks rejected" true (!rejected_kicks > 0)

(* A kick costs O(moves) tour operations, and so must its allocation:
   [mark] reuses the journal, the double bridge and the rollback are
   reversals, and the re-descent allocates only per move.  Measured
   per kick after a warm-up, on random instances descended to a local
   optimum and kicked from there (every kick rolled back): on the flat
   arrays 25.4 and 24.3 words per applied move at 100 and 800 directed
   cities; on the two-level tour at 50 cities about 85 words per move,
   its segment splits included.  The bounds below leave about a third
   over the flat measurement for the compiler; one tour copy per kick,
   or a list of the endpoints to activate per 3-opt move, breaks them
   at both flat sizes. *)
let kick_words ~repr n =
  let rng = Random.State.make [| 0xA110C; n |] in
  let d =
    Dtsp.make
      (Array.init n (fun i ->
           Array.init n (fun j -> if i = j then 0 else Random.State.int rng 1000)))
  in
  let s = Sym.of_dtsp d in
  let nbr = Neighbors.of_sym s ~k:12 in
  let st = Three_opt.init ~repr s ~nbr ~tour:(Sym.expand s (Construct.identity n)) in
  Three_opt.activate_all st;
  Three_opt.run st;
  let kick () =
    Three_opt.mark st;
    List.iter (Three_opt.activate st) (Iterated.double_bridge st rng);
    Three_opt.run st;
    Three_opt.rollback st
  in
  (* the journal reaches its working size *)
  for _ = 1 to 100 do
    kick ()
  done;
  let kicks = 300 in
  let moves () = st.Three_opt.moves_2opt + st.Three_opt.moves_3opt in
  (* arrays too large for the minor heap go straight to the major
     heap, which [Gc.minor_words] misses: major minus promoted words
     counts them *)
  let allocated () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let m0 = moves () in
  let w0 = allocated () in
  for _ = 1 to kicks do
    kick ()
  done;
  let words = allocated () -. w0 in
  (words /. float_of_int kicks, float_of_int (moves () - m0) /. float_of_int kicks)

let test_kick_allocation_independent_of_n () =
  List.iter
    (fun (repr, n, per_move) ->
      let words, moves = kick_words ~repr n in
      let what = Printf.sprintf "%s, %d cities" (Tour_repr.kind_name repr) n in
      Alcotest.(check bool) (what ^ ": kicks apply moves") true (moves >= 1.);
      if words > 64. +. (per_move *. moves) then
        Alcotest.failf "%s: %.1f minor words per kick for %.2f moves" what words
          moves)
    [
      (Tour_repr.Array, 100, 34.);
      (Tour_repr.Array, 800, 34.);
      (Tour_repr.Two_level, 50, 160.);
    ]

(* ---------------- gain bound: differential against a full scan ---------------- *)

(* What the reference scan applied: [ub] is the move's gain bound
   (gain + its third edge's cost) and [third_locked] whether that
   third edge re-joins an in/out pair. *)
type applied = Two_opt | Three_opt_move of { third_locked : bool; ub : int }

(** [Three_opt.try_city]'s search written out without the gain bound:
    the same 2-opt scans, the same [dab + 2·real_max] candidate limit
    and the same x-major T3–T6 order, but every reconnection's gain is
    computed in full.  Moves are applied through the public journaled
    [reverse] (a 3-opt move as its {!Three_opt.reconnect_reversals}
    sequence), which leaves the same tour array and cost. *)
let reference_try_city (st : Three_opt.state) a =
  let s = st.Three_opt.s in
  let n = s.Sym.nn in
  let d = Sym.cost s in
  let succ = Three_opt.succ st and pred = Three_opt.pred st in
  let pos = Three_opt.position st in
  let rel c p0 = (pos c - p0 + n) mod n in
  let activate = List.iter (Three_opt.activate st) in
  let exception Found of applied in
  let exception Stop in
  let prefix limit arr =
    let l = ref [] in
    (try Array.iter (fun c -> if limit c then raise Stop else l := c :: !l) arr
     with Stop -> ());
    List.rev !l
  in
  try
    List.iter
      (fun forward ->
        let b = if forward then succ a else pred a in
        if not (Sym.is_locked s a b) then begin
          let dab = d a b in
          List.iter
            (fun x ->
              let y = if forward then succ x else pred x in
              if x <> b && y <> a then begin
                let gain = dab + d x y - d a x - d b y in
                if gain > 0 then begin
                  let pa, px =
                    if forward then (pos a, pos x) else (pos y, pos b)
                  in
                  let fwd = (px - pa + n) mod n in
                  if fwd <= n - fwd then Three_opt.reverse st ((pa + 1) mod n) px
                  else Three_opt.reverse st ((px + 1) mod n) pa;
                  st.Three_opt.moves_2opt <- st.Three_opt.moves_2opt + 1;
                  activate [ a; b; x; y ];
                  raise (Found Two_opt)
                end
              end)
            (prefix (fun x -> d a x >= dab) st.Three_opt.nbr.(a));
          if forward then begin
            let pi = pos a in
            let limit = dab + (2 * s.Sym.real_max) in
            let ys = prefix (fun y -> d b y >= limit) st.Three_opt.nbr.(b) in
            List.iter
              (fun x ->
                let sx = succ x and prx = pred x in
                let rx = rel x pi in
                let rx1 = (rx + n - 1) mod n in
                List.iter
                  (fun y ->
                    let sy = succ y and pry = pred y in
                    let ry = rel y pi in
                    let ry1 = (ry + n - 1) mod n in
                    (* (type, jj, kk, edge cut at x, edge cut at y,
                       third added edge, the two new endpoints) *)
                    List.iter
                      (fun (ty, jj, kk, (p, q), (u, v), (e, f)) ->
                        if jj >= 1 && kk > jj && kk <= n - 1 then begin
                          let ub = dab + d p q + d u v - d a x - d b y in
                          let gain = ub - d e f in
                          if gain > 0 then begin
                            Three_opt.reconnect_reversals ~n ~pi ~jj ~kk ty
                              (Three_opt.reverse st);
                            st.Three_opt.moves_3opt <- st.Three_opt.moves_3opt + 1;
                            activate [ a; b; x; y; e; f ];
                            raise
                              (Found
                                 (Three_opt_move
                                    { third_locked = Sym.is_locked s e f; ub }))
                          end
                        end)
                      [
                        (Three_opt.T3, rx, ry, (x, sx), (y, sy), (sx, sy));
                        (Three_opt.T4, rx1, ry, (prx, x), (y, sy), (prx, sy));
                        (Three_opt.T5, rx1, ry1, (prx, x), (pry, y), (prx, pry));
                        (Three_opt.T6, ry1, rx, (x, sx), (pry, y), (pry, sx));
                      ])
                  ys)
              (prefix (fun x -> d a x >= limit) st.Three_opt.nbr.(a))
          end
        end)
      [ true; false ];
    None
  with Found m -> Some m

let queue_list (st : Three_opt.state) =
  List.of_seq (Queue.to_seq st.Three_opt.queue)

(* Both states must agree after every call: same answer, tour, cost,
   move counts and work queue. *)
let check_same (impl : Three_opt.state) (oracle : Three_opt.state) what =
  if Three_opt.tour impl <> Three_opt.tour oracle then
    QCheck2.Test.fail_reportf "%s: tours differ" what;
  if Three_opt.cost impl <> Three_opt.cost oracle then
    QCheck2.Test.fail_reportf "%s: costs differ" what;
  if
    impl.Three_opt.moves_2opt <> oracle.Three_opt.moves_2opt
    || impl.Three_opt.moves_3opt <> oracle.Three_opt.moves_3opt
  then QCheck2.Test.fail_reportf "%s: move counts differ" what;
  if queue_list impl <> queue_list oracle then
    QCheck2.Test.fail_reportf "%s: work queues differ" what

(** Descend both states to a local optimum with the same call
    sequence — every city in turn, [try_city] until it fails, until a
    sweep moves nothing — comparing after every call.  Returns the
    moves the reference applied. *)
let lockstep_descent impl oracle =
  let nn = impl.Three_opt.s.Sym.nn in
  let applied = ref [] and moved = ref true in
  while !moved do
    moved := false;
    for c = 0 to nn - 1 do
      let again = ref true in
      while !again do
        let got = Three_opt.try_city impl c in
        let want = reference_try_city oracle c in
        (match want with Some m -> applied := m :: !applied | None -> ());
        if got <> (want <> None) then
          QCheck2.Test.fail_reportf "city %d: try_city %b, reference %b" c got
            (want <> None);
        check_same impl oracle (Printf.sprintf "city %d" c);
        again := got;
        if got then moved := true
      done
    done
  done;
  !applied

(* two states over the same random tour: alternating, or with
   [scrambled] a random permutation of the symmetric cities, where most
   in/out pairs are split and an improving move may re-join one
   through its third edge *)
let twin_states ?(scrambled = false) ?repr d seed =
  let s = Sym.of_dtsp d in
  let rng = Random.State.make [| seed + 1 |] in
  let nbr = Neighbors.of_sym s ~k:8 in
  let tour =
    if scrambled then random_directed_tour rng s.Sym.nn
    else Sym.expand s (random_directed_tour rng d.Dtsp.n)
  in
  (Three_opt.init ?repr s ~nbr ~tour, Three_opt.init ?repr s ~nbr ~tour)

(** Alternating tours, both representations; odd seeds draw some
    negative costs, where [Sym.nonneg] is false and nothing is
    bounded. *)
let prop_bound_alternating =
  QCheck2.Test.make ~count:150
    ~name:"try_city = full-gain reference scan (alternating tours)" gen_seed
    (fun seed ->
      let lo = if seed land 1 = 1 then -20 else 0 in
      List.iter
        (fun repr ->
          let impl, oracle = twin_states ~repr (dtsp_of_seed ~lo seed) seed in
          ignore (lockstep_descent impl oracle))
        reprs;
      true)

(* Settle both states, then kick both with identically seeded double
   bridges and re-descend in lockstep.  A double bridge cuts only
   unlocked edges, so these tours stay alternating: this is the kick
   re-descent the solver spends its time in. *)
let prop_bound_kicked =
  QCheck2.Test.make ~count:100
    ~name:"try_city = full-gain reference scan (after double bridges)"
    gen_seed (fun seed ->
      let impl, oracle =
        twin_states (dtsp_of_seed ~min_n:5 ~max_n:14 seed) seed
      in
      ignore (lockstep_descent impl oracle);
      let rng_i = Random.State.make [| seed + 7 |]
      and rng_o = Random.State.make [| seed + 7 |] in
      for _ = 1 to 8 do
        if Iterated.double_bridge impl rng_i <> Iterated.double_bridge oracle rng_o
        then QCheck2.Test.fail_reportf "kicks differ";
        check_same impl oracle "after the kick";
        ignore (lockstep_descent impl oracle)
      done;
      true)

let scrambled_states seed =
  twin_states ~scrambled:true (dtsp_of_seed ~min_n:5 ~max_n:14 seed) seed

let prop_bound_scrambled =
  QCheck2.Test.make ~count:100
    ~name:"try_city = full-gain reference scan (split pairs)" gen_seed
    (fun seed ->
      let impl, oracle = scrambled_states seed in
      ignore (lockstep_descent impl oracle);
      true)

(** The one exception to the bound: a move whose third edge re-joins a
    split pair gains [ub + m], so it improves although its bound [ub]
    is ≤ 0.  Such moves are the first improving move of some scans from
    split-pair tours, and [try_city] makes each of them (the lockstep
    fails otherwise). *)
let test_locked_third_edge () =
  let found = ref 0 in
  for seed = 0 to 19 do
    let impl, oracle = scrambled_states seed in
    List.iter
      (function
        | Three_opt_move { third_locked = true; ub } when ub <= 0 -> incr found
        | _ -> ())
      (lockstep_descent impl oracle)
  done;
  Alcotest.(check bool) "an improving move re-adds a locked third edge" true
    (!found > 0)

(* Pairs the bound skips in one state: those whose largest bound is ≤ 0
   and whose four third edges are all unlocked.  Fails if any of them
   has an improving T3–T6 reconnection; returns how many there were. *)
let skipped_pairs (st : Three_opt.state) =
  let s = st.Three_opt.s in
  let d = Sym.cost s in
  let succ = Three_opt.succ st and pred = Three_opt.pred st in
  let skipped = ref 0 in
  for a = 0 to s.Sym.nn - 1 do
    let b = succ a in
    if not (Sym.is_locked s a b) then begin
      let dab = d a b in
      let limit = dab + (2 * s.Sym.real_max) in
      Array.iter
        (fun x ->
          Array.iter
            (fun y ->
              let sx = succ x and prx = pred x in
              let sy = succ y and pry = pred y in
              let base = dab - d a x - d b y in
              let rx = max (d x sx) (d prx x) and ry = max (d y sy) (d pry y) in
              let thirds = [ (sx, sy); (prx, sy); (pry, prx); (pry, sx) ] in
              if
                d a x < limit && d b y < limit
                && base + rx + ry <= 0
                && not (List.exists (fun (e, f) -> Sym.is_locked s e f) thirds)
              then begin
                incr skipped;
                List.iter
                  (fun gain ->
                    if gain > 0 then
                      QCheck2.Test.fail_reportf
                        "skipped pair a=%d x=%d y=%d improves by %d" a x y gain)
                  [
                    base + d x sx + d y sy - d sx sy;
                    base + d prx x + d y sy - d prx sy;
                    base + d prx x + d pry y - d pry prx;
                    base + d x sx + d pry y - d pry sx;
                  ]
              end)
            st.Three_opt.nbr.(b))
        st.Three_opt.nbr.(a)
    end
  done;
  !skipped

(* alternating, kicked or split-pair tours by seed *)
let bound_case seed =
  match seed mod 3 with
  | 0 ->
      let _, _, st = state_of_seed ~min_n:5 seed in
      st
  | 1 ->
      let _, _, st = state_of_seed ~min_n:5 seed in
      settle st;
      ignore (Iterated.double_bridge st (Random.State.make [| seed + 3 |]));
      st
  | _ -> fst (scrambled_states seed)

(** The skip itself, checked directly on every (x, y) pair of every
    forward base edge. *)
let prop_skipped_pairs_non_improving =
  QCheck2.Test.make ~count:150
    ~name:"every pair the bound skips has T3-T6 non-improving" gen_seed
    (fun seed ->
      ignore (skipped_pairs (bound_case seed));
      true)

(* ... and the bound is not vacuous: it skips pairs on alternating and
   kicked tours (split-pair tours cut forbidden edges, whose [inf]
   lifts every bound above 0) *)
let test_bound_skips_pairs () =
  for kind = 0 to 1 do
    let total = ref 0 in
    for k = 0 to 9 do
      total := !total + skipped_pairs (bound_case ((3 * k) + kind))
    done;
    Alcotest.(check bool) (Printf.sprintf "tour kind %d skips pairs" kind) true
      (!total > 0)
  done

let () =
  Alcotest.run "three-opt-prop"
    [
      ( "invariants",
        [
          QCheck_alcotest.to_alcotest prop_inverse;
          QCheck_alcotest.to_alcotest prop_locked;
          QCheck_alcotest.to_alcotest prop_queue;
          QCheck_alcotest.to_alcotest prop_cost_consistent;
          QCheck_alcotest.to_alcotest prop_full_run_extracts;
        ] );
      ( "dont-look",
        [
          QCheck_alcotest.to_alcotest prop_stamps_sound;
          QCheck_alcotest.to_alcotest prop_bits_trajectory_exact;
          QCheck_alcotest.to_alcotest prop_converged_pass_all_skipped;
          QCheck_alcotest.to_alcotest prop_set_tour_invalidates;
        ] );
      ( "kicks",
        [
          QCheck_alcotest.to_alcotest prop_rollback_restores;
          QCheck_alcotest.to_alcotest prop_solve_matches_oracle;
          Alcotest.test_case "oracle saw accepts and rejects" `Quick
            test_oracle_saw_both_outcomes;
          Alcotest.test_case "kick allocation independent of n" `Quick
            test_kick_allocation_independent_of_n;
        ] );
      ( "gain-bound",
        [
          QCheck_alcotest.to_alcotest prop_bound_alternating;
          QCheck_alcotest.to_alcotest prop_bound_kicked;
          QCheck_alcotest.to_alcotest prop_bound_scrambled;
          Alcotest.test_case "locked third edge is evaluated" `Quick
            test_locked_third_edge;
          QCheck_alcotest.to_alcotest prop_skipped_pairs_non_improving;
          Alcotest.test_case "the bound skips pairs" `Quick
            test_bound_skips_pairs;
        ] );
    ]
