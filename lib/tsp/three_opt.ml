(** 3-Opt local search with neighbor lists and don't-look bits
    (Johnson–McGeoch [10]).

    Works on a symmetric instance produced by {!Sym.of_dtsp}.  A move
    removes up to three tour edges and reconnects the segments; the four
    pure-3-opt reconnection types plus classic 2-opt are searched
    first-improvement, with candidate added edges restricted to the
    k-nearest-neighbor lists.  Locked pair edges (weight −m) are never
    profitable to remove and forbidden pairs (weight inf) never profitable
    to add, so the alternating in/out structure of the symmetrized tour is
    preserved by construction (and re-checked by the caller).

    The tour lives behind {!Tour_repr}: flat position/city arrays
    (O(n) reversals) or the two-level √n-segment structure (O(√n)
    moves) — every search decision is made from absolute positions,
    which both representations report identically, so the trajectory
    is representation-independent (pinned by the differential
    property suite).  Every move is a short sequence of range
    reversals on it: a 2-opt move is one, a pure 3-opt reconnection
    two or three ([reconnect_reversals], the segment algebra of
    DESIGN.md §6), and all of them go through [apply_reversal], the
    one place that reverses the tour and journals the reversal.

    The pure 3-opt pair scan is pruned by an exact gain bound (see
    [try_city]): a reconnection's gain is its bound minus the cost of
    its third added edge, and with non-negative directed costs a bound
    ≤ 0 proves it non-improving unless that edge is locked.  Only
    non-improving reconnections are skipped, so the scan finds the
    full scan's first improving move and the trajectory is unchanged.

    Don't-look bits are version stamps rather than booleans: [version]
    counts tour mutations (every applied move, every [set_tour]) and
    [last_fail.(c)] records the version at which city [c]'s full
    candidate scan last came up empty.  [run] skips a popped city's
    scan exactly when [last_fail.(c) = version] — the tour has not
    changed since the scan failed, and [try_city] is side-effect-free
    on failure, so the skip is provably unobservable.  Bits-on and
    bits-off runs therefore produce identical tours, costs, and move
    counts; only [scans_skipped] differs.

    The tour cost is tracked, not recomputed: [init]/[set_tour] sum it
    once in directed units ({!Sym.directed_tour_cost}) and every
    applied move subtracts the gain the scan already computed, so
    [cost] is O(1).  Between [mark] and [commit]/[rollback] every tour
    mutation is journaled as the range reversals (and rotations) that
    realize it; [rollback] replays the journal backwards — each
    reversal is its own inverse — restoring the exact absolute
    positions on either representation in O(moves) reversals instead
    of an O(n) [set_tour]. *)

(* y-side scratch of the 3-opt candidate scan: for each candidate y
   of the removed edge's head b, the quantities that do not depend on
   the other candidate x — computed once per scan instead of once per
   (x, y) pair; grown on demand to the neighbor-list width *)
type scratch = {
  mutable ry : int array;  (** position of y relative to the base cut *)
  mutable ry1 : int array;  (** same minus one, cyclically *)
  mutable sy : int array;  (** tour successor of y *)
  mutable pry : int array;  (** tour predecessor of y *)
  mutable gys : int array;  (** d(y, sy) − d(b, y) *)
  mutable gpy : int array;  (** d(pry, y) − d(b, y) *)
}

type state = {
  s : Sym.t;
  nbr : int array array;  (** candidate lists, sorted by cost *)
  repr : Tour_repr.t;  (** the tour (flat arrays or two-level segments) *)
  in_queue : bool array;
  queue : int Queue.t;
  mutable moves_2opt : int;
  mutable moves_3opt : int;
  mutable version : int;  (** tour mutation counter *)
  last_fail : int array;  (** per city: version at last failed scan, −1 never *)
  mutable scans_skipped : int;  (** scans elided by the don't-look stamps *)
  dont_look : bool;
  scr : scratch;
  mutable dcost : int;  (** tour cost in directed units (see [cost]) *)
  mutable marked : bool;  (** a [mark] is open: mutations are journaled *)
  mutable mark_cost : int;  (** [dcost] when the open mark was set *)
  mutable journal : int array;
      (** (l, r) pairs since the mark: a reversal of positions l..r, or
          a [shift] by r when l = −1 *)
  mutable jlen : int;  (** used prefix of [journal] *)
}

let nn st = st.s.Sym.nn
let d st a b = Sym.cost st.s a b
let imax (a : int) b = if a >= b then a else b
let city_at st p = Tour_repr.city_at st.repr p
let position st c = Tour_repr.pos st.repr c
let succ st c = Tour_repr.succ st.repr c
let pred st c = Tour_repr.pred st.repr c
let segments st = Tour_repr.segments st.repr
let rebalances st = Tour_repr.rebalances st.repr
let seg_splits st = Tour_repr.splits st.repr

(** [init s ~nbr ~tour] starts a search state from a tour (copied).
    [dont_look] (default on) enables the version-stamp scan skips —
    trajectory-neutral either way.  [repr] (default [Auto]) picks the
    tour representation — trajectory-neutral too, by the position
    contract of {!Tour_repr}. *)
let init ?(dont_look = true) ?(repr = Tour_repr.Auto) (s : Sym.t) ~nbr ~tour =
  let n = s.Sym.nn in
  if Array.length tour <> n then invalid_arg "Three_opt.init: wrong tour size";
  let seen = Array.make n false in
  Array.iter
    (fun c ->
      if c < 0 || c >= n || seen.(c) then
        invalid_arg "Three_opt.init: not a permutation"
      else seen.(c) <- true)
    tour;
  let repr = Tour_repr.make repr ~n_cities:s.Sym.n_cities tour in
  Ba_obs.Metrics.set_gauge Ba_obs.Metrics.Tsp_repr
    (match Tour_repr.kind_of repr with Tour_repr.Two_level -> 1 | _ -> 0);
  {
    s;
    nbr;
    repr;
    in_queue = Array.make n false;
    queue = Queue.create ();
    moves_2opt = 0;
    moves_3opt = 0;
    version = 0;
    last_fail = Array.make n (-1);
    scans_skipped = 0;
    dont_look;
    scr = { ry = [||]; ry1 = [||]; sy = [||]; pry = [||]; gys = [||]; gpy = [||] };
    dcost = Sym.directed_tour_cost s tour;
    marked = false;
    mark_cost = 0;
    journal = [||];
    jlen = 0;
  }

(** The scan scratch, grown to at least [len] entries. *)
let scratch st len =
  let scr = st.scr in
  if Array.length scr.ry < len then begin
    scr.ry <- Array.make len 0;
    scr.ry1 <- Array.make len 0;
    scr.sy <- Array.make len 0;
    scr.pry <- Array.make len 0;
    scr.gys <- Array.make len 0;
    scr.gpy <- Array.make len 0
  end;
  scr

(** Replace the tour wholesale (same cities, new order), e.g. for a
    perturbation restart.  Bumps [version] so stale failed-scan stamps
    can never suppress a needed rescan; recomputes the cost and
    discards an open mark. *)
let set_tour st tour =
  let n = nn st in
  if Array.length tour <> n then
    invalid_arg "Three_opt.set_tour: wrong tour size";
  Tour_repr.set_tour st.repr tour;
  st.dcost <- Sym.directed_tour_cost st.s tour;
  st.marked <- false;
  st.jlen <- 0;
  st.version <- st.version + 1

(* ------------------------------------------------------------------ *)
(* journal                                                             *)

let record st l r =
  if st.marked then begin
    if st.jlen + 2 > Array.length st.journal then begin
      let j = Array.make (max 64 (2 * Array.length st.journal)) 0 in
      Array.blit st.journal 0 j 0 st.jlen;
      st.journal <- j
    end;
    st.journal.(st.jlen) <- l;
    st.journal.(st.jlen + 1) <- r;
    st.jlen <- st.jlen + 2
  end

(** Start journaling: [rollback] will return to the current tour and
    cost.  Re-marking discards the previous journal. *)
let mark st =
  st.marked <- true;
  st.jlen <- 0;
  st.mark_cost <- st.dcost

(** Keep every mutation since [mark] and stop journaling. *)
let commit st =
  if not st.marked then invalid_arg "Three_opt.commit: no open mark";
  st.marked <- false;
  st.jlen <- 0

(** Undo every mutation since [mark]: the journal is replayed backwards
    (reversals are self-inverse, shifts are negated), the marked cost
    is restored and [version] is bumped once — what [set_tour] with
    the marked tour would do, so the don't-look stamps stay
    trajectory-exact. *)
let rollback st =
  if not st.marked then invalid_arg "Three_opt.rollback: no open mark";
  let j = st.journal in
  let i = ref (st.jlen - 2) in
  while !i >= 0 do
    let l = j.(!i) and r = j.(!i + 1) in
    if l < 0 then Tour_repr.shift st.repr (-r) else Tour_repr.reverse st.repr l r;
    i := !i - 2
  done;
  st.marked <- false;
  st.jlen <- 0;
  st.dcost <- st.mark_cost;
  st.version <- st.version + 1

(** Reverse the cyclic position range [l..r] and journal it while a
    mark is open: the only way a move or kick reverses the tour.  Cost,
    [version] and move counts are the caller's. *)
let apply_reversal st l r =
  Tour_repr.reverse st.repr l r;
  record st l r

(** [reverse st l r] reverses the cyclic position range [l..r]
    (journaled), updating the cost from the two edges it changes. *)
let reverse st l r =
  let n = nn st in
  let len = ((r - l + n) mod n) + 1 in
  (* reversing n − 1 or n cities keeps the cycle's edge set *)
  if len < n - 1 then begin
    let b = city_at st l and c = city_at st r in
    let a = pred st b and e = succ st c in
    st.dcost <- st.dcost + d st a c + d st b e - d st a b - d st c e
  end;
  apply_reversal st l r;
  st.version <- st.version + 1

(** [shift st k] moves every city [k] positions back along the tour
    (journaled); the cycle and its cost are unchanged. *)
let shift st k =
  Tour_repr.shift st.repr k;
  record st (-1) k;
  st.version <- st.version + 1

(** Mark a city to be re-examined. *)
let activate st c =
  if not st.in_queue.(c) then begin
    st.in_queue.(c) <- true;
    Queue.add c st.queue
  end

let activate_all st =
  for c = 0 to nn st - 1 do
    activate st c
  done

(** Reverse the cheaper side for a 2-opt move cutting after positions
    [pa] and [px] (removing edges (t[pa],t[pa+1]) and (t[px],t[px+1])).
    The side choice counts tour cells, so it is representation-
    independent. *)
let apply_2opt st ~pa ~px ~gain =
  let n = nn st in
  let len_fwd = (px - pa + n) mod n in
  (* reversing positions pa+1..px, or equivalently px+1..pa *)
  let l, r =
    if len_fwd <= n - len_fwd then ((pa + 1) mod n, px) else ((px + 1) mod n, pa)
  in
  apply_reversal st l r;
  st.dcost <- st.dcost - gain;
  st.moves_2opt <- st.moves_2opt + 1;
  st.version <- st.version + 1

(** The four pure-3-opt reconnection types (DESIGN.md §6): with cuts
    after positions [pi], [pi+jj], [pi+kk], segment 1 = offsets
    [1..jj] from [pi] and segment 2 = offsets [jj+1..kk], the window
    becomes T3 = [rev s1, rev s2], T4 = [s2, s1], T5 = [s2, rev s1],
    T6 = [rev s2, s1]. *)
type reconnection = T3 | T4 | T5 | T6

(** [reconnect_reversals ~n ~pi ~jj ~kk ty f] calls [f l r] for each
    position-range reversal of the sequence that realizes the
    reconnection, in order.  Each stays inside the window, so
    positions outside it keep their cities. *)
let reconnect_reversals ~n ~pi ~jj ~kk ty f =
  let pj = (pi + jj) mod n and pk = (pi + kk) mod n in
  let p1 = (pi + 1) mod n and pj1 = (pj + 1) mod n in
  match ty with
  | T3 ->
      f p1 pj;
      f pj1 pk
  | T4 ->
      f p1 pj;
      f pj1 pk;
      f p1 pk
  | T5 ->
      f pj1 pk;
      f p1 pk
  | T6 ->
      f p1 pj;
      f p1 pk

(** Apply a pure 3-opt reconnection with cuts after positions [pi],
    [pi+jj], [pi+kk]. *)
let apply_3opt st ~pi ~jj ~kk ~gain ty =
  reconnect_reversals ~n:(nn st) ~pi ~jj ~kk ty (apply_reversal st);
  st.dcost <- st.dcost - gain;
  st.moves_3opt <- st.moves_3opt + 1;
  st.version <- st.version + 1

(** Search one improving move around city [a]; apply it and return [true],
    or return [false] if none exists in the candidate neighborhood. *)
let try_city st a =
  let n = nn st in
  let found = ref false in
  let di = ref 0 in
  while (not !found) && !di < 2 do
    let forward = !di = 0 in
    incr di;
    (* the removed base edge, read as (a, b) with b following a in the
       chosen direction; in position terms the cut is after position pa *)
    let b = if forward then succ st a else pred st a in
    if not (Sym.is_locked st.s a b) then begin
      let dab = d st a b in
      (* ---- 2-opt scan: added edge (a, x) ---- *)
      let na = st.nbr.(a) in
      let i = ref 0 in
      while (not !found) && !i < Array.length na do
        let x = na.(!i) in
        incr i;
        let dax = d st a x in
        if dax >= dab then i := Array.length na (* sorted: no gain further on *)
        else if x <> b then begin
          let y = if forward then succ st x else pred st x in
          if y <> a then begin
            let gain = dab + d st x y - dax - d st b y in
            if gain > 0 then begin
              (* in forward reading, cuts are after a and after x;
                 in backward reading, after b' = pred a and after y *)
              (if forward then
                 apply_2opt st ~pa:(position st a) ~px:(position st x) ~gain
               else apply_2opt st ~pa:(position st y) ~px:(position st b) ~gain);
              activate st a;
              activate st b;
              activate st x;
              activate st y;
              found := true
            end
          end
        end
      done;
      (* ---- pure 3-opt scan (forward orientation only; every move is
              found from one of its removed edges read forward).

              Every non-base city a reconnection touches sits at
              position px±1 or py±1, i.e. it is the tour successor or
              predecessor of a candidate — so the scan never needs
              [city_at] (a binary search under the two-level
              representation), only the O(1) succ/pred links whose
              cache lines the [position] calls just pulled in. *)
      if (not !found) && forward then begin
        let pi = position st a in
        let limit = dab + (2 * st.s.Sym.real_max) in
        let na = st.nbr.(a) and nb = st.nbr.(b) in
        (* Hoist the y-side of the pair scan: position, tour neighbors
           and the y-side part of every gain bound (below) depend only
           on (b, pi), not on x, so compute them once per scan instead
           of once per pair.  The prefix ends at the first dby ≥ limit
           (nb is sorted). *)
        let nbl = Array.length nb in
        let scr = scratch st nbl in
        let ry_s = scr.ry and ry1_s = scr.ry1 and sy_s = scr.sy
        and pry_s = scr.pry and gys_s = scr.gys and gpy_s = scr.gpy in
        let ny = ref 0 in
        let stop = ref false in
        while (not !stop) && !ny < nbl do
          let y = nb.(!ny) in
          let dby = d st b y in
          if dby >= limit then stop := true
          else begin
            let py = position st y in
            (* positions live in [0, n): conditional adds replace mods *)
            let ry = let r = py - pi in if r < 0 then r + n else r in
            ry_s.(!ny) <- ry;
            ry1_s.(!ny) <- (if ry = 0 then n - 1 else ry - 1);
            let sy = succ st y and pry = pred st y in
            sy_s.(!ny) <- sy;
            pry_s.(!ny) <- pry;
            gys_s.(!ny) <- d st y sy - dby;
            gpy_s.(!ny) <- d st pry y - dby;
            incr ny
          end
        done;
        let ny = !ny in
        (* Exact gain bound (trajectory-identical).  Every reconnection
           T adds (a,x), (b,y) and a third edge, and removes (a,b), one
           tour edge at x and one at y, so
             gain_T = ub_T − d(third),
             ub_T = dab − dax − dby + r_x(T) + r_y(T)
           with r_x, r_y the exact costs of the edges T removes.  When
           every directed cost is ≥ 0 an unlocked third edge costs ≥ 0,
           so ub_T ≤ 0 proves T non-improving without looking the third
           edge up, and a pair whose largest ub_T is ≤ 0 is skipped
           whole.  A locked third edge (−m: it re-joins an in/out pair
           that a non-alternating tour splits; parity-tested on cities
           already loaded) is the one exception and is always
           evaluated.  Skipping only provably non-improving
           reconnections keeps the first improving move of the x-major
           scan, and with it the trajectory. *)
        let all = not st.s.Sym.nonneg in
        let xi = ref 0 in
        while (not !found) && !xi < Array.length na do
          let x = na.(!xi) in
          incr xi;
          let dax = d st a x in
          if dax >= limit then xi := Array.length na
          else begin
            let px = position st x in
            let sx = succ st x and prx = pred st x in
            (* x-side part of ub_T: T3/T6 cut (x, sx), T4/T5 cut (prx, x) *)
            let gxs = dab - dax + d st x sx and gpx = dab - dax + d st prx x in
            let hx = imax gxs gpx in
            (* the partners a locked third edge would re-join *)
            let lsx = sx lxor 1 and lprx = prx lxor 1 in
            let rx = let r = px - pi in if r < 0 then r + n else r in
            let rx1 = if rx = 0 then n - 1 else rx - 1 in
            let yi = ref 0 in
            while (not !found) && !yi < ny do
              let yk = !yi in
              incr yi;
              let gys = gys_s.(yk) and gpy = gpy_s.(yk) in
              let sy = sy_s.(yk) and pry = pry_s.(yk) in
              (* third edges: T3 (sx,sy), T4 (prx,sy), T5 (pry,prx),
                 T6 (pry,sx) *)
              let l3 = sy = lsx and l4 = sy = lprx
              and l5 = pry = lprx and l6 = pry = lsx in
              if all || hx + imax gys gpy > 0 || l3 || l4 || l5 || l6 then begin
                let y = nb.(yk) in
                let ry = ry_s.(yk) and ry1 = ry1_s.(yk) in
                (* T3: x = c at cut j, y = e at cut k.
                   added (a,c) (b,e) (d,f); d = succ x, f = succ y;
                   removed (x, succ x) and (y, succ y) *)
                (let jj = rx and kk = ry and ub = gxs + gys in
                 if
                   (not !found) && (all || ub > 0 || l3)
                   && jj >= 1 && kk > jj && kk <= n - 1
                 then begin
                   let dd = sx and f = sy in
                   let gain = ub - d st dd f in
                   if gain > 0 then begin
                     apply_3opt st ~pi ~jj ~kk ~gain T3;
                     activate st a;
                     activate st b;
                     activate st x;
                     activate st y;
                     activate st dd;
                     activate st f;
                     found := true
                   end
                 end);
                (* T4: x = d (so cut j is just before x), y = e at cut k.
                   added (a,d) (e,b) (c,f); c = pred x, f = succ y;
                   removed (pred x, x) and (y, succ y) *)
                (let jj = rx1 and kk = ry and ub = gpx + gys in
                 if
                   (not !found) && (all || ub > 0 || l4)
                   && jj >= 1 && kk > jj && kk <= n - 1
                 then begin
                   let c = prx and f = sy in
                   let gain = ub - d st c f in
                   if gain > 0 then begin
                     apply_3opt st ~pi ~jj ~kk ~gain T4;
                     activate st a;
                     activate st b;
                     activate st x;
                     activate st y;
                     activate st c;
                     activate st f;
                     found := true
                   end
                 end);
                (* T5: x = d (cut j before x), y = f (cut k before y).
                   added (a,d) (e,c) (b,f); c = pred x, e = pred y;
                   removed (pred x, x) and (pred y, y) *)
                (let jj = rx1 and kk = ry1 and ub = gpx + gpy in
                 if
                   (not !found) && (all || ub > 0 || l5)
                   && jj >= 1 && kk > jj && kk <= n - 1
                 then begin
                   let c = prx and e = pry in
                   let gain = ub - d st e c in
                   if gain > 0 then begin
                     apply_3opt st ~pi ~jj ~kk ~gain T5;
                     activate st a;
                     activate st b;
                     activate st x;
                     activate st y;
                     activate st c;
                     activate st e;
                     found := true
                   end
                 end);
                (* T6: x = e at cut k, y = d (cut j before y).
                   added (a,e) (d,b) (c,f); c = pred y, f = succ x;
                   removed (pred y, y) and (x, succ x) *)
                (let jj = ry1 and kk = rx and ub = gxs + gpy in
                 if
                   (not !found) && (all || ub > 0 || l6)
                   && jj >= 1 && kk > jj && kk <= n - 1
                 then begin
                   let c = pry and f = sx in
                   let gain = ub - d st c f in
                   if gain > 0 then begin
                     apply_3opt st ~pi ~jj ~kk ~gain T6;
                     activate st a;
                     activate st b;
                     activate st x;
                     activate st y;
                     activate st c;
                     activate st f;
                     found := true
                   end
                 end)
              end
            done
          end
        done
      end
    end
  done;
  !found

(** Run to local optimality: process the active queue, repeatedly
    improving around each active city until its neighborhood is
    exhausted.  When a [budget] is given, the search stops at the first
    poll (between moves) that reports exhaustion — the tour is then
    merely locally unconverged, never invalid. *)
let run ?budget st =
  let exhausted () =
    match budget with Some b -> Ba_robust.Budget.exhausted b | None -> false
  in
  let m2_before = st.moves_2opt and m3_before = st.moves_3opt in
  let splits_before = seg_splits st and rebal_before = rebalances st in
  (try
     while not (Queue.is_empty st.queue) do
       if exhausted () then raise_notrace Exit;
       let a = Queue.pop st.queue in
       st.in_queue.(a) <- false;
       if st.dont_look && st.last_fail.(a) = st.version then
         (* a's scan already failed against this exact tour; rescanning
            could not find a move or mutate anything — skip it *)
         st.scans_skipped <- st.scans_skipped + 1
       else begin
         while try_city st a do
           if exhausted () then raise_notrace Exit
         done;
         (* reached only when the scan returned false (a budget stop
            raises out of the loop), so the stamp is sound *)
         st.last_fail.(a) <- st.version
       end
     done
   with Exit -> ());
  (* observability: a handful of atomic adds per run call, never per
     move *)
  Ba_obs.Metrics.(
    incr ~n:(st.moves_2opt - m2_before) Moves_2opt;
    incr ~n:(st.moves_3opt - m3_before) Moves_3opt;
    if Tour_repr.kind_of st.repr = Tour_repr.Two_level then begin
      incr ~n:(seg_splits st - splits_before) Segment_splits;
      incr ~n:(rebalances st - rebal_before) Segment_rebalances;
      set_gauge Tsp_segments (segments st)
    end)

(** Current tour (copied). *)
let tour st = Tour_repr.to_array st.repr

(** Current tour cost in directed units ({!Sym.directed_tour_cost});
    O(1). *)
let directed_cost st = st.dcost

(** Current symmetric tour cost ([directed_cost − offset], identical
    modulo 2⁶³ to {!Sym.tour_cost} of the tour); O(1). *)
let cost st = st.dcost - st.s.Sym.offset
