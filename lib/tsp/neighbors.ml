(** k-nearest-neighbor candidate lists for local search.

    Only finite, non-locked edges are useful candidates: locked pair edges
    are always in the tour already and forbidden pairs can never improve a
    tour.  Lists are sorted by increasing cost so searches can stop
    early.

    The candidate set is known from the symmetrization structure alone —
    an out-city's partners are exactly the other cities' in-cities and
    vice versa — so the lists are built from the sparse directed
    instance without scanning a materialized 2n×2n matrix.  Two
    selection algorithms coexist (docs/PERFORMANCE.md):

    - [Exact] reproduces the historical dense scan bit-for-bit,
      including its heapsort tie order, with one O(n) scratch row and an
      O(n log n) full sort per city — O(n² log n) total.  It is the
      identity anchor for every committed small-instance trajectory.
    - [Select] merges each city's sorted explicit deviations with its
      default-cost tail directly, emitting the k cheapest partners under
      the canonical order (cost, partner id) — O(n log n + n·k + E)
      total, independent of n per row once the shared streams are
      built.  The result is the {e unique} canonical k-NN list, so it is
      checkable against any correct oracle, but its tie order differs
      from the dense scan's.

    [Auto] (the default) keeps [Exact] for instances up to
    {!exact_threshold} directed cities — every committed golden
    trajectory lives far below it — and switches to [Select] above,
    where bit-identity with the dense era is explicitly relaxed
    (test/test_trajectory.ml pins the re-baselined trajectory).

    Row construction is embarrassingly parallel: [exec] fans the cities
    out over contiguous chunks on the engine's domain pool and merges
    the slices in index order, so the lists are bit-identical at any job
    count. *)

module Executor = Ba_engine.Executor

type mode = Auto | Exact | Select

(** Largest directed-instance size (cities, dummy included) the [Auto]
    mode still serves with the bit-exact dense tie order. *)
let exact_threshold = 512

(* deterministic chunked fan-out: compute [lo, hi) slices of the result
   on the executor, merge in index order — bit-identical at any job
   count because each city's list is a pure function of the instance *)
let chunked exec nn compute =
  match exec with
  | Executor.Seq -> compute 0 nn
  | _ ->
      let chunks = min nn (max 1 (Executor.jobs exec * 4)) in
      let size = (nn + chunks - 1) / chunks in
      let slices =
        Executor.init exec chunks (fun c ->
            let lo = c * size in
            let hi = min nn (lo + size) in
            if lo >= hi then [||] else compute lo hi)
      in
      Array.concat (Array.to_list slices)

(* ------------------------------------------------------------------ *)
(* Exact: the dense scan's algorithm (and tie order) on sparse rows     *)

let exact (s : Sym.t) ~k ~exec =
  let d = s.Sym.dir in
  let n = s.Sym.n_cities in
  let nn = s.Sym.nn in
  (* partner count is n−1; a k beyond it (or below 0) clamps, so both
     the uniform shortcut and the sort path return the same short list *)
  let k = max 0 (min k (n - 1)) in
  (* transpose of the explicit entries, for O(deg) column fills *)
  let tcols = Array.make n [] in
  for i = n - 1 downto 0 do
    Array.iteri
      (fun kk c -> tcols.(c) <- (i, d.Dtsp.row_costs.(i).(kk)) :: tcols.(c))
      d.Dtsp.row_cols.(i)
  done;
  (* [Array.sort]'s heapsort consults nothing but comparator results, so
     on a row whose candidates all share one cost (every comparison
     returns 0) it applies a permutation that depends only on the array
     length.  Compute that permutation once and read uniform rows'
     lists off it in O(k) instead of sorting each. *)
  let tmpl = Array.init (n - 1) Fun.id in
  Array.sort (fun _ _ -> 0) tmpl;
  (* an in-city's candidate costs are the OTHER rows' defaults, so an
     explicit-free column is only uniform when all defaults agree *)
  let shared_default =
    Array.for_all (fun v -> v = d.Dtsp.row_default.(0)) d.Dtsp.row_default
  in
  let compute lo hi =
    let row = Array.make n 0 in
    Array.init (hi - lo) (fun off ->
        let a = lo + off in
        let i = a asr 1 in
        let uniform =
          if a land 1 = 1 then
            (* out-city: partners are in-cities, costs = directed row i *)
            match d.Dtsp.row_cols.(i) with
            | [||] -> true
            | [| c |] when c = i -> true
            | _ ->
                Dtsp.blit_row d i row;
                false
          else begin
            (* in-city: partners are out-cities, costs = directed column i *)
            match tcols.(i) with
            | [] when shared_default -> true
            | [ (r, _) ] when shared_default && r = i -> true
            | deviations ->
                Array.blit d.Dtsp.row_default 0 row 0 n;
                List.iter (fun (r, v) -> row.(r) <- v) deviations;
                false
          end
        in
        (* partners in descending city order — the order the dense 0..nn-1
           prepend scan produced — so sort tie-breaking is unchanged *)
        let arr = Array.make (n - 1) 0 in
        let idx = ref 0 in
        let tag = 1 - (a land 1) in
        for c = n - 1 downto 0 do
          if c <> i then begin
            arr.(!idx) <- (2 * c) + tag;
            incr idx
          end
        done;
        if uniform then Array.init k (fun p -> arr.(tmpl.(p)))
        else begin
          Array.sort (fun x y -> compare row.(x asr 1) row.(y asr 1)) arr;
          if Array.length arr <= k then arr else Array.sub arr 0 k
        end)
  in
  chunked exec nn compute

(* ------------------------------------------------------------------ *)
(* Select: canonical k-cheapest by merging sorted deviation streams     *)
(* with the default-cost tail — O(k + deg) per city after shared        *)
(* O(n log n + E log deg) stream preparation                            *)

let select (s : Sym.t) ~k ~exec =
  let d = s.Sym.dir in
  let n = s.Sym.n_cities in
  let nn = s.Sym.nn in
  let k = max 0 (min k (n - 1)) in
  if k = 0 then Array.make nn [||]
  else begin
    (* out-city streams: per row, the explicit off-diagonal (cost, col)
       deviations sorted by (cost, col) *)
    let out_dev =
      Array.init n (fun i ->
          let cols = d.Dtsp.row_cols.(i) and costs = d.Dtsp.row_costs.(i) in
          let keep = ref [] in
          for kk = Array.length cols - 1 downto 0 do
            if cols.(kk) <> i then keep := (costs.(kk), cols.(kk)) :: !keep
          done;
          let a = Array.of_list !keep in
          Array.sort compare a;
          a)
    in
    (* in-city streams: per column, the explicit off-diagonal (cost, row)
       entries sorted by (cost, row) *)
    let tmp = Array.make n [] in
    for i = n - 1 downto 0 do
      Array.iteri
        (fun kk c ->
          if c <> i then
            tmp.(c) <- (d.Dtsp.row_costs.(i).(kk), i) :: tmp.(c))
        d.Dtsp.row_cols.(i)
    done;
    let in_dev =
      Array.init n (fun c ->
          let a = Array.of_list tmp.(c) in
          Array.sort compare a;
          a)
    in
    (* an in-city's default tail is the other rows' defaults: pre-sort
       the rows once by (default, row) — ascending row is ascending
       partner id, so this IS the canonical tail order *)
    let ord = Array.init n Fun.id in
    Array.sort
      (fun r r' ->
        compare (d.Dtsp.row_default.(r), r) (d.Dtsp.row_default.(r'), r'))
      ord;
    let compute lo hi =
      (* per-chunk scratch: marks are stamped with the city id, so the
         array never needs clearing between cities *)
      let mark = Array.make n (-1) in
      Array.init (hi - lo) (fun off ->
          let a = lo + off in
          let i = a asr 1 in
          let res = Array.make k 0 in
          if a land 1 = 1 then begin
            (* out-city: row i; tail = implicit columns, ascending *)
            let dev = out_dev.(i) in
            let cols = d.Dtsp.row_cols.(i) in
            let ncols = Array.length cols in
            let default = d.Dtsp.row_default.(i) in
            let nd = Array.length dev in
            let ei = ref 0 and ci = ref 0 and pi = ref 0 in
            let advance () =
              let stop = ref false in
              while not !stop do
                if !ci >= n then stop := true
                else if !ci = i then incr ci
                else begin
                  while !pi < ncols && cols.(!pi) < !ci do
                    incr pi
                  done;
                  if !pi < ncols && cols.(!pi) = !ci then incr ci
                  else stop := true
                end
              done
            in
            advance ();
            for f = 0 to k - 1 do
              let explicit =
                !ei < nd
                && (!ci >= n
                   ||
                   let c, col = dev.(!ei) in
                   c < default || (c = default && col < !ci))
              in
              if explicit then begin
                res.(f) <- 2 * snd dev.(!ei);
                incr ei
              end
              else begin
                res.(f) <- 2 * !ci;
                incr ci;
                advance ()
              end
            done
          end
          else begin
            (* in-city: column i; tail = other rows in [ord] order *)
            let dev = in_dev.(i) in
            let nd = Array.length dev in
            let stamp = a in
            Array.iter (fun (_, r) -> mark.(r) <- stamp) dev;
            mark.(i) <- stamp;
            let ei = ref 0 and oi = ref 0 in
            let advance () =
              while !oi < n && mark.(ord.(!oi)) = stamp do
                incr oi
              done
            in
            advance ();
            for f = 0 to k - 1 do
              let explicit =
                !ei < nd
                && (!oi >= n
                   ||
                   let c, r = dev.(!ei) in
                   let r' = ord.(!oi) in
                   let c' = d.Dtsp.row_default.(r') in
                   c < c' || (c = c' && r < r'))
              in
              if explicit then begin
                res.(f) <- (2 * snd dev.(!ei)) + 1;
                incr ei
              end
              else begin
                res.(f) <- (2 * ord.(!oi)) + 1;
                incr oi;
                advance ()
              end
            done
          end;
          res)
    in
    chunked exec nn compute
  end

(* ------------------------------------------------------------------ *)

(** [of_sym s ~k] builds, for every symmetric city, its up-to-[k]
    cheapest candidate partners (finite cost, not the locked partner).
    [mode] picks the selection algorithm ([Auto]: [Exact] up to
    {!exact_threshold} directed cities, [Select] above); [exec]
    parallelizes row construction (default sequential) — the result
    never depends on the job count. *)
let of_sym ?(mode = Auto) ?(exec = Executor.Seq) (s : Sym.t) ~k =
  let use_select =
    match mode with
    | Exact -> false
    | Select -> true
    | Auto -> s.Sym.n_cities > exact_threshold
  in
  if use_select then select s ~k ~exec else exact s ~k ~exec
