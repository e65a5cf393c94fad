(** k-nearest-neighbor candidate lists for local search.

    Only finite, non-locked edges are useful candidates: locked pair edges
    are always in the tour already and forbidden pairs can never improve a
    tour.  Lists are sorted by increasing cost so searches can stop
    early.

    The candidate set is known from the symmetrization structure alone —
    an out-city's partners are exactly the other cities' in-cities and
    vice versa — so the lists are built from the sparse directed
    instance without scanning a materialized 2n×2n matrix: each city
    merges its sorted explicit deviations with its default-cost tail,
    O(n log n + n·k + E) total, independent of n per row once the shared
    streams are built (docs/PERFORMANCE.md).

    Ties are broken by a per-city order, so each list is the {e unique}
    k-cheapest under a strict total order and checkable against any
    correct oracle:

    - out-city [2i+1] orders in-city [2j] by (cost, (j − i − 1) mod n),
      so its default-cost tail walks [i+1 … n−1, 0 … i−1].  A plain
      ascending id would hand every out-city the same low-id tail and
      collapse the candidate graph onto a few cities;
    - in-city [2j] orders out-city [2i+1] by (cost, i).

    Row construction is embarrassingly parallel: [exec] fans the cities
    out over contiguous chunks on the engine's domain pool and merges
    the slices in index order, so the lists are bit-identical at any job
    count. *)

module Executor = Ba_engine.Executor

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
(* canonical k-cheapest by merging sorted deviation streams with the    *)
(* default-cost tail — O(k + deg) per city after shared                 *)
(* O(n log n + E log deg) stream preparation                            *)

(** [of_sym s ~k] builds, for every symmetric city, its up-to-[k]
    cheapest candidate partners (finite cost, not the locked partner)
    under the per-city tie order; [exec] parallelizes row construction
    (default sequential) — the result never depends on the job count. *)
let of_sym ?(exec = Executor.Seq) (s : Sym.t) ~k =
  let d = s.Sym.dir in
  let n = s.Sym.n_cities in
  let nn = s.Sym.nn in
  let k = max 0 (min k (n - 1)) in
  if k = 0 then Array.make nn [||]
  else begin
    (* out-city streams: per row, the explicit off-diagonal deviations
       as (cost, rotated column) sorted, where column c of row i rotates
       to (c − i − 1) mod n — the out-city tie key *)
    let out_dev =
      Array.init n (fun i ->
          let cols = d.Dtsp.row_cols.(i) and costs = d.Dtsp.row_costs.(i) in
          let keep = ref [] in
          for kk = Array.length cols - 1 downto 0 do
            let c = cols.(kk) in
            if c <> i then
              keep :=
                (costs.(kk), if c > i then c - i - 1 else c + n - i - 1)
                :: !keep
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
       partner id, so this IS the in-city tail order *)
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
          let stamp = a in
          let res = Array.make k 0 in
          if a land 1 = 1 then begin
            (* out-city: row i; tail = implicit columns from i+1 on,
               wrapping — [r] is the rotated position of column [c] *)
            let dev = out_dev.(i) in
            let nd = Array.length dev in
            let default = d.Dtsp.row_default.(i) in
            Array.iter (fun c -> mark.(c) <- stamp) d.Dtsp.row_cols.(i);
            let ei = ref 0 and r = ref 0 in
            let c = ref (if i + 1 = n then 0 else i + 1) in
            let step () =
              incr r;
              c := if !c + 1 = n then 0 else !c + 1
            in
            let advance () =
              while !r < n - 1 && mark.(!c) = stamp do
                step ()
              done
            in
            advance ();
            for f = 0 to k - 1 do
              let explicit =
                !ei < nd
                && (!r >= n - 1
                   ||
                   let cost, re = dev.(!ei) in
                   cost < default || (cost = default && re < !r))
              in
              if explicit then begin
                let col = snd dev.(!ei) + i + 1 in
                res.(f) <- 2 * (if col >= n then col - n else col);
                incr ei
              end
              else begin
                res.(f) <- 2 * !c;
                step ();
                advance ()
              end
            done
          end
          else begin
            (* in-city: column i; tail = other rows in [ord] order *)
            let dev = in_dev.(i) in
            let nd = Array.length dev in
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
