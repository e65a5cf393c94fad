(** Tour-construction heuristics for directed instances.

    The iterated 3-Opt solver of the paper uses "5 randomized Greedy
    starts, 4 randomized Nearest Neighbor starts, and once the original
    ordering given by the compiler" (Appendix).  Both heuristics here are
    randomized in the classic way: instead of always taking the cheapest
    feasible choice, pick uniformly among the best few.

    Both are {e sparse-aware}: they drive the CSR rows of {!Dtsp}
    (explicit deviations + per-row default) instead of scanning the
    O(n²) logical matrix, which is what makes multi-start solves viable
    at 10⁵–10⁶ blocks.  Both depend only on the logical instance, never
    on which entries it stores explicitly: nearest-neighbor is
    bit-identical to the dense O(n)-per-step scan (one RNG draw per
    step over the same candidate buffer), and the randomized greedy
    draws one RNG float per live edge (source without a successor,
    destination without a predecessor) in (cost, i, j) order. *)

(** The identity tour 0,1,…,n−1. *)
let identity n = Array.init n (fun i -> i)

(* ------------------------------------------------------------------ *)
(* nearest neighbor                                                    *)

(** [nearest_neighbor ?rng ?choices d ~start] grows a tour from [start],
    repeatedly moving to one of the [choices] nearest unvisited cities
    (uniformly at random among them; [choices = 1] is the deterministic
    heuristic).

    Per step, the candidate buffer — the [choices] lexicographically
    smallest (cost, city) pairs over the unvisited cities, exactly what
    the dense scan's insertion sort kept — is built by merging the
    current row's explicit deviations (pre-sorted by (cost, column))
    with the default-cost tail, an ascending walk of an unvisited
    doubly-linked list that skips the explicit columns.  O(choices +
    deg) per step instead of O(n), and bit-identical to the dense scan
    including the RNG stream (one draw per step). *)
let nearest_neighbor ?rng ?(choices = 1) (d : Dtsp.t) ~start =
  if start < 0 || start >= d.Dtsp.n then invalid_arg "nearest_neighbor: bad start";
  let n = d.Dtsp.n in
  let visited = Array.make n false in
  let tour = Array.make n start in
  visited.(start) <- true;
  (* unvisited doubly-linked list over city ids, ascending; sentinel n *)
  let nxt = Array.make (n + 1) 0 and prv = Array.make (n + 1) 0 in
  for i = 0 to n do
    nxt.(i) <- (if i = n then 0 else i + 1);
    prv.(i) <- (if i = 0 then n else i - 1)
  done;
  let remove j =
    nxt.(prv.(j)) <- nxt.(j);
    prv.(nxt.(j)) <- prv.(j)
  in
  remove start;
  (* scratch: candidate (cost, city) pairs of the current step, and a
     per-step stamp marking the current row's explicit columns *)
  let cand = Array.make choices (max_int, -1) in
  let mark = Array.make n (-1) in
  let dev = Array.make n (0, 0) in
  let cur = ref start in
  for i = 1 to n - 1 do
    let row_cols = d.Dtsp.row_cols.(!cur)
    and row_costs = d.Dtsp.row_costs.(!cur) in
    let default = d.Dtsp.row_default.(!cur) in
    (* explicit stream: the row's off-diagonal deviations by (cost, col) *)
    let nd = ref 0 in
    Array.iteri
      (fun k c ->
        if c <> !cur then begin
          dev.(!nd) <- (row_costs.(k), c);
          incr nd;
          mark.(c) <- i
        end)
      row_cols;
    let nd = !nd in
    let sub = Array.sub dev 0 nd in
    Array.sort compare sub;
    Array.blit sub 0 dev 0 nd;
    (* merge with the default tail (unvisited ∧ unmarked, ascending id)
       into the k smallest (cost, city) pairs, ascending — exactly the
       dense insertion buffer *)
    let ei = ref 0 and dj = ref nxt.(n) in
    let adv_explicit () =
      while !ei < nd && visited.(snd dev.(!ei)) do
        incr ei
      done
    in
    let adv_default () =
      while !dj < n && mark.(!dj) = i do
        dj := nxt.(!dj)
      done
    in
    adv_explicit ();
    adv_default ();
    let n_cand = ref 0 in
    while !n_cand < choices && (!ei < nd || !dj < n) do
      let explicit =
        !ei < nd
        && (!dj >= n
           ||
           let c, j = dev.(!ei) in
           c < default || (c = default && j < !dj))
      in
      if explicit then begin
        cand.(!n_cand) <- dev.(!ei);
        incr ei;
        adv_explicit ()
      end
      else begin
        cand.(!n_cand) <- (default, !dj);
        dj := nxt.(!dj);
        adv_default ()
      end;
      incr n_cand
    done;
    let pick =
      match rng with
      | None -> 0
      | Some st -> Random.State.int st !n_cand
    in
    let _, next = cand.(pick) in
    tour.(i) <- next;
    visited.(next) <- true;
    remove next;
    cur := next
  done;
  tour

(* ------------------------------------------------------------------ *)
(* greedy edge matching                                                *)

(* shared fragment bookkeeping: next/prev successor arrays, union-find
   over path fragments to refuse early cycles *)
type frag = {
  fnext : int array;
  fprev : int array;
  parent : int array;
  mutable accepted : int;
}

let frag_make n =
  { fnext = Array.make n (-1); fprev = Array.make n (-1);
    parent = Array.init n Fun.id; accepted = 0 }

let frag_find f i =
  let root = ref i in
  while f.parent.(!root) <> !root do
    root := f.parent.(!root)
  done;
  let cur = ref i in
  while !cur <> !root do
    let p = f.parent.(!cur) in
    f.parent.(!cur) <- !root;
    cur := p
  done;
  !root

let frag_try_edge f n i j =
  if
    f.accepted < n - 1 && i <> j && f.fnext.(i) < 0 && f.fprev.(j) < 0
    && frag_find f i <> frag_find f j
  then begin
    f.fnext.(i) <- j;
    f.fprev.(j) <- i;
    f.parent.(frag_find f i) <- frag_find f j;
    f.accepted <- f.accepted + 1;
    true
  end
  else false

(* stitch remaining fragments cheapest-first and close the path *)
let frag_finish (d : Dtsp.t) f =
  let n = d.Dtsp.n in
  while f.accepted < n - 1 do
    let best = ref (max_int, -1, -1) in
    for i = 0 to n - 1 do
      if f.fnext.(i) < 0 then
        for j = 0 to n - 1 do
          if f.fprev.(j) < 0 && i <> j && frag_find f i <> frag_find f j then begin
            let c = Dtsp.cost d i j in
            let bc, _, _ = !best in
            if c < bc then best := (c, i, j)
          end
        done
    done;
    let _, i, j = !best in
    if i < 0 then invalid_arg "greedy_edge: cannot complete tour";
    ignore (frag_try_edge f n i j)
  done;
  let head = ref (-1) in
  for j = 0 to n - 1 do
    if f.fprev.(j) < 0 then head := j
  done;
  let tour = Array.make n 0 in
  let cur = ref !head in
  for i = 0 to n - 1 do
    tour.(i) <- !cur;
    cur := f.fnext.(!cur)
  done;
  tour

(* Merge scan: enumerate the acceptable edges in (cost, i, j) order
   without materializing the matrix.  The explicit stream is the sorted
   array of all explicit off-diagonal deviations; the default stream
   walks the rows in (default, row) order, each row emitting its
   implicit columns ascending, restricted to cities that still lack a
   predecessor (a path-compressed first-open-≥ skip array makes the
   restriction near-O(1)).  One RNG float is drawn per {e live} edge —
   source still without a successor, destination still without a
   predecessor — from either stream, so the draws do not depend on
   which edges the instance stores explicitly; enumeration stops once
   the path set is complete. *)
let merge_scan ?rng ~skip_prob (d : Dtsp.t) =
  let n = d.Dtsp.n in
  let f = frag_make n in
  (* explicit stream *)
  let nnz = Dtsp.nnz d in
  let ex = Array.make (max 1 nnz) (0, 0, 0) in
  let nex = ref 0 in
  for i = 0 to n - 1 do
    let cols = d.Dtsp.row_cols.(i) and costs = d.Dtsp.row_costs.(i) in
    Array.iteri
      (fun k c ->
        if c <> i then begin
          ex.(!nex) <- (costs.(k), i, c);
          incr nex
        end)
      cols
  done;
  let nex = !nex in
  let ex = Array.sub ex 0 nex in
  Array.sort compare ex;
  (* default stream: rows by (default, row) *)
  let ord = Array.init n Fun.id in
  Array.sort
    (fun r r' ->
      compare (d.Dtsp.row_default.(r), r) (d.Dtsp.row_default.(r'), r'))
    ord;
  let lb = Array.make n 0 in
  (* first-open-≥: skip.(j) = j while j may still take a predecessor *)
  let skip = Array.init (n + 1) Fun.id in
  let first_open j0 =
    let j = ref j0 in
    while !j < n && skip.(!j) <> !j do
      j := skip.(!j)
    done;
    let r = if !j > n then n else !j in
    let cur = ref j0 in
    while !cur < n && skip.(!cur) <> !cur && skip.(!cur) <> r do
      let next = skip.(!cur) in
      skip.(!cur) <- r;
      cur := next
    done;
    r
  in
  let close j = skip.(j) <- j + 1 in
  let try_edge i j =
    if frag_try_edge f n i j then begin
      close j;
      true
    end
    else false
  in
  let is_explicit_col i j =
    let cols = d.Dtsp.row_cols.(i) in
    let lo = ref 0 and hi = ref (Array.length cols - 1) in
    let found = ref false in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let c = cols.(mid) in
      if c = j then begin
        found := true;
        lo := !hi + 1
      end
      else if c < j then lo := mid + 1
      else hi := mid - 1
    done;
    !found
  in
  let ei = ref 0 and ri = ref 0 in
  (* peek the next emittable default edge, advancing past closed rows
     and exhausted columns; None when the stream is dry *)
  let default_head () =
    let res = ref None and scanning = ref true in
    while !scanning do
      if !ri >= n then scanning := false
      else begin
        let i = ord.(!ri) in
        if f.fnext.(i) >= 0 then incr ri
        else begin
          (* next emittable column ≥ lb.(i): open, off-diagonal, implicit *)
          let j = ref (first_open lb.(i)) in
          while !j < n && (!j = i || is_explicit_col i !j) do
            j := first_open (!j + 1)
          done;
          if !j >= n then incr ri
          else begin
            lb.(i) <- !j;
            res := Some (d.Dtsp.row_default.(i), i, !j);
            scanning := false
          end
        end
      end
    done;
    !res
  in
  let consider (_, i, j) =
    if f.fnext.(i) < 0 && f.fprev.(j) < 0 then begin
      let skip_edge =
        match rng with
        | Some st -> Random.State.float st 1.0 < skip_prob
        | None -> false
      in
      if not skip_edge then ignore (try_edge i j)
    end
  in
  let exhausted = ref false in
  while f.accepted < n - 1 && not !exhausted do
    let eh = if !ei < nex then Some ex.(!ei) else None in
    let dh = default_head () in
    match (eh, dh) with
    | None, None -> exhausted := true
    | Some e, None ->
        incr ei;
        consider e
    | None, Some ((_, i, j) as e) ->
        lb.(i) <- j + 1;
        consider e
    | Some e, Some ((_, i, j) as e') ->
        if e <= e' then begin
          incr ei;
          consider e
        end
        else begin
          lb.(i) <- j + 1;
          consider e'
        end
  done;
  frag_finish d f

(** [greedy_edge ?rng ?skip_prob d] builds a tour by scanning the
    directed edges in increasing (cost, i, j) order and accepting an
    edge when its source still lacks a layout successor, its
    destination lacks a predecessor, and it does not close a subtour
    early.  With [rng], each edge whose source and destination are
    still free is randomly skipped with probability [skip_prob]
    (one draw per such edge), which randomizes the construction;
    leftover path fragments are then stitched cheapest-first.  This
    mirrors the greedy matching heuristic the greedy branch aligners
    use, applied to the full cost matrix, in O((n + E) log) time. *)
let greedy_edge ?rng ?(skip_prob = 0.1) (d : Dtsp.t) =
  if d.Dtsp.n = 2 then [| 0; 1 |] else merge_scan ?rng ~skip_prob d
