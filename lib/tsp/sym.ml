(** DTSP → symmetric TSP transformation.

    The standard 2-city NP-completeness transformation, which the paper's
    appendix reports works surprisingly well in practice [11]: each
    directed city [i] becomes an {e in}-city [2i] and an {e out}-city
    [2i+1].  The in/out pair is joined by a {e locked} edge of large
    negative weight [-m], directed edge i → j becomes the symmetric edge
    (out i, in j) of the original cost, and all other pairs get a large
    positive weight [inf] so that improving local-search moves can neither
    drop a locked edge nor introduce a non-edge (the paper's iterated
    3-Opt code supports locked edges natively; the −m encoding achieves
    the same invariant, which the solver asserts after the fact).

    The symmetric matrix is never materialized: its structure is fully
    determined by city parity, so [cost] computes any entry in O(1) from
    the sparse directed instance — a locked pair iff [a lxor b = 1],
    forbidden iff [a] and [b] have the same parity, a directed lookup
    otherwise.  This keeps the instance O(n + E) in memory where the old
    dense form was O(n²) (see docs/PERFORMANCE.md). *)

type t = {
  n_cities : int;  (** number of directed cities *)
  nn : int;  (** number of symmetric cities = 2 × n_cities *)
  dir : Dtsp.t;  (** the sparse directed instance; never copied *)
  m : int;  (** magnitude of the locked-edge weight *)
  inf : int;  (** weight of forbidden pairs *)
  real_max : int;  (** largest directed cost; bounds improving-move gains *)
  nonneg : bool;  (** every directed cost is ≥ 0 (true for all registered
                      objectives); licenses the 3-Opt gain bound *)
  offset : int;  (** directed tour cost = symmetric cost + offset = sym + n·m *)
}

let in_city i = 2 * i
let out_city i = (2 * i) + 1

(** [of_dtsp d] wraps the directed instance — O(1), no matrix.  The
    locked weight is [m = 2·max_cost + 2] (strictly more than any single
    improving swap can recover, see DESIGN.md §6) and the forbidden
    weight is [8·(max_cost + m + 1)].
    @raise Invalid_argument when [4·inf] would exceed [max_int]: the
    3-Opt gain bound sums up to four edge costs, each at most [inf]. *)
let of_dtsp (d : Dtsp.t) : t =
  let n = d.Dtsp.n in
  let cmax = Dtsp.max_cost d in
  (* inf = 24·(cmax + 1), so 4·inf ≤ max_int ⇔ cmax + 1 ≤ max_int / 96 *)
  if cmax > (max_int / 96) - 1 then
    invalid_arg "Sym.of_dtsp: max_cost too large for 63-bit gain sums";
  let m = (2 * cmax) + 2 in
  let inf = 8 * (cmax + m + 1) in
  (* O(n + E) sign sweep: every registered objective emits nonnegative
     costs, and recording that here lets the 3-Opt scan bound a
     reconnection's gain without looking up its third edge *)
  let nonneg = ref true in
  for i = 0 to n - 1 do
    if d.Dtsp.row_default.(i) < 0 then nonneg := false;
    Array.iter (fun c -> if c < 0 then nonneg := false) d.Dtsp.row_costs.(i)
  done;
  {
    n_cities = n;
    nn = 2 * n;
    dir = d;
    m;
    inf;
    real_max = cmax;
    nonneg = !nonneg;
    offset = n * m;
  }

(** [cost s a b] is the symmetric weight of the pair (a, b): [−m] on the
    locked in/out pair of one city, [inf] on same-parity pairs (and the
    diagonal), the directed cost otherwise.  This sits in the 3-Opt
    inner loop, so the directed lookup is done inline rather than
    through [Dtsp.cost]. *)
let cost (s : t) a b =
  let x = a lxor b in
  if x = 1 then -s.m
  else if x land 1 = 0 then s.inf
  else begin
    let i, j = if a land 1 = 1 then (a asr 1, b asr 1) else (b asr 1, a asr 1) in
    let d = s.dir in
    let cols = d.Dtsp.row_cols.(i) in
    let len = Array.length cols in
    if len <= 8 then begin
      let k = ref 0 in
      while !k < len && Array.unsafe_get cols !k < j do
        incr k
      done;
      if !k < len && Array.unsafe_get cols !k = j then
        Array.unsafe_get (Array.unsafe_get d.Dtsp.row_costs i) !k
      else Array.unsafe_get d.Dtsp.row_default i
    end
    else Dtsp.cost d i j
  end

(** [is_locked s a b] is true iff (a,b) is an in/out pair edge. *)
let is_locked _s a b = a lxor b = 1

(** Dense row-major copy ([a*nn + b]) of the symmetric matrix: the
    reference the Held–Karp tests check that kernel's own float matrix
    (built straight from [t]) against. *)
let to_flat (s : t) =
  let nn = s.nn and n = s.n_cities in
  let flat = Array.make (nn * nn) s.inf in
  let row = Array.make n 0 in
  for i = 0 to n - 1 do
    (* row of out-city 2i+1: directed row i at the in-cities *)
    Dtsp.blit_row s.dir i row;
    let base = ((2 * i) + 1) * nn in
    for j = 0 to n - 1 do
      if j <> i then begin
        flat.(base + (2 * j)) <- row.(j);
        flat.(((2 * j) * nn) + (2 * i) + 1) <- row.(j)
      end
    done;
    flat.(((2 * i) * nn) + (2 * i) + 1) <- -s.m;
    flat.(base + (2 * i)) <- -s.m
  done;
  flat

(** [expand s dtour] turns a directed tour into the corresponding
    symmetric tour [in t0; out t0; in t1; out t1; …]. *)
let expand (s : t) (dtour : int array) =
  if Array.length dtour <> s.n_cities then invalid_arg "Sym.expand: wrong size";
  Array.init s.nn (fun k ->
      let c = dtour.(k / 2) in
      if k land 1 = 0 then in_city c else out_city c)

(** Cost of a symmetric tour (cycle). *)
let tour_cost (s : t) (tour : int array) =
  let nn = s.nn in
  let total = ref 0 in
  for i = 0 to nn - 1 do
    total := !total + cost s tour.(i) tour.((i + 1) mod nn)
  done;
  !total

(** Cost of a symmetric tour in directed units: locked edges count 0
    and every in/out pair the tour does not join counts [m].  This is
    [tour_cost + offset] exactly — an alternating tour's directed cost
    — but summed without the [−m] terms, so it cannot wrap where the
    directed cost itself does not. *)
let directed_tour_cost (s : t) (tour : int array) =
  let nn = s.nn in
  let total = ref 0 and locked = ref 0 in
  for i = 0 to nn - 1 do
    let a = tour.(i) and b = tour.(if i + 1 = nn then 0 else i + 1) in
    if is_locked s a b then incr locked else total := !total + cost s a b
  done;
  !total + (s.m * (s.n_cities - !locked))

(** [check_alternating s tour] verifies that every in/out pair is adjacent
    in the tour (i.e. all locked edges survived local search). *)
let check_alternating (s : t) (tour : int array) =
  let pos = Array.make s.nn (-1) in
  Array.iteri (fun i c -> pos.(c) <- i) tour;
  let ok = ref true in
  for i = 0 to s.n_cities - 1 do
    let pi = pos.(in_city i) and po = pos.(out_city i) in
    let dist = (po - pi + s.nn) mod s.nn in
    if dist <> 1 && dist <> s.nn - 1 then ok := false
  done;
  !ok

(** [extract s tour] recovers the directed tour from a symmetric tour in
    which all locked edges are intact; the orientation is normalized so
    that every directed edge reads out(i) → in(j).
    @raise Invalid_argument if a locked edge is missing. *)
let extract (s : t) (tour : int array) : int array =
  if not (check_alternating s tour) then
    invalid_arg "Sym.extract: a locked edge was dropped by local search";
  let pos = Array.make s.nn (-1) in
  Array.iteri (fun i c -> pos.(c) <- i) tour;
  (* orientation: +1 if in(c) is immediately followed by out(c) *)
  let p0 = pos.(in_city 0) in
  let dir = if tour.((p0 + 1) mod s.nn) = out_city 0 then 1 else -1 in
  Array.init s.n_cities (fun k ->
      let p = (p0 + (dir * 2 * k) + (2 * s.nn)) mod s.nn in
      let c = tour.(p) in
      (* with dir = +1 we sample in-cities; with −1 we walk backwards and
         still land on in-cities *)
      if c land 1 <> 0 then invalid_arg "Sym.extract: tour does not alternate";
      c / 2)
