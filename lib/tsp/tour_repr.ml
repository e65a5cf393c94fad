(** Pluggable tour representation for the 3-Opt engine.

    Two implementations answer the same position-based contract:

    - [Array] — the historical flat pair of arrays ([tour] position →
      city, [pos] city → position).  Queries are O(1); a range
      reversal is O(range).  This is the identity anchor: every
      committed small-instance trajectory was produced by it.
    - [Two_level] — the √n-segment structure of {!Two_level}: queries
      O(1), reversals O(√n) amortized, which is what makes 10⁵–10⁶-city
      descents tractable (ROADMAP item 1).

    Both preserve {e exact absolute positions}, and the 3-Opt search
    bases every decision on positions, so the two representations are
    move-for-move identical — the differential property suite pins
    this.  [Auto] (the default everywhere) keeps [Array] for instances
    up to {!two_level_threshold} directed cities — covering every
    committed golden trajectory — and switches to [Two_level] above,
    where the flat reversal cost would dominate; because the
    trajectory is representation-independent the threshold is purely a
    performance choice (DESIGN.md §6).

    The representation knows two mutations: a range reversal and a
    rotation.  Every 3-Opt move, kick and rollback is a sequence of
    reversals (and kick rotations) composed by {!Three_opt}. *)

type kind = Auto | Array | Two_level

(** Largest directed-instance size (cities, dummy included) [Auto]
    still serves with the flat arrays. *)
let two_level_threshold = 8192

let kind_name = function
  | Auto -> "auto"
  | Array -> "array"
  | Two_level -> "two-level"

type flat = {
  ftour : int array;  (** position → city *)
  fpos : int array;  (** city → position *)
}

type t = F of flat | T of Two_level.t

(** [make kind ~n_cities tour] picks the representation ([n_cities] is
    the {e directed} city count gating [Auto]) and loads the tour
    (copied). *)
let make kind ~n_cities tour =
  let use_two_level =
    match kind with
    | Array -> false
    | Two_level -> true
    | Auto -> n_cities > two_level_threshold
  in
  if use_two_level then
    T (Two_level.create ~tour (Stdlib.Array.length tour))
  else begin
    let n = Stdlib.Array.length tour in
    let fpos = Stdlib.Array.make n (-1) in
    Stdlib.Array.iteri (fun i c -> fpos.(c) <- i) tour;
    F { ftour = Stdlib.Array.copy tour; fpos }
  end

let kind_of = function F _ -> Array | T _ -> Two_level

let n = function
  | F f -> Stdlib.Array.length f.ftour
  | T t -> Two_level.n t

let city_at r p = match r with F f -> f.ftour.(p) | T t -> Two_level.city_at t p
let pos r c = match r with F f -> f.fpos.(c) | T t -> Two_level.pos t c

let succ r c =
  match r with
  | F f ->
      let p = f.fpos.(c) + 1 in
      f.ftour.(if p = Stdlib.Array.length f.ftour then 0 else p)
  | T t -> Two_level.succ t c

let pred r c =
  match r with
  | F f ->
      let p = f.fpos.(c) - 1 in
      f.ftour.(if p < 0 then Stdlib.Array.length f.ftour - 1 else p)
  | T t -> Two_level.pred t c

let set_tour r tour =
  match r with
  | F f ->
      Stdlib.Array.blit tour 0 f.ftour 0 (Stdlib.Array.length f.ftour);
      Stdlib.Array.iteri (fun i c -> f.fpos.(c) <- i) f.ftour
  | T t -> Two_level.set_tour t tour

let to_array = function
  | F f -> Stdlib.Array.copy f.ftour
  | T t -> Two_level.to_array t

(* structure statistics: the flat arrays are one trivial segment *)
let segments = function F _ -> 1 | T t -> Two_level.segments t
let splits = function F _ -> 0 | T t -> Two_level.splits t
let rebalances = function F _ -> 0 | T t -> Two_level.rebalances t

(* ------------------------------------------------------------------ *)
(* flat kernels                                                        *)

(** Reverse the cyclic position segment [l..r] (inclusive). *)
let flat_reverse f l r =
  let n = Stdlib.Array.length f.ftour in
  let len = ((r - l + n) mod n) + 1 in
  let i = ref l and j = ref r in
  for _ = 1 to len / 2 do
    let ci = f.ftour.(!i) and cj = f.ftour.(!j) in
    f.ftour.(!i) <- cj;
    f.ftour.(!j) <- ci;
    f.fpos.(cj) <- !i;
    f.fpos.(ci) <- !j;
    i := (!i + 1) mod n;
    j := (!j - 1 + n) mod n
  done

let reverse r l r' =
  match r with F f -> flat_reverse f l r' | T t -> Two_level.reverse t l r'

(** [shift r k] moves every city [k] positions back along the tour
    (position [p] → [p − k] mod n) without changing the cycle: O(1) on
    the two-level structure (its rotation offset).  On the flat arrays
    it is the left rotation by [k] as three reversals — each half, then
    the whole — in O(n), with no buffer; the flat arrays only serve
    small instances. *)
let shift r k =
  match r with
  | F f ->
      let n = Stdlib.Array.length f.ftour in
      let k = ((k mod n) + n) mod n in
      if k <> 0 then begin
        flat_reverse f 0 (k - 1);
        flat_reverse f k (n - 1);
        flat_reverse f 0 (n - 1)
      end
  | T t -> Two_level.shift t k
