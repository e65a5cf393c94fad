(** Two-level doubly-linked tour: ~√n segments with orientation bits, a
    segment-order array and per-city (segment, offset) handles, so
    [pos]/[succ]/[pred] are O(1) and a cyclic range reversal is O(√n)
    amortized (splits at the range boundaries, run reversal by order
    flip + orientation-bit toggles, periodic rebuilds).  See DESIGN.md
    §6.

    Absolute tour positions are preserved {e exactly} — after any
    sequence of [reverse] calls, [pos]/[city_at] agree with the flat
    [tour]/[pos] arrays replaying the same calls — which is what keeps
    the 3-Opt trajectory move-for-move identical across
    representations. *)

type t

(** [create ~tour n] builds a balanced structure from a tour
    (position → city; copied).
    @raise Invalid_argument on a wrong-length tour. *)
val create : tour:int array -> int -> t

val n : t -> int

(** Current segment count (grows with splits, shrinks on rebuilds). *)
val segments : t -> int

(** Total boundary splits performed. *)
val splits : t -> int

(** Total O(n) rebuilds performed. *)
val rebalances : t -> int

(** Position of a city; O(1). *)
val pos : t -> int -> int

(** City at a position; O(log √n). *)
val city_at : t -> int -> int

(** Tour successor / predecessor of a city; O(1). *)
val succ : t -> int -> int

val pred : t -> int -> int

(** [reverse t l r] reverses the cyclic absolute position range [l..r]
    (inclusive); O(√n) amortized. *)
val reverse : t -> int -> int -> unit

(** [shift t k] moves every city [k] positions back along the tour
    (position [p] → [p − k] mod n); the cycle is unchanged.  O(1): it
    only moves the rotation offset. *)
val shift : t -> int -> unit

(** Replace the tour wholesale (O(n) rebuild). *)
val set_tour : t -> int array -> unit

(** Extract the tour as a position → city array; O(n). *)
val to_array : t -> int array
