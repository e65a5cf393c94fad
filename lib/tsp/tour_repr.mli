(** Pluggable tour representation for the 3-Opt engine: the historical
    flat position/city arrays ([Array], O(n) reversals — the identity
    anchor for every committed small-instance trajectory) or the
    two-level √n-segment structure ([Two_level], O(√n) moves —
    {!Two_level}).  Both preserve absolute tour positions exactly, so
    the 3-Opt trajectory is representation-independent; [Auto] (the
    default) keeps the flat arrays up to {!two_level_threshold}
    directed cities and switches above, a purely performance-motivated
    gate (DESIGN.md §6).  The only mutations are a range reversal and a
    rotation; {!Three_opt} composes every move, kick and rollback from
    them. *)

type kind = Auto | Array | Two_level

(** Largest directed-instance size (cities, dummy included) [Auto]
    still serves with the flat arrays. *)
val two_level_threshold : int

val kind_name : kind -> string

type t

(** [make kind ~n_cities tour] picks the representation ([n_cities] is
    the directed city count gating [Auto]; [tour] is position → city,
    copied). *)
val make : kind -> n_cities:int -> int array -> t

(** The representation actually chosen ([Array] or [Two_level]). *)
val kind_of : t -> kind

val n : t -> int

(** City at a position / position of a city; O(1) (the two-level
    [city_at] is O(log √n)). *)
val city_at : t -> int -> int

val pos : t -> int -> int

(** Tour successor / predecessor of a city; O(1). *)
val succ : t -> int -> int

val pred : t -> int -> int

(** Replace the tour wholesale (same length). *)
val set_tour : t -> int array -> unit

(** Extract the tour as a position → city array (copied). *)
val to_array : t -> int array

(** [reverse t l r] reverses the cyclic position range [l..r]
    (inclusive): O(range) flat, O(√n) amortized two-level. *)
val reverse : t -> int -> int -> unit

(** [shift t k] moves every city [k] positions back along the tour
    (position [p] → [p − k] mod n); the cycle is unchanged.  O(1)
    two-level; O(n) flat, as three reversals. *)
val shift : t -> int -> unit

(** Structure statistics (1 / 0 / 0 on the flat arrays). *)
val segments : t -> int

val splits : t -> int
val rebalances : t -> int
