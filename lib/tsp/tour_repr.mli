(** Pluggable tour representation for the 3-Opt engine: the historical
    flat position/city arrays ([Array], O(n) reversals — the identity
    anchor for every committed small-instance trajectory) or the
    two-level √n-segment structure ([Two_level], O(√n) moves —
    {!Two_level}).  Both preserve absolute tour positions exactly, so
    the 3-Opt trajectory is representation-independent; [Auto] (the
    default) keeps the flat arrays up to {!two_level_threshold}
    directed cities and switches above, a purely performance-motivated
    gate (DESIGN.md §6). *)

type kind = Auto | Array | Two_level

(** Largest directed-instance size (cities, dummy included) [Auto]
    still serves with the flat arrays. *)
val two_level_threshold : int

val kind_name : kind -> string

type t

(** [make ?spans kind ~n_cities tour] picks the representation
    ([n_cities] is the directed city count gating [Auto]; [tour] is
    position → city, copied).  [spans] (default disabled) feeds the
    two-level structure's rebalance spans. *)
val make : ?spans:Ba_obs.Span.buf -> kind -> n_cities:int -> int array -> t

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

(** The four pure-3-opt reconnection types (DESIGN.md §6): with cuts
    after positions [pi], [pi+jj], [pi+kk], segment 1 = offsets
    [1..jj] from [pi] and segment 2 = offsets [jj+1..kk], the window
    becomes T3 = [rev s1, rev s2], T4 = [s2, s1], T5 = [s2, rev s1],
    T6 = [rev s2, s1]. *)
type reconnection = T3 | T4 | T5 | T6

(** [reconnect t ~pi ~jj ~kk ty] applies a reconnection.  The flat
    code buffers only the shorter segment (the 2-opt shorter-side
    check applied to the 3-opt cases) and is byte-identical to the
    reversal sequences it replaces; the two-level code replays the
    reversal sequences at O(√n) each. *)
val reconnect : t -> pi:int -> jj:int -> kk:int -> reconnection -> unit

(** [reconnect_reversals ~n ~pi ~jj ~kk ty f] calls [f l r] for each
    range reversal of the sequence that realizes the reconnection on
    an [n]-city tour, in order — the sequence the two-level code
    replays and the flat code is byte-identical to, so reversing it
    backwards undoes the reconnection exactly. *)
val reconnect_reversals :
  n:int -> pi:int -> jj:int -> kk:int -> reconnection -> (int -> int -> unit) ->
  unit

(** [shift t k] moves every city [k] positions back along the tour
    (position [p] → [p − k] mod n); the cycle is unchanged.  O(1)
    two-level, O(n) flat. *)
val shift : t -> int -> unit

(** Structure statistics (1 / 0 / 0 on the flat arrays). *)
val segments : t -> int

val splits : t -> int
val rebalances : t -> int
