(** 3-Opt local search with neighbor lists and don't-look bits
    (Johnson–McGeoch), on instances produced by {!Sym.of_dtsp}.  The
    locked/forbidden weight structure guarantees improving moves preserve
    the alternating in/out tour shape.

    The tour lives behind {!Tour_repr} (flat arrays or the two-level
    √n-segment structure); every search decision is position-based and
    both representations preserve absolute positions exactly, so the
    trajectory is representation-independent.  Every move is a
    sequence of range reversals ({!reconnect_reversals} for 3-opt).

    Don't-look bits are trajectory-exact version stamps: a popped
    city's scan is skipped only when the tour is bit-identical to the
    one its last scan failed against ([last_fail.(c) = version]), so
    bits-on and bits-off runs produce identical tours, costs, and move
    counts — only [scans_skipped] differs.

    The cost is tracked incrementally from move gains ([cost] is O(1)),
    and between [mark] and [commit]/[rollback] every tour mutation is
    journaled as range reversals, so a rejected kick is undone in
    O(moves) reversals — O(moves·√n) on the two-level tour — with the
    exact absolute positions restored. *)

(** Reusable per-scan scratch of [try_city]. *)
type scratch

type state = {
  s : Sym.t;
  nbr : int array array;
  repr : Tour_repr.t;  (** the tour representation *)
  in_queue : bool array;
  queue : int Queue.t;
  mutable moves_2opt : int;
  mutable moves_3opt : int;
  mutable version : int;  (** tour mutation counter (moves + set_tour) *)
  last_fail : int array;  (** per city: version at last failed scan, −1 never *)
  mutable scans_skipped : int;  (** scans elided by the don't-look stamps *)
  dont_look : bool;
  scr : scratch;  (** per-scan candidate scratch *)
  mutable dcost : int;  (** tour cost in directed units *)
  mutable marked : bool;  (** a [mark] is open: mutations are journaled *)
  mutable mark_cost : int;  (** [dcost] at the open mark *)
  mutable journal : int array;  (** reversal / shift log since the mark *)
  mutable jlen : int;  (** used prefix of [journal] *)
}

(** Start a search state from a tour (copied).  [dont_look] (default
    [true]) enables the version-stamp scan skips; [repr] (default
    [Auto]) picks the tour representation; both are
    trajectory-neutral.
    @raise Invalid_argument on malformed tours. *)
val init :
  ?dont_look:bool ->
  ?repr:Tour_repr.kind ->
  Sym.t ->
  nbr:int array array ->
  tour:int array ->
  state

(** Replace the tour wholesale (same cities, new order), bumping
    [version] so stale stamps never suppress a needed rescan; the cost
    is recomputed and an open mark is discarded.
    @raise Invalid_argument on a wrong-length tour. *)
val set_tour : state -> int array -> unit

(** Open a journal: [rollback] returns to the current tour and cost.
    Re-marking discards the previous journal. *)
val mark : state -> unit

(** Keep every mutation since [mark] and close the journal.
    @raise Invalid_argument without an open mark. *)
val commit : state -> unit

(** Undo every mutation since [mark] by replaying the journal
    backwards: the exact tour array (absolute positions included) and
    cost come back, and [version] is bumped once, as by [set_tour].
    @raise Invalid_argument without an open mark. *)
val rollback : state -> unit

(** [reverse st l r] reverses the cyclic position range [l..r]
    (journaled; the cost follows the two changed edges). *)
val reverse : state -> int -> int -> unit

(** [shift st k] moves every city [k] positions back along the tour
    (journaled); the cycle and its cost are unchanged.  O(1) on the
    two-level tour. *)
val shift : state -> int -> unit

(** The four pure-3-opt reconnection types (DESIGN.md §6): with cuts
    after positions [pi], [pi+jj], [pi+kk], segment 1 = offsets
    [1..jj] from [pi] and segment 2 = offsets [jj+1..kk], the window
    becomes T3 = [rev s1, rev s2], T4 = [s2, s1], T5 = [s2, rev s1],
    T6 = [rev s2, s1]. *)
type reconnection = T3 | T4 | T5 | T6

(** [reconnect_reversals ~n ~pi ~jj ~kk ty f] calls [f l r] for each
    range reversal of the sequence that realizes the reconnection on
    an [n]-city tour, in order (1 ≤ jj < kk ≤ n − 1).  The search
    applies a move as exactly this sequence, so replaying it backwards
    undoes the move. *)
val reconnect_reversals :
  n:int -> pi:int -> jj:int -> kk:int -> reconnection -> (int -> int -> unit) ->
  unit

(** Mark a city for (re-)examination. *)
val activate : state -> int -> unit

val activate_all : state -> unit

(** Search one improving move around a city; apply it and return [true],
    or [false] if its candidate neighborhood is exhausted. *)
val try_city : state -> int -> bool

(** Run to local optimality over the active queue.  With a [budget],
    the search stops early (tour still valid) at the first poll between
    moves that finds the budget exhausted. *)
val run : ?budget:Ba_robust.Budget.t -> state -> unit

(** Current tour (copied). *)
val tour : state -> int array

(** City at a tour position. *)
val city_at : state -> int -> int

(** Tour position of a city. *)
val position : state -> int -> int

(** Tour successor / predecessor of a city. *)
val succ : state -> int -> int

val pred : state -> int -> int

(** Current tour cost in directed units ({!Sym.directed_tour_cost}:
    locked edges count 0), which cannot wrap where the directed cost
    does not; O(1). *)
val directed_cost : state -> int

(** Current symmetric tour cost, [directed_cost − offset] (identical
    modulo 2⁶³ to {!Sym.tour_cost} of the tour); O(1). *)
val cost : state -> int
