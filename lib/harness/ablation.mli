(** Ablations of DESIGN.md §6's design choices on a synthetic corpus:
    iterated 3-Opt parameters and the greedy aligners' edge priority.
    Deterministic; reports total penalties only. *)

type t = {
  solver : (string * int) list;  (** variant, total TSP penalty *)
  greedy : (string * int) list;  (** priority rule, total penalty *)
}

val run : unit -> t
val print : Format.formatter -> t -> unit
