(** Extension experiment: the runner's profile-trained layouts
    evaluated on a BTFNT (backward-taken / forward-not-taken) machine,
    the paper's footnote 3. *)

type row = {
  bench : string;
  ds : string;
  original : int;  (** BTFNT penalty of the original layout *)
  greedy : int;
  tsp : int;
}

(** Price the row's original, greedy-self and TSP-self layouts on its
    testing profile. *)
val run_one : Runner.row -> row

val print : Format.formatter -> row list -> unit
