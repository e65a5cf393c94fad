(** Extension experiment: tail duplication (code replication) followed
    by TSP alignment, against the runner's own TSP layout. *)

type row = {
  bench : string;
  ds : string;
  clones : int;  (** blocks duplicated *)
  code_before : int;  (** instructions of the row's TSP-self layout *)
  code_after : int;  (** … of the transformed program's TSP layout *)
  penalty_before : int;  (** the row's [tsp_self] penalty *)
  penalty_after : int;
  cycles_before : int;  (** the row's [tsp_self] cycles *)
  cycles_after : int;
}

(** Tail-duplicate the row's program under its testing profile, then
    align and measure the result with {!Runner.tsp_self}. *)
val run_one : Runner.row -> row

val print : Format.formatter -> row list -> unit
