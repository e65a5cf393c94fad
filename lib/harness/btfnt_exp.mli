(** Extension experiment: the profile-trained layouts evaluated on a
    BTFNT (backward-taken / forward-not-taken) machine, the paper's
    footnote 3. *)

module W = Ba_workloads.Workload

type row = {
  bench : string;
  ds : string;
  original : int;  (** BTFNT penalty of the original layout *)
  greedy : int;
  tsp : int;
}

val run_one : W.t -> test:W.dataset -> row

(** Every SPEC92 benchmark/data-set pair. *)
val run : unit -> row list

val print : Format.formatter -> row list -> unit
