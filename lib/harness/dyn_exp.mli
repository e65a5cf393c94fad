(** Extension experiment: branch alignment under dynamic branch
    prediction hardware (the paper's future-work footnote 6). *)

module W = Ba_workloads.Workload

type row = {
  bench : string;
  ds : string;
  static_ : int * int * int;  (** original, greedy, tsp penalties *)
  dynamic : int * int * int;
  dynamic_mispredicts : int * int * int;
}

val run_one : ?config:Ba_machine.Predictor.config -> W.t -> test:W.dataset -> row

(** The default predictor's rows, then the same under a tiny 64-entry
    BHT where layout-dependent aliasing becomes visible. *)
val run : unit -> row list * row list

val print : Format.formatter -> row list * row list -> unit
