(** Extension experiment: branch alignment under dynamic branch
    prediction hardware (the paper's future-work footnote 6), on the
    runner's own layouts. *)

(** original, greedy, tsp *)
type counts = int * int * int

(** Trace-driven BHT+BTB simulation of the three layouts. *)
type hw = { penalties : counts; mispredicts : counts }

type row = {
  bench : string;
  ds : string;
  static_ : counts;  (** the runner row's static-predictor penalties *)
  default_bht : hw;  (** the default predictor *)
  tiny_bht : hw;
      (** a 64-entry BHT, where layout-dependent aliasing becomes
          visible *)
}

(** Simulate the row's original, greedy-self and TSP-self layouts on
    its testing input under both predictors. *)
val run_one : Runner.row -> row

(** The static and default-BHT columns, then the tiny-BHT ones. *)
val print : Format.formatter -> row list -> unit
