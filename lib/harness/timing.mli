(** Stage timing for the Table 2 reproduction.  [stages] is
    immutable; tasks return their own values and the caller combines
    them with the pure {!add}/{!merge} after the join — nothing for
    concurrent pipeline stages to race on. *)

(** Run a thunk, returning its result and elapsed seconds on the
    {!Ba_obs.Mono} clock. *)
val time : (unit -> 'a) -> 'a * float

(** Stage timings of one benchmark pipeline (Table 2 columns). *)
type stages = {
  compile_s : float;
  profile_s : float;
  greedy_s : float;
  matrix_s : float;
  solve_s : float;
  tsp_program_s : float;
  bounds_s : float;
}

val zero : stages

(** Pure component-wise sum. *)
val add : stages -> stages -> stages

(** Sum a list of per-task timings, in order. *)
val merge : stages list -> stages

(** Summary of a sample of per-task durations (seconds): the pool's
    load-imbalance view. *)
type dist = {
  n : int;
  total_s : float;
  p50_s : float;  (** median, nearest-rank *)
  p95_s : float;
  max_s : float;
}

val empty_dist : dist

val dist_of : float list -> dist
