(** Stage timing for the Table 2 reproduction: the columns are totals
    over the spans one benchmark row records ({!Ba_obs.Span}), computed
    by the pure {!of_spans} — no stage reads the clock itself. *)

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

(** [of_spans spans] is the Table 2 columns and the self-trained solve
    time distribution of one row, from its spans:
    - [compile_s], [profile_s], [tsp_program_s], [bounds_s]: the
      ["compile"], ["profile"], ["realize-tsp"] and ["bounds"] spans;
    - [greedy_s]: ["greedy"] + ["realize-greedy"];
    - [matrix_s], [solve_s] and the distribution: the ["matrix"] and
      ["solve"] spans whose parent is a ["tsp-self"] span (one of each
      per procedure); every other ["solve"] span is ignored. *)
val of_spans : Ba_obs.Span.span array -> stages * dist
