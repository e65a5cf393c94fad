(** The appendix experiment: quality of the AP and Held–Karp lower
    bounds, Karp-patching comparison, and iterated 3-Opt reliability
    over a corpus of branch-alignment DTSP instances. *)

type per_instance = {
  name : string;
  n_cities : int;
  tour_cost : int;  (** best tour found (exact when [opt] is set) *)
  opt : int option;  (** proven optimum, small instances only *)
  ap : int;
  hk : int;
  patching : int;  (** Karp's AP-patching heuristic *)
  runs_with_best : int;
  runs : int;
}

type stats = {
  instances : per_instance list;
  n_ap_exact : int;
  n_proven : int;
  median_ap_gap_pct : float;
  max_ap_ratio : float;
  mean_hk_gap_pct : float;
  max_hk_gap_pct : float;
  all_runs_found_best : int;
  mean_patching_excess_pct : float;
  patching_wins_or_ties : int;
}

(** Run the bound study over the given instances. *)
val study : Synthetic.instance list -> stats
