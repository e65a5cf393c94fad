(** Process-global typed counters and gauges, aggregated lock-free
    across domains (increments commute, so totals are independent of
    job count).  Collection is always on; emission only happens when a
    {!Sink} is asked.  Catalogue: docs/OBSERVABILITY.md. *)

type counter =
  | Moves_2opt
  | Moves_3opt
  | Kicks
  | Restarts
  | Exact_solves
  | Heuristic_solves
  | Budget_exhaustions
  | Fallbacks
  | Tasks_run
  | Lint_errors
  | Lint_warnings
  | Lint_infos
  | Certs_checked
  | Certs_failed
  | Serve_requests
  | Serve_ok
  | Serve_errors
  | Serve_protocol_errors
  | Serve_cache_hits
  | Serve_cache_misses
  | Serve_cache_poisoned
  | Serve_warm_starts
  | Segment_splits
  | Segment_rebalances
  | Held_karp_iterations
  | Held_karp_proved
  | Held_karp_dense_iterations

(** Every counter with its stable snapshot name, in catalogue order. *)
val all_counters : (counter * string) list

val counter_name : counter -> string

(** [incr ?n c] atomically adds [n] (default 1); [n = 0] is free. *)
val incr : ?n:int -> counter -> unit

val get : counter -> int

type gauge =
  | Neighbor_width
  | Jobs
  | Serve_queue_depth
  | Serve_in_flight
  | Serve_cache_entries
  | Tsp_repr
  | Tsp_segments

val all_gauges : (gauge * string) list
val gauge_name : gauge -> string
val set_gauge : gauge -> int -> unit
val get_gauge : gauge -> int

(** Record one procedure's relative gap to its Held–Karp bound. *)
val observe_hk_gap : float -> unit

type gap_summary = { count : int; mean : float; max : float }

val hk_gap : unit -> gap_summary

(** Record one serve request's wall-clock latency into the lock-free
    log-bucket histogram (4 buckets per octave, ~1 µs – 14 s). *)
val observe_latency_ms : float -> unit

type latency_summary = {
  l_count : int;
  mean_ms : float;
  p50_ms : float;  (** histogram estimate, ≤19% relative error *)
  p95_ms : float;
  max_ms : float;  (** exact *)
}

val latency : unit -> latency_summary

type snapshot = {
  counter_values : (string * int) list;
  gauge_values : (string * int) list;
  gap : gap_summary;
  lat : latency_summary;
}

val snapshot : unit -> snapshot

(** Zero the registry (tests only). *)
val reset : unit -> unit
