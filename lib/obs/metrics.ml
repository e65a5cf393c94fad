(** The typed counter/gauge registry, aggregated lock-free across
    domains.

    Counters are process-global [Atomic.t] cells: increments from
    concurrent solver tasks commute, so the final totals are
    independent of the job count and of scheduling.  Collection is
    always on — one [fetch_and_add] per {e solve} or {e local-search
    run}, never per move — and nothing is ever printed unless a
    {!Sink} is asked to emit, so the default build's output is
    untouched.

    The catalogue (see docs/OBSERVABILITY.md):
    - solver work: 2-opt / 3-opt improving moves, double-bridge kicks,
      restarts (construction starts), exact vs heuristic solves;
    - degradation: budget exhaustions, fallback transitions;
    - engine: tasks executed;
    - validation: lint diagnostics by severity, alignment certificates
      checked and failed (the ba_check layer), Held–Karp subgradient
      iterations and bounds that stopped on the integral proof;
    and two gauges (candidate-list width, job count) plus the
    gap-to-Held–Karp distribution observed per procedure. *)

type counter =
  | Moves_2opt  (** improving 2-opt moves applied *)
  | Moves_3opt  (** improving pure-3-opt moves applied *)
  | Kicks  (** double-bridge perturbations *)
  | Restarts  (** solver construction starts (runs) *)
  | Exact_solves  (** instances solved to proven optimality *)
  | Heuristic_solves  (** instances solved by iterated 3-opt *)
  | Budget_exhaustions  (** solves that hit the wall-clock/move budget *)
  | Fallbacks  (** procedures degraded along the method chain *)
  | Tasks_run  (** engine tasks executed *)
  | Lint_errors  (** Error-severity lint diagnostics emitted *)
  | Lint_warnings  (** Warning-severity lint diagnostics emitted *)
  | Lint_infos  (** Info-severity lint diagnostics emitted *)
  | Certs_checked  (** alignment certificates validated *)
  | Certs_failed  (** alignment certificates rejected *)
  | Serve_requests  (** align requests accepted by the daemon *)
  | Serve_ok  (** certified layouts returned *)
  | Serve_errors  (** typed-error responses returned *)
  | Serve_protocol_errors  (** malformed frames / undecodable requests *)
  | Serve_cache_hits  (** exact layout-cache hits (re-certified) *)
  | Serve_cache_misses  (** cache misses (fresh solves) *)
  | Serve_cache_poisoned  (** cached layouts rejected by certification *)
  | Serve_warm_starts  (** drift hits: 3-Opt seeded from the cached tour *)
  | Segment_splits  (** two-level segment boundary splits *)
  | Segment_rebalances  (** two-level O(n) rebuilds *)
  | Held_karp_iterations  (** Held–Karp subgradient iterations run *)
  | Held_karp_proved  (** bounds stopped by reaching the tour cost *)
  | Held_karp_dense_iterations
      (** [directed_bound] iterations whose 1-tree fell back from the
          pair step to the dense Prim *)

let all_counters =
  [
    (Moves_2opt, "solver.moves.2opt");
    (Moves_3opt, "solver.moves.3opt");
    (Kicks, "solver.kicks");
    (Restarts, "solver.restarts");
    (Exact_solves, "solver.exact_solves");
    (Heuristic_solves, "solver.heuristic_solves");
    (Budget_exhaustions, "solver.budget_exhaustions");
    (Fallbacks, "align.fallbacks");
    (Tasks_run, "engine.tasks_run");
    (Lint_errors, "lint.errors");
    (Lint_warnings, "lint.warnings");
    (Lint_infos, "lint.infos");
    (Certs_checked, "check.certs_checked");
    (Certs_failed, "check.certs_failed");
    (Serve_requests, "serve.requests");
    (Serve_ok, "serve.responses_ok");
    (Serve_errors, "serve.responses_error");
    (Serve_protocol_errors, "serve.protocol_errors");
    (Serve_cache_hits, "serve.cache_hits");
    (Serve_cache_misses, "serve.cache_misses");
    (Serve_cache_poisoned, "serve.cache_poisoned");
    (Serve_warm_starts, "serve.warm_starts");
    (Segment_splits, "solver.segment_splits");
    (Segment_rebalances, "solver.segment_rebalances");
    (Held_karp_iterations, "held_karp.iterations");
    (Held_karp_proved, "held_karp.proved");
    (Held_karp_dense_iterations, "held_karp.dense_iterations");
  ]

let counter_name c = List.assoc c all_counters

let counter_index = function
  | Moves_2opt -> 0
  | Moves_3opt -> 1
  | Kicks -> 2
  | Restarts -> 3
  | Exact_solves -> 4
  | Heuristic_solves -> 5
  | Budget_exhaustions -> 6
  | Fallbacks -> 7
  | Tasks_run -> 8
  | Lint_errors -> 9
  | Lint_warnings -> 10
  | Lint_infos -> 11
  | Certs_checked -> 12
  | Certs_failed -> 13
  | Serve_requests -> 14
  | Serve_ok -> 15
  | Serve_errors -> 16
  | Serve_protocol_errors -> 17
  | Serve_cache_hits -> 18
  | Serve_cache_misses -> 19
  | Serve_cache_poisoned -> 20
  | Serve_warm_starts -> 21
  | Segment_splits -> 22
  | Segment_rebalances -> 23
  | Held_karp_iterations -> 24
  | Held_karp_proved -> 25
  | Held_karp_dense_iterations -> 26

let n_counters = List.length all_counters
let counters : int Atomic.t array = Array.init n_counters (fun _ -> Atomic.make 0)

let incr ?(n = 1) c =
  if n <> 0 then ignore (Atomic.fetch_and_add counters.(counter_index c) n)

let get c = Atomic.get counters.(counter_index c)

(* ---------------- gauges ---------------- *)

type gauge =
  | Neighbor_width  (** 3-opt candidate-list width (last solve's config) *)
  | Jobs  (** executor domain count of the last fan-out *)
  | Serve_queue_depth  (** complete frames buffered but not yet handled *)
  | Serve_in_flight  (** requests currently being handled *)
  | Serve_cache_entries  (** live layout-cache entries *)
  | Tsp_repr  (** tour representation of the last init (0 flat, 1 two-level) *)
  | Tsp_segments  (** two-level segment count after the last run *)

let all_gauges =
  [
    (Neighbor_width, "solver.neighbor_width");
    (Jobs, "engine.jobs");
    (Serve_queue_depth, "serve.queue_depth");
    (Serve_in_flight, "serve.in_flight");
    (Serve_cache_entries, "serve.cache_entries");
    (Tsp_repr, "tsp.repr");
    (Tsp_segments, "tsp.segments");
  ]

let gauge_name g = List.assoc g all_gauges

let gauge_index = function
  | Neighbor_width -> 0
  | Jobs -> 1
  | Serve_queue_depth -> 2
  | Serve_in_flight -> 3
  | Serve_cache_entries -> 4
  | Tsp_repr -> 5
  | Tsp_segments -> 6

let gauges : int Atomic.t array = Array.init 7 (fun _ -> Atomic.make 0)
let set_gauge g v = Atomic.set gauges.(gauge_index g) v
let get_gauge g = Atomic.get gauges.(gauge_index g)

(* ---------------- gap-to-Held–Karp distribution ---------------- *)

(* fixed-point micro-units so the aggregate stays lock-free on int
   atomics; gaps are small ratios, so micro precision is plenty *)
let gap_count = Atomic.make 0
let gap_sum_micro = Atomic.make 0
let gap_max_micro = Atomic.make 0

(** [observe_hk_gap g] records one procedure's relative gap between the
    solved penalty and its Held–Karp lower bound (clamped at 0). *)
let observe_hk_gap g =
  let micro = int_of_float (Float.max 0. g *. 1e6) in
  ignore (Atomic.fetch_and_add gap_count 1);
  ignore (Atomic.fetch_and_add gap_sum_micro micro);
  let rec raise_max () =
    let cur = Atomic.get gap_max_micro in
    if micro > cur && not (Atomic.compare_and_set gap_max_micro cur micro) then
      raise_max ()
  in
  raise_max ()

type gap_summary = { count : int; mean : float; max : float }

let hk_gap () =
  let n = Atomic.get gap_count in
  {
    count = n;
    mean =
      (if n = 0 then 0.
       else float_of_int (Atomic.get gap_sum_micro) /. 1e6 /. float_of_int n);
    max = float_of_int (Atomic.get gap_max_micro) /. 1e6;
  }

(* ---------------- request-latency distribution ---------------- *)

(* A fixed log-spaced histogram over microseconds, 4 buckets per
   octave: bucket i covers [2^(i/4), 2^((i+1)/4)) µs, so 96 buckets
   span ~1 µs to ~14 s with ≤19% relative resolution.  All cells are
   int atomics — observation is lock-free and allocation-free, which
   keeps the serve hot path honest about its own overhead. *)
let lat_buckets = 96
let lat_hist : int Atomic.t array = Array.init lat_buckets (fun _ -> Atomic.make 0)
let lat_count = Atomic.make 0
let lat_sum_micro = Atomic.make 0
let lat_max_micro = Atomic.make 0

let lat_bucket_of_us us =
  if us <= 1. then 0
  else min (lat_buckets - 1) (int_of_float (4. *. (log us /. log 2.)))

(* geometric midpoint of bucket [i], in milliseconds *)
let lat_bucket_mid_ms i = Float.pow 2. ((float_of_int i +. 0.5) /. 4.) /. 1000.

(** [observe_latency_ms ms] records one request's wall-clock latency. *)
let observe_latency_ms ms =
  let us = Float.max 0. ms *. 1000. in
  let micro = int_of_float us in
  ignore (Atomic.fetch_and_add lat_hist.(lat_bucket_of_us us) 1);
  ignore (Atomic.fetch_and_add lat_count 1);
  ignore (Atomic.fetch_and_add lat_sum_micro micro);
  let rec raise_max () =
    let cur = Atomic.get lat_max_micro in
    if micro > cur && not (Atomic.compare_and_set lat_max_micro cur micro) then
      raise_max ()
  in
  raise_max ()

type latency_summary = {
  l_count : int;
  mean_ms : float;
  p50_ms : float;  (** bucket-resolution estimate (≤19% relative error) *)
  p95_ms : float;
  max_ms : float;  (** exact *)
}

(** [percentile_ms q] walks the histogram for the [q]-quantile bucket
    (0 when nothing was observed) and returns its geometric midpoint,
    clamped to the observed maximum.  The highest non-empty bucket
    holds that maximum, so a quantile that lands there is the maximum
    itself: one observation reads the same at every quantile. *)
let percentile_ms q =
  let n = Atomic.get lat_count in
  if n = 0 then 0.
  else begin
    let max_ms = float_of_int (Atomic.get lat_max_micro) /. 1000. in
    let target = Float.max 1. (Float.of_int n *. q) in
    let acc = ref 0 and found = ref (lat_buckets - 1) and i = ref 0 in
    (* Stdlib.incr: this module shadows [incr] with the counter API *)
    while !i < lat_buckets && float_of_int !acc < target do
      acc := !acc + Atomic.get lat_hist.(!i);
      if float_of_int !acc >= target then found := !i;
      i := !i + 1
    done;
    let top = ref (lat_buckets - 1) in
    while !top > 0 && Atomic.get lat_hist.(!top) = 0 do
      top := !top - 1
    done;
    if !found >= !top then max_ms
    else Float.min max_ms (lat_bucket_mid_ms !found)
  end

let latency () =
  let n = Atomic.get lat_count in
  {
    l_count = n;
    mean_ms =
      (if n = 0 then 0.
       else float_of_int (Atomic.get lat_sum_micro) /. 1000. /. float_of_int n);
    p50_ms = percentile_ms 0.5;
    p95_ms = percentile_ms 0.95;
    max_ms = float_of_int (Atomic.get lat_max_micro) /. 1000.;
  }

(* ---------------- snapshot / reset ---------------- *)

(** One immutable read-out of the whole registry, for sinks. *)
type snapshot = {
  counter_values : (string * int) list;  (** catalogue order *)
  gauge_values : (string * int) list;
  gap : gap_summary;
  lat : latency_summary;
}

let snapshot () =
  {
    counter_values = List.map (fun (c, name) -> (name, get c)) all_counters;
    gauge_values = List.map (fun (g, name) -> (name, get_gauge g)) all_gauges;
    gap = hk_gap ();
    lat = latency ();
  }

(** Zero every cell (tests only — production code never resets). *)
let reset () =
  Array.iter (fun a -> Atomic.set a 0) counters;
  Array.iter (fun a -> Atomic.set a 0) gauges;
  Atomic.set gap_count 0;
  Atomic.set gap_sum_micro 0;
  Atomic.set gap_max_micro 0;
  Array.iter (fun a -> Atomic.set a 0) lat_hist;
  Atomic.set lat_count 0;
  Atomic.set lat_sum_micro 0;
  Atomic.set lat_max_micro 0
