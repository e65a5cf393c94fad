(** Stage timing for the Table 2 reproduction.

    [stages] is immutable: every pipeline stage produces its own value
    and the caller combines them with the pure {!add}/{!merge} — there
    is no shared record for concurrent tasks to race on, so rows
    produced by a parallel runner carry exactly the timings of their
    own stages (merged after the join). *)

(** [time f] runs [f ()] and returns its result with the seconds it
    took on the {!Ba_obs.Mono} clock. *)
let time f =
  let t0 = Ba_obs.Mono.now_ns () in
  let r = f () in
  (r, Ba_obs.Mono.since_s t0)

(** Stage timings of one benchmark compilation+alignment pipeline,
    mirroring the paper's Table 2 columns (see EXPERIMENTS.md for the
    mapping).  Immutable — combine with {!add}. *)
type stages = {
  compile_s : float;  (** source → IR + CFG shapes *)
  profile_s : float;  (** training profiling run *)
  greedy_s : float;  (** greedy layout + realization *)
  matrix_s : float;  (** DTSP matrix construction *)
  solve_s : float;  (** DTSP solving *)
  tsp_program_s : float;  (** tour → layout + realization *)
  bounds_s : float;  (** Held–Karp lower bounds (analysis only) *)
}

let zero =
  {
    compile_s = 0.;
    profile_s = 0.;
    greedy_s = 0.;
    matrix_s = 0.;
    solve_s = 0.;
    tsp_program_s = 0.;
    bounds_s = 0.;
  }

(** Pure component-wise sum: [add a b] is the combined timing of the
    two (sub-)pipelines. *)
let add a b =
  {
    compile_s = a.compile_s +. b.compile_s;
    profile_s = a.profile_s +. b.profile_s;
    greedy_s = a.greedy_s +. b.greedy_s;
    matrix_s = a.matrix_s +. b.matrix_s;
    solve_s = a.solve_s +. b.solve_s;
    tsp_program_s = a.tsp_program_s +. b.tsp_program_s;
    bounds_s = a.bounds_s +. b.bounds_s;
  }

(** [merge l] sums a list of per-task timings, in order. *)
let merge l = List.fold_left add zero l

(* ------------------------------------------------------------------ *)

(** A summary of a sample of per-task durations — enough to see the
    pool's load imbalance (one slow procedure dominating a domain). *)
type dist = {
  n : int;  (** sample count *)
  total_s : float;
  p50_s : float;  (** median *)
  p95_s : float;
  max_s : float;
}

let empty_dist = { n = 0; total_s = 0.; p50_s = 0.; p95_s = 0.; max_s = 0. }

(** [dist_of samples] summarizes a list of durations (seconds).
    Percentiles use the nearest-rank method on the sorted sample. *)
let dist_of = function
  | [] -> empty_dist
  | samples ->
      let a = Array.of_list samples in
      Array.sort compare a;
      let n = Array.length a in
      let rank p =
        let i = int_of_float (ceil (p *. float_of_int n)) - 1 in
        a.(max 0 (min (n - 1) i))
      in
      {
        n;
        total_s = Array.fold_left ( +. ) 0. a;
        p50_s = rank 0.50;
        p95_s = rank 0.95;
        max_s = a.(n - 1);
      }
