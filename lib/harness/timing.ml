(** Stage timing for the Table 2 reproduction.

    A benchmark row runs its phases inside {!Ba_obs.Span} spans and
    nothing else reads the clock: {!of_spans} turns the row's spans into
    the seven Table 2 columns and the solve-time distribution after the
    fact.  Each row owns its span buffer, so rows produced by a
    parallel runner carry exactly the timings of their own stages. *)

(** Stage timings of one benchmark compilation+alignment pipeline,
    mirroring the paper's Table 2 columns (see EXPERIMENTS.md for the
    mapping). *)
type stages = {
  compile_s : float;  (** source → IR + CFG shapes *)
  profile_s : float;  (** training profiling run *)
  greedy_s : float;  (** greedy layout + realization *)
  matrix_s : float;  (** DTSP matrix construction *)
  solve_s : float;  (** DTSP solving *)
  tsp_program_s : float;  (** tour → layout + realization *)
  bounds_s : float;  (** Held–Karp lower bounds (analysis only) *)
}

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

(** [of_spans spans] sums the row's spans into the Table 2 columns.
    Only the self-trained TSP pass counts towards [matrix_s] and
    [solve_s]: the cross and static passes, and the aligner's own
    ["solve"] stage spans, open spans of the same names elsewhere. *)
let of_spans (spans : Ba_obs.Span.span array) : stages * dist =
  let names = Hashtbl.create (Array.length spans) in
  Array.iter (fun (s : Ba_obs.Span.span) -> Hashtbl.replace names s.id s.name) spans;
  let under_tsp_self (s : Ba_obs.Span.span) =
    Hashtbl.find_opt names s.parent = Some "tsp-self"
  in
  let total keep =
    Array.fold_left
      (fun acc s -> if keep s then acc +. Ba_obs.Span.duration_s s else acc)
      0. spans
  in
  let named n (s : Ba_obs.Span.span) = s.name = n in
  let self_tsp n s = named n s && under_tsp_self s in
  let stages =
    {
      compile_s = total (named "compile");
      profile_s = total (named "profile");
      greedy_s = total (named "greedy") +. total (named "realize-greedy");
      matrix_s = total (self_tsp "matrix");
      solve_s = total (self_tsp "solve");
      tsp_program_s = total (named "realize-tsp");
      bounds_s = total (named "bounds");
    }
  in
  let solves =
    Array.to_list spans
    |> List.filter (self_tsp "solve")
    |> List.map Ba_obs.Span.duration_s
  in
  (stages, dist_of solves)
