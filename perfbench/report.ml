(* What a workload run hands back, the statistics it is summarised with,
   and the per-layer metrics of a traced run. *)

module Json = Ba_obs.Json

type metric = { name : string; value : float; unit_ : string }

type result = {
  attempted : int;
  failed : int;
  metrics : metric list;  (** end-to-end, or per-layer when traced *)
  detail : (string * Json.t) list;  (** the fuller record, written to a file *)
}

let m name unit_ value = { name; value; unit_ }

(* ---------------- order statistics ---------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(** Nearest-rank [p]-quantile with its sample count; the value is
    [Null] unless at least ten samples lie beyond it. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  let k = max 0 (int_of_float (Float.ceil (p *. float_of_int n)) - 1) in
  let v = if n - 1 - k >= 10 then Json.Float a.(k) else Json.Null in
  Json.Obj [ ("value", v); ("samples", Json.Int n) ]

(** Median of [repeats] timed calls of [f], with the last call's
    result; [dispose] releases each earlier one. *)
let setup_median ?(dispose = ignore) ~repeats f =
  let rec go k times =
    let r, s = Spans.timed f in
    if k = 1 then (r, median (s :: times))
    else begin
      dispose r;
      go (k - 1) (s :: times)
    end
  in
  go repeats []

(** Run [pass] back to back until [seconds] have gone by (at least
    once); returns the number of passes and the seconds they took.
    Each pass starts from a compacted heap, so no pass pays for the
    garbage of the one before. *)
let measure ~seconds pass =
  let t0 = Spans.now () in
  let passes = ref 0 in
  while !passes = 0 || Spans.now () -. t0 < seconds do
    Gc.compact ();
    pass !passes;
    incr passes
  done;
  (!passes, Spans.now () -. t0)

(** A throughput in blocks per second, taken per pass and reported as
    the median over passes, so one slow pass cannot drag the figure. *)
type rate = {
  mutable blocks : int;
  mutable secs : float;
  mutable per_pass : float list;
}

let rate () = { blocks = 0; secs = 0.; per_pass = [] }

let add r ~blocks ~secs =
  r.blocks <- r.blocks + blocks;
  r.secs <- r.secs +. secs

let end_pass r =
  if r.secs > 0. then
    r.per_pass <- (float_of_int r.blocks /. r.secs) :: r.per_pass;
  r.blocks <- 0;
  r.secs <- 0.

let median_rate r = median r.per_pass

(** The process's peak resident set, from the kernel's high-water
    mark. *)
let peak_rss_mb () =
  let kb =
    In_channel.with_open_text "/proc/self/status" In_channel.input_lines
    |> List.find_map (fun l ->
           Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id)
  in
  match kb with
  | Some kb -> float_of_int kb /. 1024.
  | None -> failwith "peak_rss_mb: no VmHWM in /proc/self/status"

(** Fisher–Yates shuffle in place; returns the array. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(** Order-sensitive checksum of layouts (or any int arrays). *)
let checksum_into h (a : int array) =
  Array.fold_left (fun h x -> ((h * 1_000_003) + x + 1) land max_int) h a

(* ---------------- per-layer metrics ---------------- *)

let layer_names =
  [
    "minic.compile"; "profile.collect"; "reduction.build"; "sym.build";
    "neighbors.build"; "construct.start"; "three_opt.init";
    "three_opt.descent"; "iterated.solve"; "iterated.kick_descent";
    "iterated.kick_bookkeeping"; "exact.solve"; "driver.self";
    "held_karp.bound"; "certify.check"; "machine.simulate"; "eval.penalty";
    "chain.fallback"; "wire.encode"; "wire.decode"; "serve.wait";
    "serve.lifecycle"; "guard.reference"; "guard.words"; "pass";
  ]

(** Per-layer metrics of a traced run, per measured pass.  [pass]
    spans are the roots; [guard.*] spans are the checking work
    (reference solves, heap walks) that is not part of the measured
    system, so layer coverage is taken over the pass time outside
    them.  [words] is the reachable size of the built instances. *)
let layer_metrics ~passes ~words =
  let tbl = Spans.layers () in
  let get f name =
    match Hashtbl.find_opt tbl name with Some l -> f l | None -> 0
  in
  let per_pass ns = float_of_int ns *. 1e-9 /. float_of_int passes in
  let self name = per_pass (get (fun l -> l.Spans.self) name) in
  let busy name = get (fun l -> l.Spans.busy) name in
  let c = Replay.counts in
  let per_pass_count x = float_of_int x /. float_of_int passes in
  let guard = busy "guard.reference" + busy "guard.words" in
  let coverage =
    1.
    -. float_of_int (get (fun l -> l.Spans.self) "pass")
       /. float_of_int (max 1 (busy "pass" - guard))
  in
  let metrics =
    [
      m "reduction.build_s" "s" (self "reduction.build");
      m "reduction.instance_words" "words" (per_pass_count words);
      m "sym.build_s" "s" (self "sym.build");
      m "neighbors.build_s" "s" (self "neighbors.build");
      m "construct.start_s" "s" (self "construct.start");
      m "three_opt.init_s" "s" (self "three_opt.init");
      m "three_opt.descent_s" "s" (self "three_opt.descent");
      m "three_opt.moves" "count" (per_pass_count c.moves);
      m "three_opt.ns_per_move" "ns"
        (float_of_int (busy "three_opt.descent" + busy "iterated.kick_descent")
        /. float_of_int (max 1 c.moves));
      m "three_opt.scans_skipped" "count" (per_pass_count c.scans_skipped);
      m "iterated.kick_descent_s" "s" (self "iterated.kick_descent");
      m "iterated.kick_bookkeeping_s" "s" (self "iterated.kick_bookkeeping");
      m "iterated.kicks" "count" (per_pass_count c.kicks);
      m "iterated.kick_accept_frac" "ratio"
        (float_of_int c.accepted /. float_of_int (max 1 c.kicks));
      m "driver.self_s" "s" (self "driver.self");
      m "certify.check_s" "s" (self "certify.check");
      m "trace.overhead_frac" "ratio" ((c.replay_s /. c.reference_s) -. 1.);
      m "trace.coverage_frac" "ratio" coverage;
    ]
  in
  let table =
    List.filter_map
      (fun name ->
        match Hashtbl.find_opt tbl name with
        | None -> None
        | Some l ->
            Some
              ( name,
                Json.Obj
                  [
                    ("busy_s", Json.Float (per_pass l.Spans.busy));
                    ("self_s", Json.Float (per_pass l.Spans.self));
                    ("calls", Json.Int l.Spans.calls);
                  ] ))
      layer_names
  in
  let detail =
    [
      ("layers_per_pass", Json.Obj table);
      ( "replay",
        Json.Obj
          [
            ("heuristic_solves", Json.Int c.heuristic);
            ("exact_solves", Json.Int c.exact);
            ("mismatches", Json.Int c.mismatches);
            ("replay_s", Json.Float c.replay_s);
            ("reference_s", Json.Float c.reference_s);
          ] );
    ]
  in
  (metrics, detail)

(* ---------------- output ---------------- *)

(** The result line: one JSON object, every number with all its
    digits. *)
let result_line (r : result) =
  let metric x =
    Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" x.name
      x.value x.unit_
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.failed = 0) r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))

let detail_json ~workload ~seed ~trace (r : result) =
  Json.Obj
    ([
       ("workload", Json.String workload);
       ("seed", Json.Int seed);
       ("trace", Json.Bool trace);
       ("attempted", Json.Int r.attempted);
       ("failed", Json.Int r.failed);
       ( "metrics",
         Json.Obj
           (List.map
              (fun x ->
                ( x.name,
                  Json.Obj
                    [
                      ("value", Json.Float x.value); ("unit", Json.String x.unit_);
                    ] ))
              r.metrics) );
     ]
    @ r.detail)
