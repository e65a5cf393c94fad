(* check_trace — structural validator for balign's observability
   artifacts, used by the CLI cram tests.

     check_trace TRACE.json                validate a Chrome trace_event file
     check_trace --metrics M.json          validate a metrics snapshot
     check_trace --bench B.json            validate a bench trajectory
     check_trace --analyze A.json          validate a balign-analyze-1 report

   Exit 0 with a one-line deterministic summary on stdout, exit 1 with
   the reason on stderr otherwise.  Everything run-dependent (times,
   commit ids) is checked for type/shape only, never echoed. *)

module Json = Ba_obs.Json

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("check_trace: " ^ m); exit 1) fmt

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> s
  | exception Sys_error m -> die "cannot read %s: %s" path m

let parse path =
  match Json.parse (read_file path) with
  | Ok v -> v
  | Error m -> die "%s: invalid JSON: %s" path m

let member k v = match Json.member k v with
  | Some x -> x
  | None -> die "missing field %S" k

let str v = match Json.to_str v with Some s -> s | None -> die "expected string"
let num v = match Json.to_number v with Some f -> f | None -> die "expected number"
let list v = match Json.to_list v with Some l -> l | None -> die "expected list"

(* ---------------- chrome trace ---------------- *)

let check_chrome path =
  let doc = parse path in
  if str (member "displayTimeUnit" doc) <> "ms" then die "bad displayTimeUnit";
  let events = list (member "traceEvents" doc) in
  if events = [] then die "empty traceEvents";
  (* bucket X events by tid; remember which tids carry a thread name *)
  let tbl = Hashtbl.create 16 in
  let named = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let tid = int_of_float (num (member "tid" e)) in
      match str (member "ph" e) with
      | "M" ->
          if str (member "name" e) <> "thread_name" then die "unknown metadata";
          ignore (str (member "name" (member "args" e)));
          Hashtbl.replace named tid ()
      | "X" ->
          let ts = num (member "ts" e) and dur = num (member "dur" e) in
          if ts < 0. || dur < 0. then die "negative ts/dur";
          let args = member "args" e in
          let parent = int_of_float (num (member "parent" args)) in
          let span = int_of_float (num (member "span" args)) in
          let name = str (member "name" e) in
          Hashtbl.replace tbl tid
            ((span, parent, name, ts, dur)
            :: (try Hashtbl.find tbl tid with Not_found -> []))
      | ph -> die "unexpected phase %S" ph)
    events;
  let n_groups = Hashtbl.length tbl in
  if n_groups = 0 then die "no span groups";
  Hashtbl.iter
    (fun tid spans ->
      if not (Hashtbl.mem named tid) then die "tid %d has no thread_name" tid;
      let roots =
        List.filter (fun (_, parent, _, _, _) -> parent = -1) spans
      in
      (match roots with
      | [ (_, _, name, _, _) ] ->
          if name <> "task" then die "tid %d root span is %S" tid name
      | l -> die "tid %d has %d root spans" tid (List.length l));
      let (root_id, _, _, rts, rdur) = List.hd roots in
      List.iter
        (fun (span, parent, name, ts, dur) ->
          if span <> root_id then begin
            (* every stage span nests inside the root's interval and
               points at a span that exists in the same group *)
            if not (List.exists (fun (s, _, _, _, _) -> s = parent) spans)
            then die "tid %d span %S has dangling parent" tid name;
            if ts +. 1e-9 < rts || ts +. dur > rts +. rdur +. 1e-6 then
              die "tid %d span %S escapes its task interval" tid name
          end)
        spans)
    tbl;
  Printf.printf "trace ok: %d task groups\n" n_groups

(* ---------------- metrics snapshot ---------------- *)

let check_metrics path =
  let doc = parse path in
  let counters = member "counters" doc in
  List.iter
    (fun (_, name) ->
      match Json.member name counters with
      | Some v -> ignore (num v)
      | None -> die "missing counter %S" name)
    Ba_obs.Metrics.all_counters;
  let gauges = member "gauges" doc in
  List.iter
    (fun (_, name) ->
      if Json.member name gauges = None then die "missing gauge %S" name)
    Ba_obs.Metrics.all_gauges;
  let gap = member "hk_gap" doc in
  List.iter (fun k -> ignore (num (member k gap))) [ "count"; "mean"; "max" ];
  let lat = member "latency_ms" doc in
  List.iter
    (fun k ->
      let v = num (member k lat) in
      if v < 0. then die "negative latency %S" k)
    [ "count"; "mean"; "p50"; "p95"; "max" ];
  Printf.printf "metrics ok: %d counters, %d gauges\n"
    (List.length Ba_obs.Metrics.all_counters)
    (List.length Ba_obs.Metrics.all_gauges)

(* ---------------- bench trajectory ---------------- *)

let check_bench path =
  let doc = parse path in
  if str (member "commit" doc) = "" then die "empty commit";
  let date = str (member "date" doc) in
  if String.length date <> 20 || date.[4] <> '-' || date.[10] <> 'T'
     || date.[19] <> 'Z'
  then die "date %S is not ISO-8601 UTC" date;
  if str (member "model" doc) = "" then die "empty model";
  (* the per-representation solver split, when the document carries one *)
  (match Json.member "solver" doc with
  | None -> ()
  | Some s ->
      List.iter
        (fun repr ->
          let o = member repr s in
          List.iter
            (fun k ->
              if num (member k o) < 0. then
                die "negative solver %s.%s" repr k)
            [ "moves"; "run_s"; "moves_per_s" ])
        [ "array"; "two_level" ];
      List.iter
        (fun k -> if num (member k s) < 0. then die "negative solver %s" k)
        [ "segment_splits"; "segment_rebalances" ]);
  let rows = list (member "rows" doc) in
  if rows = [] then die "no rows";
  List.iter
    (fun r ->
      ignore (str (member "bench" r));
      ignore (str (member "dataset" r));
      List.iter
        (fun k ->
          let v = num (member k r) in
          if v < 0. then die "negative %S" k)
        [ "penalty_cycles"; "hk_gap"; "wall_ms"; "p50_ms"; "p95_ms"; "jobs";
          "certs"; "cert_failures" ];
      (* both objectives, for every aligner of the row *)
      let objectives = member "objectives" r in
      List.iter
        (fun aligner ->
          let o =
            match Json.member aligner objectives with
            | Some o -> o
            | None -> die "missing aligner %S in objectives" aligner
          in
          List.iter
            (fun k ->
              let v = num (member k o) in
              if v < 0. then die "negative %S for aligner %S" k aligner)
            [ "penalty"; "ext_tsp" ])
        [ "tsp"; "calder"; "greedy"; "btfnt"; "tsp_static"; "greedy_static" ];
      (* the TSP penalty is reported twice; the copies must agree *)
      if num (member "penalty" (member "tsp" objectives))
         <> num (member "penalty_cycles" r)
      then die "objectives.tsp.penalty disagrees with penalty_cycles";
      if num (member "certs" r) <= 0. then die "no certificates in row";
      if num (member "cert_failures" r) <> 0. then
        die "row has %g failed certificate(s)" (num (member "cert_failures" r)))
    rows;
  Printf.printf "bench ok: %d rows\n" (List.length rows)

(* ---------------- analyze report ---------------- *)

let check_analyze path =
  let doc = parse path in
  if str (member "schema" doc) <> "balign-analyze-1" then die "bad schema";
  let procs = list (member "procs" doc) in
  if procs = [] then die "no procs";
  List.iter
    (fun p ->
      ignore (str (member "name" p));
      let get k =
        let v = num (member k p) in
        if v < 0. || not (Float.is_integer v) then die "%S is not a count" k;
        int_of_float v
      in
      let n_blocks = get "n_blocks" and n_reachable = get "n_reachable" in
      let n_loops = get "n_loops" and max_depth = get "max_loop_depth" in
      let n_back = get "n_back_edges" in
      ignore (get "proc");
      ignore (get "n_edges");
      ignore (get "dom_height");
      ignore (get "est_scale");
      if n_reachable > n_blocks then die "more reachable blocks than blocks";
      if n_reachable = 0 then die "entry not reachable";
      let loops = list (member "loops" p) in
      if List.length loops <> n_loops then die "loops list disagrees with n_loops";
      let seen_depth = ref 0 in
      List.iter
        (fun l ->
          let d = int_of_float (num (member "depth" l)) in
          if d < 1 || d > max_depth then die "loop depth %d out of range" d;
          if d > !seen_depth then seen_depth := d;
          if num (member "n_blocks" l) < 1. then die "empty loop";
          ignore (num (member "header" l)))
        loops;
      if n_loops > 0 && !seen_depth <> max_depth then
        die "max_loop_depth %d never reached (deepest loop is %d)" max_depth
          !seen_depth;
      if n_loops = 0 && max_depth <> 0 then die "loop-free proc with depth > 0";
      if n_back < n_loops then die "fewer back edges than loops";
      List.iter
        (fun e ->
          ignore (num (member "src" e));
          ignore (num (member "dst" e)))
        (list (member "irreducible" p));
      (* estimated hotness: counts positive, sorted hottest-first *)
      let last = ref max_int in
      List.iter
        (fun h ->
          ignore (num (member "block" h));
          let c = int_of_float (num (member "count" h)) in
          if c <= 0 then die "non-positive hotness count";
          if c > !last then die "hottest list not sorted";
          last := c)
        (list (member "hottest" p));
      let est = get "est_transfers" in
      if n_blocks > 1 && n_reachable > 1 && est = 0 then
        die "no estimated transfers in a multi-block proc")
    procs;
  Printf.printf "analyze ok: %d procs\n" (List.length procs)

(* ---------------- serve soak ---------------- *)

let check_serve_soak path =
  let doc = parse path in
  if str (member "schema" doc) <> "serve-soak/1" then die "bad schema";
  let get k =
    let v = num (member k doc) in
    if v < 0. || not (Float.is_integer v) then die "%S is not a count" k;
    int_of_float v
  in
  let requests = get "requests" in
  let ok = get "ok" and errors = get "errors" in
  let faults = get "faults_injected" and segments = get "segments" in
  let hits = get "cache_hits" and warm = get "warm_starts" in
  let repeats = get "repeats_identical" in
  let uncertified = get "uncertified" and crashes = get "crashes" in
  if requests = 0 then die "empty soak";
  (* the hard acceptance gates: only typed errors or certified
     layouts, and the daemon outlived every segment *)
  if uncertified <> 0 then die "%d uncertified response(s)" uncertified;
  if crashes <> 0 then die "%d crash(es)" crashes;
  if ok + errors > requests then die "more responses than requests";
  if ok = 0 then die "no successful responses";
  if errors = 0 || faults = 0 then die "the fault mix did not run";
  if hits = 0 then die "no cache hits";
  if warm = 0 then die "no warm starts";
  if repeats = 0 then die "no bit-identical repeat was verified";
  if segments = 0 then die "no completed segments";
  Printf.printf
    "serve-soak ok: %d requests over %d segments, 0 uncertified, 0 crashes\n"
    requests segments

let () =
  match Sys.argv with
  | [| _; "--metrics"; path |] -> check_metrics path
  | [| _; "--bench"; path |] -> check_bench path
  | [| _; "--serve-soak"; path |] -> check_serve_soak path
  | [| _; "--analyze"; path |] -> check_analyze path
  | [| _; path |] -> check_chrome path
  | _ ->
      die "usage: check_trace \
           [--metrics|--bench|--serve-soak|--analyze] FILE"
