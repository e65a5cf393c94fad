(* perfbench — the repository benchmark.

     perfbench --workload paper-suite|scale-1e5|serve-mixed --seed N
               --seconds S --trace 0|1

   Runs one workload from its seed for about S seconds and prints, as
   the last line of standard output, one JSON object with the keys
   correct, attempted, failed and metrics: the end-to-end metrics
   untraced, the per-layer metrics traced.  The fuller record (quality
   figures, latency percentiles with sample counts, the per-layer
   table) goes to .perfbench-out/, with the spans of a traced run.
   Exits 1 when any output failed its check. *)

let workloads =
  [
    ("paper-suite", Paper_suite.run);
    ("scale-1e5", Scale_1e5.run);
    ("serve-mixed", Serve_mixed.run);
  ]

let usage () =
  prerr_endline
    "usage: perfbench --workload paper-suite|scale-1e5|serve-mixed --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string_opt v;
        parse rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
        trace := Some (v = "1");
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (List.assoc_opt !workload workloads, !seed, !seconds, !trace) with
  | Some run, Some seed, Some seconds, Some trace when seconds > 0. ->
      Spans.on := trace;
      let r = run ~seed ~seconds ~trace in
      let dir = ".perfbench-out" in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let base =
        Printf.sprintf "%s/%s-seed%d-trace%d" dir !workload seed
          (Bool.to_int trace)
      in
      Ba_obs.Json.write_file (base ^ ".json")
        (Report.detail_json ~workload:!workload ~seed ~trace r);
      if trace then Spans.write_csv (base ^ ".spans.csv");
      print_endline (Report.result_line r);
      if r.Report.failed > 0 then exit 1
  | _ -> usage ()
