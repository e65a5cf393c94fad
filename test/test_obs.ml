(** Unit suite for the observability layer (lib/obs): JSON
    emit/parse roundtrips, span buffers, the metrics registry, sinks,
    and the Chrome trace export — including the contract that span
    structure is identical under [Seq] and [Pool] executors. *)

module Json = Ba_obs.Json
module Span = Ba_obs.Span
module Metrics = Ba_obs.Metrics
module Trace = Ba_obs.Trace
module Sink = Ba_obs.Sink
module Executor = Ba_engine.Executor
module Task = Ba_engine.Task

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let sample =
  Json.Obj
    [
      ("null", Json.Null);
      ("yes", Json.Bool true);
      ("n", Json.Int (-42));
      ("f", Json.Float 1.5);
      ("s", Json.String "a \"quoted\"\nline\twith \\ and \x01");
      ("l", Json.List [ Json.Int 1; Json.List []; Json.Obj [] ]);
    ]

let test_json_roundtrip () =
  match Json.parse (Json.to_string sample) with
  | Ok v ->
      Alcotest.(check string)
        "roundtrip" (Json.to_string sample) (Json.to_string v)
  | Error m -> Alcotest.failf "parse failed: %s" m

let test_json_floats () =
  Alcotest.(check string) "fixed" "[0.500000]"
    (Json.to_string (Json.List [ Json.Float 0.5 ]));
  Alcotest.(check string) "nan is null" "[null,null,null]"
    (Json.to_string
       (Json.List
          [ Json.Float Float.nan; Json.Float Float.infinity;
            Json.Float Float.neg_infinity ]))

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "accepted malformed %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":1,}"; "[1] trailing"; "'single'"; "{1:2}" ]

let test_json_accessors () =
  let v = Json.Obj [ ("rows", Json.List [ Json.Int 3; Json.Float 2.5 ]) ] in
  let rows = Option.get (Json.to_list (Option.get (Json.member "rows" v))) in
  Alcotest.(check (list (float 1e-9)))
    "numbers" [ 3.; 2.5 ]
    (List.filter_map Json.to_number rows);
  Alcotest.(check bool) "missing member" true (Json.member "nope" v = None)

(* ------------------------------------------------------------------ *)
(* Span                                                                *)
(* ------------------------------------------------------------------ *)

let shape buf =
  Array.to_list (Span.spans buf)
  |> List.map (fun s -> (s.Span.id, s.Span.parent, s.Span.name))

let test_span_nesting () =
  let buf = Span.create ~task:7 in
  Span.with_span buf "root" (fun () ->
      Span.with_span buf "a" (fun () ->
          Span.with_span buf "a1" (fun () -> ()));
      Span.with_span buf "b" (fun () -> ()));
  Alcotest.(check (list (triple int int string)))
    "ids/parents/names"
    [ (0, -1, "root"); (1, 0, "a"); (2, 1, "a1"); (3, 0, "b") ]
    (shape buf);
  Array.iter
    (fun s ->
      Alcotest.(check int) "task id" 7 s.Span.task;
      Alcotest.(check bool) "non-negative duration" true
        (Span.duration_ns s >= 0L))
    (Span.spans buf)

(* stage timings are span totals, so buffers record with tracing off;
   tracing decides only whether the spans are exported *)
let test_span_recorded_untraced () =
  Trace.clear ();
  Trace.set_enabled false;
  let outcomes =
    Task.run_all Executor.Seq
      [|
        Task.make ~id:0 (fun ctx ->
            Task.staged ctx Task.Solve (fun () -> 41 + 1));
      |]
  in
  let o = outcomes.(0) in
  Alcotest.(check int) "value passes through" 42 o.Task.value;
  Alcotest.(check (list (pair string int)))
    "root + stage recorded"
    [ ("task", -1); ("solve", 0) ]
    (Array.to_list o.Task.spans
    |> List.map (fun s -> (s.Span.name, s.Span.parent)));
  Alcotest.(check (float 0.)) "elapsed is the root span"
    (Span.duration_s o.Task.spans.(0))
    o.Task.elapsed_s;
  Alcotest.(check int) "nothing exported" 0 (List.length (Trace.all_groups ()))

exception Kaboom

let test_span_closes_on_raise () =
  let buf = Span.create ~task:0 in
  (try
     Span.with_span buf "outer" (fun () ->
         Span.with_span buf "inner" (fun () -> raise Kaboom))
   with Kaboom -> ());
  Alcotest.(check (list (triple int int string)))
    "both spans closed"
    [ (0, -1, "outer"); (1, 0, "inner") ]
    (shape buf)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_metrics_counters () =
  Metrics.reset ();
  Metrics.incr Metrics.Kicks;
  Metrics.incr ~n:41 Metrics.Kicks;
  Metrics.incr ~n:0 Metrics.Moves_2opt;
  Alcotest.(check int) "kicks" 42 (Metrics.get Metrics.Kicks);
  Alcotest.(check int) "zero add is free" 0 (Metrics.get Metrics.Moves_2opt);
  Metrics.set_gauge Metrics.Jobs 8;
  Alcotest.(check int) "gauge" 8 (Metrics.get_gauge Metrics.Jobs)

let test_metrics_gap () =
  Metrics.reset ();
  Metrics.observe_hk_gap 0.10;
  Metrics.observe_hk_gap 0.30;
  let g = Metrics.hk_gap () in
  Alcotest.(check int) "count" 2 g.Metrics.count;
  Alcotest.(check (float 1e-4)) "mean" 0.20 g.Metrics.mean;
  Alcotest.(check (float 1e-4)) "max" 0.30 g.Metrics.max

let test_metrics_snapshot_names () =
  Metrics.reset ();
  let snap = Metrics.snapshot () in
  Alcotest.(check (list string))
    "counter catalogue"
    (List.map snd Metrics.all_counters)
    (List.map fst snap.Metrics.counter_values);
  Alcotest.(check (list string))
    "gauge catalogue"
    (List.map snd Metrics.all_gauges)
    (List.map fst snap.Metrics.gauge_values)

let test_metrics_cross_domain () =
  Metrics.reset ();
  (* concurrent increments from a pool must all land *)
  ignore
    (Executor.init (Executor.Pool 4) 64 (fun _ ->
         for _ = 1 to 100 do Metrics.incr Metrics.Moves_3opt done));
  Alcotest.(check int) "64*100 increments" 6400
    (Metrics.get Metrics.Moves_3opt)

(* ------------------------------------------------------------------ *)
(* Sink                                                                *)
(* ------------------------------------------------------------------ *)

let test_sink_of_spec () =
  Alcotest.(check bool) "dash" true (Sink.of_spec "-" = Sink.Stderr);
  Alcotest.(check bool) "stderr" true (Sink.of_spec "stderr" = Sink.Stderr);
  Alcotest.(check bool) "csv" true
    (Sink.of_spec "m.csv" = Sink.Csv_file "m.csv");
  Alcotest.(check bool) "json" true
    (Sink.of_spec "m.json" = Sink.Json_file "m.json")

let test_sink_renders () =
  Metrics.reset ();
  Metrics.incr ~n:3 Metrics.Restarts;
  Metrics.observe_hk_gap 0.5;
  let snap = Metrics.snapshot () in
  (match Json.parse (Json.to_string (Sink.snapshot_json snap)) with
  | Error m -> Alcotest.failf "snapshot json invalid: %s" m
  | Ok v ->
      let counters = Option.get (Json.member "counters" v) in
      Alcotest.(check (option (float 1e-9)))
        "restarts" (Some 3.)
        (Option.bind (Json.member "solver.restarts" counters) Json.to_number));
  let csv = Sink.snapshot_csv snap in
  Alcotest.(check string) "csv header" "metric,value" (List.hd csv);
  Alcotest.(check bool) "csv has restarts row" true
    (List.mem "solver.restarts,3" csv)

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

(* The same staged fan-out under any executor; returns the trace's
   structural skeleton (labels + span names/parents per group). *)
let skeleton exec =
  Trace.clear ();
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.clear ())
    (fun () ->
      let tasks =
        Array.init 6 (fun i ->
            Task.make ~id:i ~label:(Printf.sprintf "t%d" i) (fun ctx ->
                Task.staged ctx Task.Build (fun () -> ());
                Task.staged ctx Task.Solve (fun () ->
                    Span.with_span (Task.spans ctx) "kick" (fun () -> ()));
                i * i))
      in
      ignore (Task.run_all exec tasks);
      List.map
        (fun (g : Trace.group) ->
          ( g.Trace.seq,
            g.Trace.label,
            Array.to_list g.Trace.spans
            |> List.map (fun s -> (s.Span.name, s.Span.parent)) ))
        (Trace.all_groups ()))

let test_trace_structure () =
  let groups = skeleton Executor.Seq in
  Alcotest.(check int) "one group per task" 6 (List.length groups);
  List.iteri
    (fun i (seq, label, spans) ->
      Alcotest.(check int) "seq is task index" i seq;
      Alcotest.(check string) "label" (Printf.sprintf "t%d" i) label;
      Alcotest.(check
        (list (pair string int)))
        "root + stages + nested"
        [ ("task", -1); ("build", 0); ("solve", 0); ("kick", 2) ]
        spans)
    groups

let test_trace_seq_pool_identical () =
  let s = skeleton Executor.Seq in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "pool%d skeleton" jobs)
        true
        (s = skeleton (Executor.Pool jobs)))
    [ 2; 4 ]

let test_trace_chrome_export () =
  Trace.clear ();
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.clear ())
    (fun () ->
      let tasks =
        Array.init 2 (fun i ->
            Task.make ~id:i ~label:"w" (fun ctx ->
                Task.staged ctx Task.Solve (fun () -> ())))
      in
      ignore (Task.run_all Executor.Seq tasks);
      let doc = Trace.to_chrome () in
      (* the export must survive its own emit/parse roundtrip *)
      (match Json.parse (Json.to_string doc) with
      | Error m -> Alcotest.failf "chrome json invalid: %s" m
      | Ok _ -> ());
      let events =
        Option.get (Json.to_list (Option.get (Json.member "traceEvents" doc)))
      in
      let phase e = Option.get (Json.to_str (Option.get (Json.member "ph" e))) in
      let metas = List.filter (fun e -> phase e = "M") events in
      let xs = List.filter (fun e -> phase e = "X") events in
      Alcotest.(check int) "one thread_name per task" 2 (List.length metas);
      (* 2 tasks x (root + solve) *)
      Alcotest.(check int) "complete events" 4 (List.length xs);
      List.iter
        (fun e ->
          let num k =
            Option.bind (Json.member k e) Json.to_number |> Option.get
          in
          Alcotest.(check bool) "ts rebased" true (num "ts" >= 0.);
          Alcotest.(check bool) "dur non-negative" true (num "dur" >= 0.);
          Alcotest.(check bool) "tid is a group" true
            (num "tid" = 0. || num "tid" = 1.))
        xs)

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "floats" `Quick test_json_floats;
          Alcotest.test_case "parse-errors" `Quick test_json_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "span",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "recorded with tracing off" `Quick
            test_span_recorded_untraced;
          Alcotest.test_case "closes-on-raise" `Quick test_span_closes_on_raise;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_metrics_counters;
          Alcotest.test_case "hk-gap" `Quick test_metrics_gap;
          Alcotest.test_case "snapshot-names" `Quick test_metrics_snapshot_names;
          Alcotest.test_case "cross-domain" `Quick test_metrics_cross_domain;
        ] );
      ( "sink",
        [
          Alcotest.test_case "of-spec" `Quick test_sink_of_spec;
          Alcotest.test_case "renders" `Quick test_sink_renders;
        ] );
      ( "trace",
        [
          Alcotest.test_case "structure" `Quick test_trace_structure;
          Alcotest.test_case "seq-pool-identical" `Quick
            test_trace_seq_pool_identical;
          Alcotest.test_case "chrome-export" `Quick test_trace_chrome_export;
        ] );
    ]
