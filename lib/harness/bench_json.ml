(** Machine-readable bench trajectory.

    [balign bench --json FILE] emits one self-describing document per
    run so CI can chart penalty/gap/latency over commits:

    {v
    { "commit": "<sha>", "date": "<ISO-8601 UTC>", "model": "<name>",
      "rows": [ { "bench": ..., "dataset": ...,
                  "penalty_cycles": ..., "hk_gap": ...,
                  "objectives": { "tsp":    { "penalty": ..., "ext_tsp": ... },
                                  "calder": { ... }, "greedy": { ... },
                                  "btfnt":  { ... }, "tsp_static": { ... },
                                  "greedy_static": { ... } },
                  "wall_ms": ..., "p50_ms": ..., "p95_ms": ...,
                  "jobs": ..., "certs": ..., "cert_failures": ... }, ... ] }
    v}

    [penalty_cycles] and [hk_gap] are deterministic (self-trained TSP
    layout vs the Held–Karp bound); [objectives] reports both cost
    objectives — control-penalty cycles (lower is better) and the
    Ext-TSP locality score (higher is better), both priced here on the
    row's testing profile — for every self-trained aligner and for the
    two static-estimate-trained layouts ([tsp_static], [greedy_static]:
    no training run at all).  The tsp, greedy and static programs are
    the row's own; the calder and btfnt layouts exist only for this
    document and are aligned here from the row's testing profile;
    [certs]/[cert_failures] count the independent alignment
    certificates of the row ({!Ba_check.Certify}); the [*_ms] fields
    are wall-clock and vary run to run.  Document construction is pure
    ({!make}) so tests can golden-check the deterministic slice. *)

module Json = Ba_obs.Json
module Task = Ba_engine.Task
module Driver = Ba_align.Driver

let model_of (r : Runner.row) = r.Runner.config.Runner.model

let objectives_json (r : Runner.row) : Json.t =
  let model = model_of r and test = r.Runner.test_profile in
  let cfgs = r.Runner.compiled.Ba_minic.Compile.cfgs in
  (* a deterministic aligner the row does not carry, self-trained *)
  let self_trained m =
    Driver.realize m model cfgs ~train:test
      (Array.mapi
         (fun fid g ->
           match
             Driver.align_proc m model g
               ~profile:(Ba_profile.Profile.proc test fid)
           with
           | Ok order -> order
           | Error e -> raise (Ba_robust.Errors.Error e))
         cfgs)
  in
  let objective (p : Driver.aligned) =
    Json.Obj
      [
        ("penalty", Json.Int (Driver.analytic_penalty model p ~test));
        ( "ext_tsp",
          Json.Int
            (Driver.ext_tsp_score
               ~params:(Ba_machine.Model.ext_tsp_params model)
               p ~test) );
      ]
  in
  Json.Obj
    [
      ("tsp", objective r.Runner.tsp_self.Runner.program);
      ("calder", objective (self_trained Driver.Calder));
      ("greedy", objective r.Runner.greedy_self.Runner.program);
      ("btfnt", objective (self_trained Driver.Btfnt));
      ("tsp_static", objective r.Runner.tsp_static);
      ("greedy_static", objective r.Runner.greedy_static);
    ]

let row_json ~jobs (o : Runner.row Task.outcome) : Json.t =
  let r = o.Task.value in
  Json.Obj
    [
      ("bench", Json.String r.Runner.bench);
      ("dataset", Json.String r.Runner.ds);
      ("penalty_cycles", Json.Int r.Runner.tsp_self.Runner.penalty);
      ("hk_gap", Json.Float (Runner.hk_gap r));
      ("objectives", objectives_json r);
      ("wall_ms", Json.Float (o.Task.elapsed_s *. 1000.));
      ("p50_ms", Json.Float (r.Runner.solve_dist.Timing.p50_s *. 1000.));
      ("p95_ms", Json.Float (r.Runner.solve_dist.Timing.p95_s *. 1000.));
      ("jobs", Json.Int jobs);
      ("certs", Json.Int r.Runner.certs);
      ("cert_failures", Json.Int r.Runner.cert_failures);
    ]

(** [make ~commit ~date ~jobs outcomes] builds the document; pure.  The
    document's [model] is the cost model the first row was measured
    under (the registry default when there are no rows). *)
let make ~commit ~date ~jobs (outcomes : Runner.row Task.outcome list) :
    Json.t =
  let model =
    match outcomes with
    | o :: _ -> model_of o.Task.value
    | [] -> Ba_machine.Model.default
  in
  Json.Obj
    [
      ("commit", Json.String commit);
      ("date", Json.String date);
      ("model", Json.String (Ba_machine.Model.to_string model));
      ("rows", Json.List (List.map (row_json ~jobs) outcomes));
    ]

(** Best-effort current commit id: [$BALIGN_COMMIT] if set (CI), else
    [git rev-parse HEAD], else ["unknown"]. *)
let current_commit () =
  match Sys.getenv_opt "BALIGN_COMMIT" with
  | Some c when String.trim c <> "" -> String.trim c
  | _ -> (
      try
        let ic =
          Unix.open_process_in "git rev-parse HEAD 2>/dev/null"
        in
        let line = try input_line ic with End_of_file -> "" in
        let status = Unix.close_process_in ic in
        match (status, String.trim line) with
        | Unix.WEXITED 0, sha when sha <> "" -> sha
        | _ -> "unknown"
      with _ -> "unknown")

(** Current time as ISO-8601 UTC, e.g. ["2026-08-06T12:34:56Z"]. *)
let now_utc () =
  let tm = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

(** [write path ~jobs outcomes] stamps and writes the document. *)
let write path ~jobs outcomes =
  Json.write_file path
    (make ~commit:(current_commit ()) ~date:(now_utc ()) ~jobs outcomes)
