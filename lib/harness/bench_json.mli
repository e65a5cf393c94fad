(** Machine-readable bench trajectory ([balign bench --json FILE]):
    [{commit, date, model, rows: [{bench, dataset, penalty_cycles,
    hk_gap, objectives, wall_ms, p50_ms, p95_ms, jobs, certs,
    cert_failures}]}] where [objectives] carries both cost objectives
    (control-penalty cycles and the Ext-TSP locality score) for every
    self-trained aligner (tsp, calder, greedy, btfnt) and the two
    static-estimate-trained layouts (tsp_static, greedy_static), each
    priced on the row's testing profile when the document is built.
    {!make} is pure so tests can golden-check the deterministic
    slice. *)

(** [make ~commit ~date ~jobs outcomes] builds the document; pure.  Its
    [model] is the cost model the rows were measured under
    ([row.config.model]). *)
val make :
  commit:string ->
  date:string ->
  jobs:int ->
  Runner.row Ba_engine.Task.outcome list ->
  Ba_obs.Json.t

(** Best-effort current commit id: [$BALIGN_COMMIT] if set (CI), else
    [git rev-parse HEAD], else ["unknown"]. *)
val current_commit : unit -> string

(** Current time as ISO-8601 UTC, e.g. ["2026-08-06T12:34:56Z"]. *)
val now_utc : unit -> string

(** [write path ~jobs outcomes] stamps and writes the document. *)
val write :
  string ->
  jobs:int ->
  Runner.row Ba_engine.Task.outcome list ->
  unit
