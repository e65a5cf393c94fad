(** CSV export of the experiment results, for external plotting, and
    the text archive of the report. *)

(** Full measurement set, one line per benchmark/data-set pair.
    Deterministic: no wall-clock columns, diffs clean across job
    counts. *)
val rows_csv : Runner.row list -> string list

(** Per-stage seconds plus the per-procedure TSP solve-time
    distribution (p50/p95/max).  Run-dependent by nature; kept out of
    {!rows_csv} so determinism checks can diff that alone. *)
val timing_csv : Runner.row list -> string list

(** Per-instance bound study. *)
val appendix_csv : Appendix.stats -> string list

(** Write the committed results under [dir]: spec92.csv, spec95.csv,
    appendix.csv and report.txt (the text [report] prints); returns the
    paths written. *)
val export :
  dir:string ->
  rows:Runner.row list ->
  rows95:Runner.row list ->
  appendix:Appendix.stats ->
  report:(Format.formatter -> unit) ->
  string list

(** Write the run-dependent timing CSVs under [dir]; returns the paths
    written. *)
val export_timings :
  dir:string -> rows:Runner.row list -> rows95:Runner.row list -> string list
