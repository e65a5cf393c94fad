(** The rule runner and its three consumers: the driver's typed-error
    gate, the [balign lint] renderers, and DOT annotations. *)

type report = {
  diags : Diagnostic.t list;  (** every finding, in catalogue order *)
  errors : int;
  warnings : int;
  infos : int;
}

(** Run the whole {!Rules.all} catalogue and tally findings into the
    [lint.*] metrics counters. *)
val run : Rules.ctx -> report

(** [analyze ?profile cfgs] is {!run} on a context. *)
val analyze :
  ?profile:Ba_profile.Profile.t -> Ba_cfg.Cfg.t array -> report

(** Map one finding to the typed error of its violation (rule families
    map to [Invalid_cfg] / [Invalid_profile] / [Profile_mismatch]). *)
val to_error : Diagnostic.t -> Ba_robust.Errors.t

(** First finding that gates: the first Error — with [strict], the
    first Error-or-Warning — in catalogue order. *)
val first_gating : ?strict:bool -> report -> Diagnostic.t option

(** [gate ?strict ?profile cfgs] is [Ok ()] when no finding gates,
    otherwise the first gating finding via {!to_error}. *)
val gate :
  ?strict:bool -> ?profile:Ba_profile.Profile.t -> Ba_cfg.Cfg.t array ->
  (unit, Ba_robust.Errors.t) result

(** One line per finding plus a tally line. *)
val pp_report : Format.formatter -> report -> unit

(** JSON document for [balign lint --format json] (schema
    ["balign-lint-1"], see docs/ANALYSIS.md). *)
val report_json : report -> Ba_obs.Json.t

(** SARIF 2.1.0 log for [balign lint --format sarif]: one run, the full
    rule catalogue as tool metadata, one result per finding with
    logical (procedure/block/edge) locations. *)
val sarif_json : report -> Ba_obs.Json.t

(** [(block_attr, edge_attr)] hooks for {!Ba_cfg.Dot.emit}: blocks and
    edges with findings in procedure [proc] are colored by worst
    severity, rule ids in the tooltip. *)
val dot_annotations :
  proc:int ->
  Diagnostic.t list ->
  (Ba_cfg.Block.label -> string option)
  * (Ba_cfg.Block.label -> Ba_cfg.Block.label -> string option)
