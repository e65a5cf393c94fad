(** The rule runner: evaluates the {!Rules} catalogue over a program,
    tallies findings into the {!Ba_obs.Metrics} registry, and exposes
    the three consumers of a lint report:

    - {!gate}: the typed-error bridge used by the alignment driver — the
      first Error finding (in catalogue order) becomes the matching
      {!Ba_robust.Errors.t} so lint failures flow through the same exit
      codes and rendering as the rest of the pipeline;
    - {!report_json} / {!pp_report}: the [balign lint] output formats;
    - {!dot_annotations}: colors findings onto {!Ba_cfg.Dot} exports. *)

module Profile = Ba_profile.Profile
module Errors = Ba_robust.Errors
module Metrics = Ba_obs.Metrics
module Json = Ba_obs.Json
module D = Diagnostic

type report = {
  diags : D.t list;  (** every finding, in catalogue order *)
  errors : int;
  warnings : int;
  infos : int;
}

(** Run the whole catalogue over the program and tally findings into
    the lint.* metrics counters. *)
let run (ctx : Rules.ctx) : report =
  let diags = List.concat_map (fun r -> r.Rules.run ctx) Rules.all in
  let errors, warnings, infos = D.count diags in
  Metrics.incr ~n:errors Metrics.Lint_errors;
  Metrics.incr ~n:warnings Metrics.Lint_warnings;
  Metrics.incr ~n:infos Metrics.Lint_infos;
  { diags; errors; warnings; infos }

let analyze ?profile cfgs = run { Rules.cfgs; profile }

(* ------------------------------------------------------------------ *)
(* typed-error bridge                                                  *)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(** Map one finding to the typed error of its violation, so lint
    failures match (tests, exit codes, fault expectations) like every
    other typed error. *)
let to_error (d : D.t) : Errors.t =
  let datum k = Option.value ~default:0 (List.assoc_opt k d.D.data) in
  match d.D.rule with
  | "prof-proc-count" ->
      Errors.Profile_mismatch
        {
          proc = None;
          expected = datum "expected";
          got = datum "got";
          what = "procedures";
        }
  | "prof-block-count" ->
      Errors.Profile_mismatch
        {
          proc = d.D.loc.D.proc;
          expected = datum "expected";
          got = datum "got";
          what = "blocks";
        }
  | r when starts_with ~prefix:"cfg-" r || starts_with ~prefix:"ana-" r ->
      Errors.Invalid_cfg
        {
          proc = d.D.loc.D.proc;
          name = d.D.loc.D.proc_name;
          reason = d.D.message;
        }
  | _ ->
      let src, dst =
        match d.D.loc.D.edge with
        | Some (s, t) -> (Some s, Some t)
        | None -> (None, None)
      in
      Errors.Invalid_profile
        { proc = d.D.loc.D.proc; src; dst; reason = d.D.message }

(** First finding that gates: the first Error, or with [strict] the
    first Error-or-Warning, in catalogue order. *)
let first_gating ?(strict = false) (r : report) =
  let floor = if strict then D.Warning else D.Error in
  List.find_opt (fun d -> D.severity_geq d.D.severity floor) r.diags

(** [gate ?strict ?profile cfgs] is the driver's validation front door:
    [Ok ()] when no finding gates, otherwise the first gating finding
    converted by {!to_error}. *)
let gate ?strict ?profile cfgs =
  let r = analyze ?profile cfgs in
  match first_gating ?strict r with
  | None -> Ok ()
  | Some d -> Error (to_error d)

(* ------------------------------------------------------------------ *)
(* rendering                                                           *)

(** One line per finding plus a tally line; empty reports render a
    single "clean" line so cram output is stable. *)
let pp_report ppf (r : report) =
  List.iter (fun d -> Fmt.pf ppf "%a@." D.pp d) r.diags;
  Fmt.pf ppf "lint: %d error(s), %d warning(s), %d info(s)@." r.errors
    r.warnings r.infos

(** JSON document for [balign lint --format json]; schema documented in
    docs/ANALYSIS.md and validated by [test/tools/check_lint.exe]. *)
let report_json (r : report) : Json.t =
  Json.Obj
    [
      ("schema", Json.String "balign-lint-1");
      ("errors", Json.Int r.errors);
      ("warnings", Json.Int r.warnings);
      ("infos", Json.Int r.infos);
      ("findings", Json.List (List.map D.to_json r.diags));
    ]

(** SARIF 2.1.0 log for [balign lint --format sarif].  One run, the
    whole rule catalogue as the tool's rule metadata, one result per
    finding.  Severities map Error/Warning/Info -> error/warning/note;
    locations are logical (procedure/block), since minic programs have
    no stable physical coordinates. *)
let sarif_level = function
  | D.Error -> "error"
  | D.Warning -> "warning"
  | D.Info -> "note"

let sarif_rule (r : Rules.rule) =
  Json.Obj
    [
      ("id", Json.String r.Rules.id);
      ( "shortDescription",
        Json.Obj [ ("text", Json.String r.Rules.code) ] );
      ( "fullDescription",
        Json.Obj [ ("text", Json.String r.Rules.doc) ] );
      ( "defaultConfiguration",
        Json.Obj [ ("level", Json.String (sarif_level r.Rules.severity)) ] );
    ]

let sarif_result (d : D.t) =
  let logical =
    let name what = function
      | None -> []
      | Some v -> [ (what, Printf.sprintf "%s %s" what v) ]
    in
    name "procedure" d.D.loc.D.proc_name
    @ name "block" (Option.map string_of_int d.D.loc.D.block)
    @ name "edge"
        (Option.map
           (fun (s, t) -> Printf.sprintf "%d->%d" s t)
           d.D.loc.D.edge)
  in
  let message =
    match d.D.hint with
    | None -> d.D.message
    | Some h -> d.D.message ^ " (hint: " ^ h ^ ")"
  in
  Json.Obj
    ([
       ("ruleId", Json.String d.D.rule);
       ("level", Json.String (sarif_level d.D.severity));
       ("message", Json.Obj [ ("text", Json.String message) ]);
     ]
    @
    if logical = [] then []
    else
      [
        ( "locations",
          Json.List
            [
              Json.Obj
                [
                  ( "logicalLocations",
                    Json.List
                      (List.map
                         (fun (kind, fqn) ->
                           Json.Obj
                             [
                               ("kind", Json.String kind);
                               ("fullyQualifiedName", Json.String fqn);
                             ])
                         logical) );
                ];
            ] );
      ])

let sarif_json (r : report) : Json.t =
  Json.Obj
    [
      ( "$schema",
        Json.String
          "https://json.schemastore.org/sarif-2.1.0.json" );
      ("version", Json.String "2.1.0");
      ( "runs",
        Json.List
          [
            Json.Obj
              [
                ( "tool",
                  Json.Obj
                    [
                      ( "driver",
                        Json.Obj
                          [
                            ("name", Json.String "balign-lint");
                            ( "rules",
                              Json.List (List.map sarif_rule Rules.all) );
                          ] );
                    ] );
                ("results", Json.List (List.map sarif_result r.diags));
              ];
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* DOT annotations                                                     *)

let severity_colors = function
  | D.Error -> ("#b22222", "#f8d7d7")
  | D.Warning -> ("#b8860b", "#fdf0ce")
  | D.Info -> ("#4169aa", "#dfe8f6")

let worst = List.fold_left (fun acc d -> if D.severity_geq d.D.severity acc then d.D.severity else acc)

let rule_tooltip ds =
  List.map (fun d -> d.D.code ^ " " ^ d.D.rule) ds
  |> List.sort_uniq compare |> String.concat ", "

(** [dot_annotations ~proc diags] are [(block_attr, edge_attr)] hooks
    for {!Ba_cfg.Dot.emit}: blocks and edges with findings in procedure
    [proc] are filled/colored by worst severity and carry the rule ids
    as a tooltip. *)
let dot_annotations ~proc (diags : D.t list) =
  let here = List.filter (fun d -> d.D.loc.D.proc = Some proc) diags in
  let block_attr l =
    match
      List.filter
        (fun d -> d.D.loc.D.block = Some l && d.D.loc.D.edge = None)
        here
    with
    | [] -> None
    | ds ->
        let border, fill = severity_colors (worst D.Info ds) in
        Some
          (Printf.sprintf
             "style=filled fillcolor=\"%s\" color=\"%s\" tooltip=\"%s\"" fill
             border (rule_tooltip ds))
  in
  let edge_attr src dst =
    match
      List.filter (fun d -> d.D.loc.D.edge = Some (src, dst)) here
    with
    | [] -> None
    | ds ->
        let border, _ = severity_colors (worst D.Info ds) in
        Some
          (Printf.sprintf "color=\"%s\" penwidth=2.0 tooltip=\"%s\"" border
             (rule_tooltip ds))
  in
  (block_attr, edge_attr)
