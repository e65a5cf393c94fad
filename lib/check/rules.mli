(** The lint rule catalogue: ~20 rules over CFGs and profiles, each
    total (never raises, even on forged inputs) and independent.  See
    docs/ANALYSIS.md for the rendered catalogue. *)

(** What the rules look at.  CFG-only lint (no profile collected)
    skips the profile rules. *)
type ctx = { cfgs : Ba_cfg.Cfg.t array; profile : Ba_profile.Profile.t option }

type rule = {
  id : string;  (** stable kebab-case rule id, e.g. ["cfg-unreachable"] *)
  code : string;  (** stable short code ("BA1xx" CFG, "BA2xx" profile) *)
  severity : Diagnostic.severity;
  doc : string;  (** one-line rationale *)
  run : ctx -> Diagnostic.t list;
}

(** The catalogue in gating order: CFG shape errors, CFG hygiene
    warnings, profile shape errors, profile hygiene warnings and
    coverage infos.  {!Lint.gate} reports the first Error in this
    order. *)
val all : rule list

val by_id : string -> rule option
