(** Lower bounds on the achievable control penalty of a procedure.

    The paper's analysis tool: the Held–Karp bound of the (symmetrized)
    DTSP instance lower-bounds every possible layout's penalty, so the
    gap between an aligner's result and this bound certifies
    near-optimality without knowing the optimum.  The assignment-problem
    bound and the exact optimum (small instances only) support the
    appendix experiment. *)

open Ba_cfg
open Ba_tsp
module Profile = Ba_profile.Profile

(** [held_karp ?config m cfg ~profile ~upper] is a valid lower bound on
    the control penalty of {e any} layout of [cfg] under [profile].
    [upper] is the penalty of any known layout (step scaling only).
    Clamped at 0 since penalties are non-negative. *)
let held_karp ?config (m : Ba_machine.Model.t) (cfg : Cfg.t)
    ~(profile : Profile.proc) ~(upper : int) : int =
  let inst = Reduction.build m cfg ~profile in
  if inst.Reduction.dtsp.Dtsp.n <= Exact.max_n then
    (* small instances: the exact optimum is the perfect bound *)
    snd (Exact.solve inst.Reduction.dtsp)
  else
    max 0 (Held_karp.directed_bound ?config inst.Reduction.dtsp ~upper_bound:upper)

(** [ap p cfg ~profile] is the assignment-problem lower bound of the
    procedure's DTSP instance (appendix experiment). *)
let ap (m : Ba_machine.Model.t) (cfg : Cfg.t) ~(profile : Profile.proc) : int
    =
  let inst = Reduction.build m cfg ~profile in
  max 0 (Hungarian.ap_bound inst.Reduction.dtsp)

(** [exact p cfg ~profile] is the proven minimum control penalty, when
    the instance is small enough for the DP ([None] otherwise). *)
let exact (m : Ba_machine.Model.t) (cfg : Cfg.t) ~(profile : Profile.proc) :
    int option =
  let inst = Reduction.build m cfg ~profile in
  if inst.Reduction.dtsp.Dtsp.n <= Exact.max_n then
    Some (snd (Exact.solve inst.Reduction.dtsp))
  else None
