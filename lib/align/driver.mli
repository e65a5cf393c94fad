(** Whole-program alignment driver: pick a layout per procedure, realize
    against the training profile, evaluate analytically or simulate on
    the full machine model.

    One alignment path: {!align_proc} is the only per-method dispatch
    and {!align_checked} the only whole-program fan-out; {!align} is
    {!align_checked} without fallbacks.  Per-procedure work is expressed
    as {!Ba_engine.Task} values run under a pluggable
    {!Ba_engine.Executor} — [Seq] by default, or a fixed OCaml 5 domain
    pool — with output bit-identical at any job count (deterministic
    merge by procedure index, per-task RNGs; see
    docs/ARCHITECTURE.md). *)

open Ba_cfg
open Ba_machine
module Profile = Ba_profile.Profile

(** Alignment method. *)
type method_ =
  | Original  (** keep the front end's block order *)
  | Greedy  (** Pettis–Hansen frequency-greedy *)
  | Calder  (** Calder–Grunwald cost-model greedy *)
  | Calder_exhaustive  (** … with the bounded exhaustive prefix search *)
  | Btfnt  (** chain-greedy for BTFNT-class machines (footnote 3) *)
  | Tsp of Tsp_align.config  (** the paper's DTSP-based aligner *)

val method_name : method_ -> string

(** The pipeline seed per-task RNGs are derived from (the solver seed
    for TSP, 0 for the deterministic methods). *)
val method_seed : method_ -> int

(** A fully aligned and realized program. *)
type aligned = {
  cfgs : Cfg.t array;
  orders : Layout.order array;
  realized : Layout.realized array;
  predicted : int option array array;  (** static predictions (training) *)
  addr : Addr.t;  (** code addresses under this layout *)
  method_ : method_;
}

(** Lay out one procedure with one method: the only per-method dispatch.

    - [rng] is the enclosing task's stream; only the TSP solver draws
      from it.
    - [initial] is a warm start for the TSP solver's run 0; the other
      methods ignore it.
    - [budget] defaults to unlimited.  A TSP config's own
      [solver.deadline_ms], if any, still applies: the solve stops at
      the earlier of [budget]'s deadline and that many milliseconds
      after it starts ({!Ba_robust.Budget.within}).  The search methods (TSP, Calder,
      Calder_exhaustive, Btfnt) return [Error (Solver_timeout _)] on an
      exhausted budget without starting, and a TSP solve the budget cut
      short ([degraded]) is an [Error] too.  Greedy and Original always
      run.
    - Never raises: an exception escaping a method is returned as its
      typed error.  The [proc] of a [Solver_timeout] is [None]; the
      caller knows the procedure index. *)
val align_proc :
  ?rng:Random.State.t ->
  ?initial:Layout.order ->
  ?budget:Ba_robust.Budget.t ->
  method_ ->
  Model.t ->
  Cfg.t ->
  profile:Profile.proc ->
  (Layout.order, Ba_robust.Errors.t) result

(** Align a whole program: {!align_checked} with [~fallback:false],
    as a plain value.  The program has passed the lint gate and every
    realized layout {!Ba_cfg.Layout.check_semantics}; the result does
    not depend on [executor] (default [Seq]).
    @raise Ba_robust.Errors.Error with the error [align_checked]
    returns (a gate finding, a failed method, an unfaithful layout). *)
val align :
  ?executor:Ba_engine.Executor.t ->
  method_ ->
  Model.t ->
  Cfg.t array ->
  train:Ba_profile.Profile.t ->
  aligned

(** {!align} for orders already chosen by the given method: realize
    each procedure's order against the training profile. *)
val realize :
  method_ ->
  Model.t ->
  Cfg.t array ->
  Layout.order array ->
  train:Ba_profile.Profile.t ->
  aligned

(** Modelled control penalty on the [test] workload's profile, on the
    model's physical penalties. *)
val analytic_penalty : Model.t -> aligned -> test:Ba_profile.Profile.t -> int

(** Scaled Ext-TSP score of the aligned program on the [test] profile
    (higher is better), from the byte-accurate addresses of the realized
    layout.  Defined for layouts produced under any model — the bench
    reports it next to the Alpha penalty for every aligner.  [params]
    defaults to {!Ba_machine.Model.default_ext_tsp}; pass
    [Model.ext_tsp_params model] to score under a model's own window. *)
val ext_tsp_score :
  ?params:Model.ext_tsp -> aligned -> test:Ba_profile.Profile.t -> int

(** Replay an execution through the full machine model ([run] feeds
    trace events into the provided sink). *)
val simulate :
  Model.t ->
  aligned ->
  run:(Trace.sink -> unit) ->
  Cycles.result

(** Verify every realized layout is semantically faithful to its CFG. *)
val check : aligned -> (unit, string) result

(** {1 Checked alignment: validation, budgets, graceful degradation} *)

(** One procedure that was degraded to a cheaper method. *)
type fallback = {
  proc : int;
  proc_name : string;
  requested : method_;
  used : method_;
  reason : Ba_robust.Errors.t;
}

(** A checked alignment plus the record of every degradation. *)
type report = { aligned : aligned; fallbacks : fallback list }

val pp_fallback : Format.formatter -> fallback -> unit

(** The deterministic degradation chain of a method (most capable
    first): TSP → Calder → Greedy → Original. *)
val chain : method_ -> method_ list

(** [align_checked ?executor ?deadline_ms ?fallback m model cfgs ~train]
    validates the CFGs and the profile, then lays out every procedure
    under a shared wall-clock budget, degrading deterministically along
    {!chain} when a method times out, fails, or produces an unfaithful
    layout.  It is the only whole-program fan-out: one task per
    procedure runs {!align_proc} along the chain.  Degradation is
    per-task: one procedure falling back never degrades its siblings.
    With [fallback:false] the first degradation (lowest procedure
    index) is returned as an error.  Never raises; every returned
    layout passes {!Ba_cfg.Layout.check_semantics}.

    The returned value is independent of the executor whenever the
    budget does not expire mid-run (unlimited or already-exhausted
    budgets; see docs/ARCHITECTURE.md).

    [warm_start], when given, supplies a previous layout per procedure
    index to seed the TSP solver's run 0 (the serve cache's
    incremental re-alignment hook); deterministic methods and fallback
    attempts ignore it, and invalid orders are discarded rather than
    trusted. *)
val align_checked :
  ?executor:Ba_engine.Executor.t ->
  ?deadline_ms:int ->
  ?fallback:bool ->
  ?warm_start:(int -> Ba_cfg.Layout.order option) ->
  method_ ->
  Model.t ->
  Cfg.t array ->
  train:Ba_profile.Profile.t ->
  (report, Ba_robust.Errors.t) result
