(** Whole-program alignment driver.

    Ties everything together for a program of several procedures: pick a
    layout per procedure with the chosen method, realize the layouts
    against the training profile, and expose analytic evaluation and
    full-machine simulation (penalties + I-cache + cycles) against any
    testing workload.

    There is one alignment path.  {!align_proc} is the only per-method
    dispatch, and {!align_checked} the only whole-program fan-out: after
    the lint gate, every procedure (an independent DTSP instance)
    becomes one {!Ba_engine.Task} that runs {!align_proc} along the
    method's fallback {!chain}, over a pluggable {!Ba_engine.Executor}
    — sequential by default, or a fixed OCaml 5 domain pool.  {!align}
    is that path without fallbacks, raising what it would return as an
    error.  Each task owns its RNG (derived from the solver seed and
    the procedure index) and mutates nothing shared, so the aligned
    program is bit-identical at any job count (see
    docs/ARCHITECTURE.md for the exact invariants). *)

open Ba_cfg
open Ba_machine
module Profile = Ba_profile.Profile
module Executor = Ba_engine.Executor
module Task = Ba_engine.Task
module Errors = Ba_robust.Errors
module Budget = Ba_robust.Budget

(** Alignment method. *)
type method_ =
  | Original  (** keep the front end's block order *)
  | Greedy  (** Pettis–Hansen frequency-greedy *)
  | Calder  (** Calder–Grunwald cost-model greedy *)
  | Calder_exhaustive  (** … with the bounded exhaustive prefix search *)
  | Btfnt  (** chain-greedy for BTFNT-class machines (footnote 3) *)
  | Tsp of Tsp_align.config  (** the paper's DTSP-based aligner *)

let method_name = function
  | Original -> "original"
  | Greedy -> "greedy"
  | Calder -> "calder"
  | Calder_exhaustive -> "calder-exhaustive"
  | Btfnt -> "btfnt"
  | Tsp _ -> "tsp"

let method_of_string = function
  | "original" -> Some Original
  | "greedy" -> Some Greedy
  | "calder" -> Some Calder
  | "calder-exhaustive" -> Some Calder_exhaustive
  | "btfnt" -> Some Btfnt
  | "tsp" -> Some (Tsp Tsp_align.default)
  | _ -> None

(** The pipeline seed tasks derive their RNGs from: the solver seed for
    TSP runs (the only randomized method), 0 otherwise. *)
let method_seed = function
  | Tsp config -> config.Tsp_align.solver.Ba_tsp.Iterated.seed
  | Original | Greedy | Calder | Calder_exhaustive | Btfnt -> 0

(** A fully aligned and realized program. *)
type aligned = {
  cfgs : Cfg.t array;
  orders : Layout.order array;
  realized : Layout.realized array;
  predicted : int option array array;  (** static predictions, from training *)
  addr : Addr.t;  (** code addresses under this layout *)
  method_ : method_;
}

(** [align_proc ?rng ?initial ?budget method_ model cfg ~profile] lays
    out one procedure.  [rng] is the enclosing task's stream; only the
    TSP solver draws from it, and only TSP reads [initial] (a warm
    start).  The search methods (TSP, the Calder variants, Btfnt)
    refuse to start on an exhausted [budget] (default: unlimited), and
    a TSP solve the budget cut short is an error.  Greedy and Original
    always run.  Exceptions come back as [Error]. *)
let align_proc ?rng ?initial ?budget (m : method_) (model : Model.t)
    (cfg : Cfg.t) ~(profile : Profile.proc) : (Layout.order, Errors.t) result
    =
  let guard f =
    match budget with
    | Some b when Budget.exhausted b -> Error (Budget.timeout_error b)
    | _ -> Errors.catch ~where:(method_name m) f
  in
  match m with
  | Original -> Ok (Layout.identity cfg)
  | Greedy -> Errors.catch ~where:"greedy" (fun () -> Greedy.align cfg ~profile)
  | Calder -> guard (fun () -> Calder.align model cfg ~profile)
  | Calder_exhaustive ->
      guard (fun () -> Calder.align_exhaustive model cfg ~profile)
  | Btfnt -> guard (fun () -> Btfnt.align model cfg ~profile)
  | Tsp config -> (
      match
        Errors.catch ~where:"tsp" (fun () ->
            Tsp_align.align ~config ?rng ?budget ?initial model cfg ~profile)
      with
      | Error e -> Error e
      | Ok { Tsp_align.degraded = Some e; _ } -> Error e
      | Ok r -> Ok r.Tsp_align.order)

(** Merge per-procedure task values (already in procedure order) and
    assemble the program: addresses are laid out sequentially because
    each procedure's base depends on every predecessor's size. *)
let assemble (m : method_) (cfgs : Cfg.t array) parts : aligned =
  let orders = Array.map (fun (o, _, _) -> o) parts in
  let realized = Array.map (fun (_, r, _) -> r) parts in
  let predicted = Array.map (fun (_, _, p) -> p) parts in
  let addr = Addr.build (Array.map2 (fun g r -> (g, r)) cfgs realized) in
  { cfgs; orders; realized; predicted; addr; method_ = m }

(** [realize m model cfgs orders ~train] is {!align} for layouts
    already chosen by method [m]: realize each procedure's order against
    the training profile and assemble the program. *)
let realize (m : method_) (model : Model.t) (cfgs : Cfg.t array)
    (orders : Layout.order array) ~(train : Ba_profile.Profile.t) : aligned =
  assemble m cfgs
    (Array.mapi
       (fun fid cfg ->
         let order = orders.(fid) in
         let r, pred =
           Evaluate.realize model cfg ~order ~train:(Profile.proc train fid)
         in
         (order, r, pred))
       cfgs)

(** [analytic_penalty model a ~test] is the modelled control penalty of
    the aligned program when executed on the [test] workload's profile,
    on the model's physical penalties. *)
let analytic_penalty (model : Model.t) (a : aligned)
    ~(test : Ba_profile.Profile.t) : int =
  let p = model.Model.penalties in
  let total = ref 0 in
  Array.iteri
    (fun fid cfg ->
      let t = Profile.proc test fid in
      Cfg.iter
        (fun b ->
          let l = b.Block.id in
          total :=
            !total
            + Cost.rterm_cost p a.realized.(fid).Layout.terms.(l)
                ~predicted:a.predicted.(fid).(l)
                ~freqs:(Profile.block_freqs t l))
        cfg)
    a.cfgs;
  !total

(** [ext_tsp_score ?params a ~test] is the scaled Ext-TSP score of the
    aligned program on the [test] workload's profile — higher is better.
    Computed from the byte-accurate addresses of the realized layout
    ({!Ba_machine.Model.score_proc}); defined for layouts produced under
    {e any} model, which is how the bench reports both objectives side
    by side. *)
let ext_tsp_score ?(params = Model.default_ext_tsp) (a : aligned)
    ~(test : Ba_profile.Profile.t) : int =
  let total = ref 0 in
  Array.iteri
    (fun fid _cfg ->
      let t = Profile.proc test fid in
      total :=
        !total
        + Model.score_proc params ~proc:a.addr.Addr.procs.(fid)
            ~realized:a.realized.(fid)
            ~freqs:(fun l -> Profile.block_freqs t l))
    a.cfgs;
  !total

(** [simulate model a ~run] replays an execution (the
    [run] callback feeds trace events into the provided sink) through
    the full machine model and returns the cycle breakdown. *)
let simulate (model : Model.t) (a : aligned)
    ~(run : Trace.sink -> unit) : Cycles.result =
  let ctxs =
    Array.mapi
      (fun fid r -> Pipeline.ctx_of_realized r ~predicted:a.predicted.(fid))
      a.realized
  in
  let sink, result =
    Cycles.make_sink model ~cfgs:a.cfgs ~ctxs ~addr:a.addr
  in
  run sink;
  result ()

(** [check a] verifies that every realized layout is semantically
    faithful to its CFG. *)
let check (a : aligned) =
  let err = ref None in
  Array.iteri
    (fun fid cfg ->
      match Layout.check_semantics cfg a.realized.(fid) with
      | Ok () -> ()
      | Error m ->
          if !err = None then
            err := Some (Printf.sprintf "procedure %d (%s): %s" fid cfg.Cfg.name m))
    a.cfgs;
  match !err with None -> Ok () | Some m -> Error m

(* ------------------------------------------------------------------ *)
(* Checked alignment: validation, budgets and graceful degradation.    *)

(** One procedure that could not be aligned with the requested method and
    was degraded to a cheaper one. *)
type fallback = {
  proc : int;
  proc_name : string;
  requested : method_;
  used : method_;
  reason : Errors.t;  (** why the first method in the chain gave up *)
}

(** A checked alignment: the program plus a record of every degradation
    that happened on the way. *)
type report = { aligned : aligned; fallbacks : fallback list }

let pp_fallback ppf f =
  Fmt.pf ppf "procedure %d (%s): %s -> %s: %a" f.proc f.proc_name
    (method_name f.requested) (method_name f.used) Errors.pp f.reason

(** The deterministic degradation chain of a method, most capable first.
    Greedy is the designated cheap safety net — it runs even on an
    exhausted budget — and Original (the identity layout) can only fail
    if the CFG itself is broken, which validation rules out. *)
let chain = function
  | Tsp config -> [ Tsp config; Calder; Greedy; Original ]
  | Calder_exhaustive -> [ Calder_exhaustive; Calder; Greedy; Original ]
  | Calder -> [ Calder; Greedy; Original ]
  | Btfnt -> [ Btfnt; Greedy; Original ]
  | Greedy -> [ Greedy; Original ]
  | Original -> [ Original ]

(** [align_checked ?executor ?deadline_ms ?fallback m p cfgs ~train] is
    the production entry point: validate the CFGs and the profile, then
    lay out every procedure under a shared wall-clock budget, degrading
    deterministically along {!chain} when a method times out, fails or
    produces a semantically unfaithful layout.  Degradation is
    {e per-task}: one procedure falling back never aborts or degrades
    its siblings.  With [fallback] off (default on), the first
    degradation (lowest procedure index) is returned as an error
    instead.  Never raises.

    Under [executor = Pool _] all procedures are attempted even when an
    early one fails; the reported error is still the lowest-index one,
    so the returned value matches the sequential run whenever the
    budget does not expire mid-run (see docs/ARCHITECTURE.md). *)
let align_checked ?(executor = Executor.Seq) ?deadline_ms ?(fallback = true)
    ?(warm_start = fun _ -> None) (m : method_) (model : Model.t)
    (cfgs : Cfg.t array) ~(train : Ba_profile.Profile.t) :
    (report, Errors.t) result =
  let ( let* ) = Result.bind in
  (* validation is the lint gate: the ba_check rule catalogue runs over
     the CFGs and the profile, and the first Error finding (in
     catalogue order: CFG shape, then profile shape, then edges) is
     routed into the typed-error pipeline *)
  let* () = Ba_check.Lint.gate ~profile:train cfgs in
  let budget = Budget.create ?deadline_ms () in
  (* one method on one procedure: solve, then realize and check *)
  let attempt ctx fid cfg profile m' =
    let* order =
      Task.staged ctx Task.Solve (fun () ->
          (* warm starts only make sense for the search method; the
             deterministic fallbacks ignore them *)
          let initial = match m' with Tsp _ -> warm_start fid | _ -> None in
          match
            align_proc ~rng:(Task.rng ctx) ?initial ~budget m' model cfg
              ~profile
          with
          | Error (Errors.Solver_timeout t) ->
              Error (Errors.Solver_timeout { t with proc = Some fid })
          | r -> r)
    in
    Task.staged ctx Task.Verify (fun () ->
        let* r, pred =
          Errors.catch ~where:"realize" (fun () ->
              Evaluate.realize model cfg ~order ~train:profile)
        in
        match Layout.check_semantics cfg r with
        | Ok () -> Ok (order, r, pred)
        | Error reason ->
            Error
              (Errors.Invalid_layout
                 { proc = Some fid; name = Some cfg.Cfg.name; reason }))
  in
  (* one task per procedure; the whole fallback chain runs inside the
     task, so degradation is per-procedure and never global.  [reason]
     is why the requested method (the head of the chain) gave up. *)
  let align_one ctx fid cfg =
    let profile = Profile.proc train fid in
    let rec go reason = function
      | [] -> Error (Option.get reason) (* chain m is never empty *)
      | m' :: rest -> (
          match attempt ctx fid cfg profile m' with
          | Ok part ->
              let fb =
                Option.map
                  (fun reason ->
                    {
                      proc = fid;
                      proc_name = cfg.Cfg.name;
                      requested = m;
                      used = m';
                      reason;
                    })
                  reason
              in
              Ok (part, fb)
          | Error e when not fallback -> Error e
          | Error e ->
              go (if Option.is_none reason then Some e else reason) rest)
    in
    go None (chain m)
  in
  let outcomes =
    Task.run_all ~seed:(method_seed m) executor
      (Array.mapi
         (fun fid cfg ->
           Task.make ~id:fid ~label:cfg.Cfg.name (fun ctx ->
               align_one ctx fid cfg))
         cfgs)
  in
  (* deterministic merge: procedure order; the first error by index is
     the one a sequential run would have stopped at *)
  let* parts =
    Array.fold_right
      (fun o acc ->
        let* part = o.Task.value in
        let* acc = acc in
        Ok (part :: acc))
      outcomes (Ok [])
  in
  let* aligned =
    Errors.catch ~where:"addr" (fun () ->
        assemble m cfgs (Array.of_list (List.map fst parts)))
  in
  let fallbacks = List.filter_map snd parts in
  (* observability: one fallback-transition event per degraded
     procedure, counted after the deterministic merge *)
  Ba_obs.Metrics.incr ~n:(List.length fallbacks) Ba_obs.Metrics.Fallbacks;
  Ok { aligned; fallbacks }

(** [align ?executor m model cfgs ~train] is {!align_checked} without
    fallbacks, for callers that want the program or an exception: the
    aligned program, or [Errors.Error e] raised with the error
    [align_checked ~fallback:false] returns. *)
let align ?executor (m : method_) (model : Model.t) (cfgs : Cfg.t array)
    ~(train : Ba_profile.Profile.t) : aligned =
  match align_checked ?executor ~fallback:false m model cfgs ~train with
  | Ok r -> r.aligned
  | Error e -> raise (Errors.Error e)
