(** Per-procedure alignment tasks.

    A task is one pure, re-entrant unit of pipeline work — for the
    aligner, "build the reduction → solve → realize → verify" for a
    single procedure — identified by the index it will be merged back
    under.  Each task gets:

    - its own {!Random.State}, derived from the pipeline seed and the
      task id only (never from scheduling), so randomized stages make
      the same draws no matter which domain runs them or in what order;
    - a stage clock that accumulates {!Ba_obs.Mono} seconds into a
      {e task-local} record, returned in the task's {!outcome} — tasks
      never write shared timing state, the caller merges after the
      join.

    Tasks must not mutate anything reachable from another task; under
    that contract {!run_all} produces identical outcomes (modulo the
    measured seconds) on every {!Executor.t}. *)

(** Pipeline stages a task may charge time to, mirroring the classic
    per-procedure aligner pipeline. *)
type stage = Build | Solve | Realize | Verify

(** Seconds spent per stage, immutable; one value per task. *)
type stages = {
  build_s : float;  (** reduction / instance construction *)
  solve_s : float;  (** the search itself *)
  realize_s : float;  (** tour/order → realized layout *)
  verify_s : float;  (** semantic checks on the result *)
}

let no_stages = { build_s = 0.; solve_s = 0.; realize_s = 0.; verify_s = 0. }

(** Pure merge of two stage records (used index-order after the join). *)
let add_stages a b =
  {
    build_s = a.build_s +. b.build_s;
    solve_s = a.solve_s +. b.solve_s;
    realize_s = a.realize_s +. b.realize_s;
    verify_s = a.verify_s +. b.verify_s;
  }

let sum_stages l = List.fold_left add_stages no_stages l

(* ------------------------------------------------------------------ *)

(** The per-task execution context: the seeded RNG, the task-local
    stage clock, and the task's span buffer (single-writer; disabled —
    a no-op — unless tracing is on, see {!Ba_obs.Trace}). *)
type ctx = {
  rng : Random.State.t;
  mutable acc : stages;  (** task-local; never shared across tasks *)
  span_buf : Ba_obs.Span.buf;  (** task-local, lock-free by ownership *)
}

let rng ctx = ctx.rng
let spans ctx = ctx.span_buf

let stage_name = function
  | Build -> "build"
  | Solve -> "solve"
  | Realize -> "realize"
  | Verify -> "verify"

(** [staged ctx stage f] runs [f ()] charging its elapsed Mono time to
    [stage] in the task-local record, and — when tracing is enabled —
    recording one span named after the stage. *)
let staged ctx stage f =
  Ba_obs.Span.with_span ctx.span_buf (stage_name stage) (fun () ->
      let t0 = Ba_obs.Mono.now_ns () in
      let finally () =
        let dt = Ba_obs.Mono.since_s t0 in
        ctx.acc <-
          (match stage with
          | Build -> { ctx.acc with build_s = ctx.acc.build_s +. dt }
          | Solve -> { ctx.acc with solve_s = ctx.acc.solve_s +. dt }
          | Realize -> { ctx.acc with realize_s = ctx.acc.realize_s +. dt }
          | Verify -> { ctx.acc with verify_s = ctx.acc.verify_s +. dt })
      in
      Fun.protect ~finally f)

(* ------------------------------------------------------------------ *)

type 'a t = {
  id : int;  (** merge key: procedure / row index *)
  label : string;
  run : ctx -> 'a;
}

let make ~id ?(label = "") run = { id; label; run }

(** The documented seeding scheme: splitmix64 over [seed] xor a
    golden-ratio multiple of [id + 1].  Every task id gets a distinct,
    well-mixed stream that depends only on [(seed, id)]. *)
let derive_seed ~seed ~id =
  let splitmix64 z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
              0xbf58476d1ce4e5b9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
              0x94d049bb133111ebL in
    Int64.logxor z (Int64.shift_right_logical z 31)
  in
  let z =
    Int64.add (Int64.of_int seed)
      (Int64.mul (Int64.of_int (id + 1)) 0x9e3779b97f4a7c15L)
  in
  Int64.to_int (splitmix64 z) land max_int

let seed_rng ~seed ~id = Random.State.make [| derive_seed ~seed ~id |]

(** One task's merged-back result. *)
type 'a outcome = {
  id : int;
  label : string;
  value : 'a;
  stages : stages;  (** per-task stage seconds (task-local, merged after join) *)
  elapsed_s : float;  (** total elapsed seconds of the task (Mono clock) *)
  spans : Ba_obs.Span.span array;
      (** the task's completed spans (empty unless tracing is on) *)
}

(** [run_one ~seed task] executes one task on the calling domain.  With
    tracing on, the whole task body runs inside a root span named
    ["task"], so stage spans nest under it in the trace viewer. *)
let run_one ~seed (t : 'a t) : 'a outcome =
  let span_buf =
    Ba_obs.Span.create ~task:t.id ~enabled:(Ba_obs.Trace.enabled ())
  in
  let ctx = { rng = seed_rng ~seed ~id:t.id; acc = no_stages; span_buf } in
  let t0 = Ba_obs.Mono.now_ns () in
  let value = Ba_obs.Span.with_span span_buf "task" (fun () -> t.run ctx) in
  {
    id = t.id;
    label = t.label;
    value;
    stages = ctx.acc;
    elapsed_s = Ba_obs.Mono.since_s t0;
    spans = Ba_obs.Span.spans span_buf;
  }

(** [run_all ?seed exec tasks] executes every task under [exec] and
    returns the outcomes in input order (deterministic merge by
    position, regardless of which domain finished first).  After the
    join, each task's span buffer is handed to the global trace in
    index order, so trace groups are scheduling-independent too. *)
let run_all ?(seed = 0) (exec : Executor.t) (tasks : 'a t array) :
    'a outcome array =
  let outcomes =
    Executor.init exec (Array.length tasks) (fun i -> run_one ~seed tasks.(i))
  in
  Ba_obs.Metrics.incr ~n:(Array.length tasks) Ba_obs.Metrics.Tasks_run;
  Ba_obs.Metrics.set_gauge Ba_obs.Metrics.Jobs (Executor.jobs exec);
  if Ba_obs.Trace.enabled () then
    Array.iter
      (fun o -> Ba_obs.Trace.add_task ~label:o.label ~task:o.id o.spans)
      outcomes;
  outcomes
