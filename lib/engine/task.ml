(** Per-procedure alignment tasks.

    A task is one pure, re-entrant unit of pipeline work — for the
    aligner, "build the reduction → solve → realize → verify" for a
    single procedure — identified by the index it will be merged back
    under.  Each task gets:

    - its own {!Random.State}, derived from the pipeline seed and the
      task id only (never from scheduling), so randomized stages make
      the same draws no matter which domain runs them or in what order;
    - its own {!Ba_obs.Span} buffer, returned in the task's {!outcome}:
      every stage runs inside a span, so stage seconds are span totals
      the caller sums after the join — tasks never write shared timing
      state.

    Tasks must not mutate anything reachable from another task; under
    that contract {!run_all} produces identical outcomes (modulo the
    measured spans) on every {!Executor.t}. *)

(** Pipeline stages a task may open a span for, mirroring the classic
    per-procedure aligner pipeline. *)
type stage = Solve | Verify

(* ------------------------------------------------------------------ *)

(** The per-task execution context: the seeded RNG and the task's span
    buffer (single-writer; exported only when tracing is on, see
    {!Ba_obs.Trace}). *)
type ctx = {
  rng : Random.State.t;
  span_buf : Ba_obs.Span.buf;  (** task-local, lock-free by ownership *)
}

let rng ctx = ctx.rng
let spans ctx = ctx.span_buf

let stage_name = function
  | Solve -> "solve"
  | Verify -> "verify"

(** [staged ctx stage f] runs [f ()] inside one span named after the
    stage. *)
let staged ctx stage f = Ba_obs.Span.with_span ctx.span_buf (stage_name stage) f

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
  elapsed_s : float;  (** duration of the root ["task"] span *)
  spans : Ba_obs.Span.span array;
      (** the task's completed spans, the root ["task"] span first *)
}

(** [run_one ~seed task] executes one task on the calling domain.  The
    whole task body runs inside a root span named ["task"], so stage
    spans nest under it and its duration is the task's elapsed time. *)
let run_one ~seed (t : 'a t) : 'a outcome =
  let span_buf = Ba_obs.Span.create ~task:t.id in
  let ctx = { rng = seed_rng ~seed ~id:t.id; span_buf } in
  let value = Ba_obs.Span.with_span span_buf "task" (fun () -> t.run ctx) in
  let spans = Ba_obs.Span.spans span_buf in
  {
    id = t.id;
    label = t.label;
    value;
    elapsed_s = Ba_obs.Span.duration_s spans.(0);
    spans;
  }

(** [run_all ?seed exec tasks] executes every task under [exec] and
    returns the outcomes in input order (deterministic merge by
    position, regardless of which domain finished first).  With tracing
    on, each task's spans are handed to the global trace after the join
    in index order, so trace groups are scheduling-independent too. *)
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
