(** Per-procedure pipeline tasks: pure, re-entrant units (build →
    solve → realize → verify) with their own [(seed, id)]-derived RNG
    and a task-local stage clock, merged back by index after the join.
    See docs/ARCHITECTURE.md for the determinism contract. *)

(** Pipeline stages a task may charge time to. *)
type stage = Build | Solve | Realize | Verify

(** Seconds spent per stage; immutable, one value per task. *)
type stages = {
  build_s : float;
  solve_s : float;
  realize_s : float;
  verify_s : float;
}

val no_stages : stages

(** Pure merges, applied in index order after the join. *)
val add_stages : stages -> stages -> stages

val sum_stages : stages list -> stages

(** Per-task execution context: seeded RNG + task-local stage clock. *)
type ctx

(** The task's own random stream, a function of [(seed, id)] only. *)
val rng : ctx -> Random.State.t

(** The task's span buffer: single-writer while the task runs, a no-op
    unless tracing is enabled.  Pipeline stages may record their own
    finer-grained spans into it. *)
val spans : ctx -> Ba_obs.Span.buf

(** [staged ctx stage f] runs [f ()], charging its elapsed Mono time to
    [stage] in the task-local record (and recording a stage span when
    tracing is enabled). *)
val staged : ctx -> stage -> (unit -> 'a) -> 'a

type 'a t = {
  id : int;  (** merge key: procedure / row index *)
  label : string;
  run : ctx -> 'a;
}

val make : id:int -> ?label:string -> (ctx -> 'a) -> 'a t

(** The documented seeding scheme: splitmix64 of [seed] xor a
    golden-ratio multiple of [id + 1] — distinct well-mixed streams
    per task, independent of scheduling. *)
val derive_seed : seed:int -> id:int -> int

val seed_rng : seed:int -> id:int -> Random.State.t

type 'a outcome = {
  id : int;
  label : string;
  value : 'a;
  stages : stages;
  elapsed_s : float;
  spans : Ba_obs.Span.span array;
      (** completed spans (empty unless tracing is on) *)
}

(** Execute one task on the calling domain (inside a root ["task"]
    span when tracing is on). *)
val run_one : seed:int -> 'a t -> 'a outcome

(** Execute every task under the executor; outcomes come back in input
    order whatever the completion order was.  Joined span buffers are
    handed to {!Ba_obs.Trace} in index order. *)
val run_all : ?seed:int -> Executor.t -> 'a t array -> 'a outcome array
