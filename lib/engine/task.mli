(** Per-procedure pipeline tasks: pure, re-entrant units (build →
    solve → realize → verify) with their own [(seed, id)]-derived RNG
    and a task-local span buffer, merged back by index after the join.
    See docs/ARCHITECTURE.md for the determinism contract. *)

(** Pipeline stages a task may open a span for. *)
type stage = Build | Solve | Realize | Verify

(** Per-task execution context: seeded RNG + task-local span buffer. *)
type ctx

(** The task's own random stream, a function of [(seed, id)] only. *)
val rng : ctx -> Random.State.t

(** The task's span buffer: single-writer while the task runs.
    Pipeline stages may record their own finer-grained spans into it. *)
val spans : ctx -> Ba_obs.Span.buf

(** [staged ctx stage f] runs [f ()] inside a span named after
    [stage] (["build"], ["solve"], ["realize"], ["verify"]). *)
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
  elapsed_s : float;  (** duration of the root ["task"] span *)
  spans : Ba_obs.Span.span array;  (** completed spans, root first *)
}

(** Execute one task on the calling domain, inside a root ["task"]
    span. *)
val run_one : seed:int -> 'a t -> 'a outcome

(** Execute every task under the executor; outcomes come back in input
    order whatever the completion order was.  With tracing on, joined
    span buffers are handed to {!Ba_obs.Trace} in index order. *)
val run_all : ?seed:int -> Executor.t -> 'a t array -> 'a outcome array
