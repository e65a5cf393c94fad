(** Solver budgets: one immutable monotonic-clock deadline, threaded
    into the local-search loops.  Exhaustion never aborts a solve — the
    solver stops at the next poll and returns its best tour so far,
    flagged as degraded.

    A budget is a plain immutable value: the deadline is one absolute
    {!Ba_obs.Mono} instant, so any number of domains may poll it and
    all observe exhaustion at the same moment.  Only the code that owns
    a deadline creates one: [Driver.align_checked] (one per
    program or serve request) and the bench runner (one per solve for
    [balign bench --deadline-ms]).  Everything below them takes an
    optional budget, and an absent budget means no limit (see
    docs/ROBUSTNESS.md). *)

type t

(** [create ?deadline_ms ()] starts the clock now.  With no deadline
    the budget never exhausts; [deadline_ms <= 0] is exhausted
    immediately, and a deadline too far out to represent in monotonic
    nanoseconds (about 9.2e12 ms) saturates and never fires. *)
val create : ?deadline_ms:int -> unit -> t

(** A fresh budget with no deadline. *)
val unlimited : unit -> t

(** True once the deadline has passed.  Allocation-free. *)
val exhausted : t -> bool

(** Milliseconds since the budget was created. *)
val elapsed_ms : t -> float

(** Milliseconds left before the deadline (clamped at 0), or
    [None] for a deadline-free budget. *)
val remaining_ms : t -> float option

(** [clamp_deadline ?cap requested] is the deadline a server grants a
    request: [requested] bounded above by the server-side [cap] (either
    may be absent; negative requests become 0, i.e. degrade
    immediately). *)
val clamp_deadline : ?cap:int -> int option -> int option

(** The {!Errors.Solver_timeout} value describing this budget's state. *)
val timeout_error : ?proc:int -> t -> Errors.t
