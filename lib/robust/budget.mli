(** Solver budgets: a monotonic-clock deadline and/or a move allowance,
    threaded into the local-search loops.  Exhaustion never aborts a
    solve — the solver stops at the next poll and returns its best tour
    so far, flagged as degraded.

    Budgets are domain-safe and may be shared by concurrent solves: the
    deadline is one absolute {!Ba_obs.Mono} instant observed by every
    domain, and the move counter is the global total across all of them
    (atomic increments; [max_moves] bounds the combined work).  Which
    solve observes exhaustion first under concurrency depends on
    scheduling — use per-task budgets when bit-identical output across
    job counts matters (see docs/ARCHITECTURE.md).

    Nothing here is process-global: each [create] owns its counter and
    deadline, so a server creates one budget {e per request} and two
    simultaneous requests with different deadlines cannot interfere
    (see the "Per-request budgets" section in the implementation and
    docs/SERVING.md). *)

type t

(** [create ?deadline_ms ?max_moves ()] starts the clock now.  With no
    limits the budget never exhausts; [deadline_ms <= 0] is exhausted
    immediately, and a deadline too far out to represent in monotonic
    nanoseconds (about 9.2e12 ms) saturates and never fires. *)
val create : ?deadline_ms:int -> ?max_moves:int -> unit -> t

(** [within ms b] ends at the earlier of [b]'s deadline and [ms]
    milliseconds from now.  It is [b] itself when [b]'s deadline comes
    first; otherwise it shares [b]'s move allowance and counter, and
    its elapsed time and reported deadline are the per-solve ones. *)
val within : int -> t -> t

(** A fresh budget with no limits. *)
val unlimited : unit -> t

(** Record one unit of solver work (an improving move).  Atomic and
    allocation-free; safe from any domain. *)
val spend : t -> unit

(** True once the deadline has passed or the move allowance is spent. *)
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

(** Moves spent so far, across every domain sharing this budget. *)
val moves : t -> int

(** The {!Errors.Solver_timeout} value describing this budget's state. *)
val timeout_error : ?proc:int -> t -> Errors.t
