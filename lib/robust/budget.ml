(** Solver budgets: one immutable monotonic-clock deadline.

    A budget is created by the code that owns a deadline and threaded
    down into the inner local-search loops, which poll {!exhausted}
    between moves.  An exhausted budget never aborts a solve abruptly —
    the solver stops at the next poll and returns its best tour so far,
    flagging the result as degraded.

    The clock is {!Ba_obs.Mono}: {!exhausted} polls it directly through
    {!Ba_obs.Mono.reached}, an allocation-free [CLOCK_MONOTONIC] read,
    rather than amortizing, and a wall-clock step can neither fire nor
    hide a deadline.

    A budget holds no mutable state, so concurrent solves may poll one
    budget from any domain: the deadline is an {e absolute} instant,
    and every solve observes exhaustion at the same moment.  Nothing
    here is process-global either: a server creates {e one budget per
    request} ([balign serve] does this through
    [align_checked ?deadline_ms]), so two simultaneous requests with
    different deadlines cannot interfere — pinned by the robustness
    suite (test_robust: "per-request budgets"). *)

module Mono = Ba_obs.Mono

type t = {
  started : int64;  (** creation instant (Mono ns), for elapsed-time reporting *)
  deadline : int64 option;  (** absolute monotonic limit (Mono ns) *)
  deadline_ms : int option;  (** the relative limit, for reporting *)
}

(* [started + ms] in Mono ns, saturating at [Int64.max_int]: a request
   too far out to represent (≈ 9.2e12 ms) is a deadline that never
   fires, not one that wraps into the past.  Negative [ms] is an
   instant deadline. *)
let deadline_after started ms =
  let ms = Int64.of_int (max 0 ms) in
  if Int64.compare ms (Int64.div (Int64.sub Int64.max_int started) 1_000_000L) >= 0
  then Int64.max_int
  else Int64.add started (Int64.mul ms 1_000_000L)

let create ?deadline_ms () =
  let started = Mono.now_ns () in
  {
    started;
    deadline = Option.map (deadline_after started) deadline_ms;
    deadline_ms;
  }

(** A fresh budget with no deadline ({!exhausted} is always false). *)
let unlimited () = create ()

(** [exhausted b] is true once the deadline has passed.  A zero
    deadline is exhausted immediately. *)
let exhausted b =
  match b.deadline with
  | Some d -> Mono.reached d
  | None -> false

(** Milliseconds since the budget was created. *)
let elapsed_ms b = Mono.since_s b.started *. 1000.

(** [remaining_ms b] is the milliseconds left before the deadline
    (clamped at 0), or [None] for a deadline-free budget. *)
let remaining_ms b =
  Option.map
    (fun d ->
      Float.max 0. (Int64.to_float (Int64.sub d (Mono.now_ns ())) /. 1e6))
    b.deadline

(** [clamp_deadline ?cap requested] maps a client-requested deadline to
    the one a server should actually grant: [requested] bounded above
    by the server-side [cap] (either may be absent).  Negative requests
    are treated as 0 — an immediately-exhausted budget that degrades to
    the fallback chain rather than an error. *)
let clamp_deadline ?cap requested =
  let requested = Option.map (fun ms -> max 0 ms) requested in
  match (requested, cap) with
  | None, c -> c
  | (Some _ as r), None -> r
  | Some r, Some c -> Some (min r c)

(** [timeout_error ?proc b] is the {!Errors.Solver_timeout} value
    describing an exhausted budget. *)
let timeout_error ?proc b =
  Errors.Solver_timeout
    { proc; elapsed_ms = elapsed_ms b; deadline_ms = b.deadline_ms }
