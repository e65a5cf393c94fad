(** Solver budgets: a monotonic-clock deadline and/or a move allowance.

    A budget is created once per solve (or shared by a whole program's
    worth of solves) and threaded down into the inner local-search loops,
    which [spend] one unit per improving move and poll {!exhausted}
    between moves.  An exhausted budget never aborts a solve abruptly —
    the solver stops at the next poll and returns its best tour so far,
    flagging the result as degraded.

    The clock is {!Ba_obs.Mono}: {!exhausted} polls it directly through
    {!Ba_obs.Mono.reached}, an allocation-free [CLOCK_MONOTONIC] read,
    rather than amortizing, and a wall-clock step can neither fire nor
    hide a deadline; move spending is a single [Atomic.fetch_and_add],
    allocation-free.

    {2 Shared-budget semantics under concurrent solves}

    One budget may be polled by several domains solving different
    procedures at once (the executor pool).  The semantics are:

    - the deadline is an {e absolute} monotonic instant, shared by all
      domains: every concurrent solve observes exhaustion at the same
      moment, regardless of which domain it runs on;
    - the move counter is the {e global} total across all concurrent
      solves: each domain's [spend] contributes to the same allowance,
      so [max_moves] bounds the whole program's work, not one solve's.
      Increments are atomic — no spent move is ever lost — but which
      procedure's solve observes exhaustion first depends on
      scheduling.  When bit-identical output across job counts matters,
      use per-task budgets (or no mid-run limits); see
      docs/ARCHITECTURE.md.

    {2 Per-request budgets (daemon mode)}

    A budget is a plain value with its own atomic counter — nothing
    here is process-global.  A long-running server therefore creates
    {e one budget per request} ([balign serve] does this through
    [align_checked ?deadline_ms]): two simultaneous requests with
    different deadlines own disjoint counters and disjoint absolute
    deadlines, so one request exhausting its allowance can never starve
    or time out another.  Sharing a single budget across requests would
    re-introduce exactly the cross-request interference this rules out;
    the two-deadline independence is pinned by the robustness suite
    (test_robust: "per-request budgets"). *)

module Mono = Ba_obs.Mono

type t = {
  started : int64;  (** creation instant (Mono ns), for elapsed-time reporting *)
  deadline : int64 option;  (** absolute monotonic limit (Mono ns) *)
  deadline_ms : int option;  (** the relative limit, for reporting *)
  max_moves : int option;
  moves : int Atomic.t;  (** global across every domain polling this budget *)
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

let create ?deadline_ms ?max_moves () =
  let started = Mono.now_ns () in
  {
    started;
    deadline = Option.map (deadline_after started) deadline_ms;
    deadline_ms;
    max_moves;
    moves = Atomic.make 0;
  }

(** [within ms b] is [b] cut short to end no later than [ms]
    milliseconds from now: [b] itself when its own deadline comes
    first, else the same move allowance and counter under the nearer
    deadline, whose elapsed time counts from now. *)
let within ms b =
  let started = Mono.now_ns () in
  let deadline = deadline_after started ms in
  match b.deadline with
  | Some d when Int64.compare d deadline <= 0 -> b
  | _ -> { b with started; deadline = Some deadline; deadline_ms = Some ms }

(** A fresh budget with no limits ({!exhausted} is always false). *)
let unlimited () = create ()

(** [spend b] records one unit of solver work (an improving move);
    atomic and allocation-free. *)
let spend b = ignore (Atomic.fetch_and_add b.moves 1)

(** [exhausted b] is true once the deadline has passed or the move
    allowance is used up.  A zero deadline is exhausted immediately. *)
let exhausted b =
  (match b.max_moves with Some m -> Atomic.get b.moves >= m | None -> false)
  ||
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

(** Moves spent so far (all domains combined). *)
let moves b = Atomic.get b.moves

(** [timeout_error ?proc b] is the {!Errors.Solver_timeout} value
    describing an exhausted budget. *)
let timeout_error ?proc b =
  Errors.Solver_timeout
    {
      proc;
      elapsed_ms = elapsed_ms b;
      deadline_ms = b.deadline_ms;
      moves = Atomic.get b.moves;
    }
