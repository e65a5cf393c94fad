(** Execution-trace events, shared by the interpreter (producer) and the
    profiler / machine simulators (consumers).

    Events are scoped per procedure {e invocation}: a [Block] event
    refers to the procedure of the innermost open [Enter], and
    intraprocedural control transfers are consecutive [Block] events
    within one invocation (callee blocks in between do not break the
    caller's adjacency). *)

type event =
  | Enter of int  (** procedure [fid] is invoked *)
  | Block of int  (** block [bid] of the innermost open procedure runs *)
  | Leave  (** the innermost open procedure returns *)

(** A consumer of trace events. *)
type sink = event -> unit

(** [tee a b] duplicates a stream into two sinks. *)
val tee : sink -> sink -> sink

(** The null sink. *)
val null : sink

(** [count_blocks ()] is a sink counting [Block] events, plus an
    accessor for the count. *)
val count_blocks : unit -> sink * (unit -> int)

(** [invocation_walker ~on_block ()] builds a sink that maintains the
    invocation stack and reports every block execution with the previous
    block of the same invocation ([prev = None] right after [Enter]).
    [on_call] fires on every [Enter] with the calling procedure (or
    [None] for the outermost invocation).

    The walker allocates nothing per event: its invocation stack is held
    in int arrays, and every [Some i] it hands to [on_block] (as [prev])
    or [on_call] (as [caller]) is one shared value per id, so a consumer
    must not rely on the physical identity of those options.
    @raise Invalid_argument on malformed streams. *)
val invocation_walker :
  ?on_enter:(int -> unit) ->
  ?on_leave:(int -> unit) ->
  ?on_call:(caller:int option -> callee:int -> unit) ->
  on_block:(fid:int -> bid:int -> prev:int option -> unit) ->
  unit ->
  sink

val pp : Format.formatter -> event -> unit
