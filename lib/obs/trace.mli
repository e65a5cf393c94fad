(** Process-wide trace collection and Chrome [trace_event] export.
    Off by default; span buffers arrive per joined task and are merged
    in deterministic arrival order (task index order per fan-out). *)

type group = { seq : int; task : int; label : string; spans : Span.span array }

(** Flip tracing: whether the engine exports joined tasks' spans here
    (buffers record either way). *)
val set_enabled : bool -> unit

val enabled : unit -> bool

(** Hand one joined task's spans to the trace (no-op when empty). *)
val add_task : label:string -> task:int -> Span.span array -> unit

(** Drop all collected groups (tests). *)
val clear : unit -> unit

(** Collected groups in arrival order. *)
val all_groups : unit -> group list

(** The trace as a Chrome [trace_event] document: one [tid] (span
    group) per task, stage spans nested by time containment,
    timestamps rebased to the earliest span. *)
val to_chrome : unit -> Json.t

val write_chrome : string -> unit
