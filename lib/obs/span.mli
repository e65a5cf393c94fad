(** Per-task span buffers: named intervals on the observability clock,
    single-writer while the task runs, immutable after the join.  Every
    buffer records; the spans are the one source of stage timings. *)

type span = {
  id : int;  (** per-task open order, 0-based *)
  parent : int;  (** id of the enclosing span; -1 for a root *)
  task : int;  (** owning task id *)
  name : string;
  start_ns : int64;
  stop_ns : int64;
}

type buf

(** [create ~task] is a fresh empty buffer owned by [task]. *)
val create : task:int -> buf

(** [with_span buf name f] runs [f ()] inside a span named [name]; the
    span closes even if [f] raises. *)
val with_span : buf -> string -> (unit -> 'a) -> 'a

(** Completed spans in open order. *)
val spans : buf -> span array

val duration_ns : span -> int64

(** The span's duration in seconds. *)
val duration_s : span -> float
