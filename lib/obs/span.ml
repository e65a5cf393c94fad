(** Lightweight spans, collected per task into single-writer buffers.

    A span is one named interval on the observability clock, tagged
    with the id of the task that produced it and the id of its
    enclosing span.  Each task owns exactly one {!buf}; a buffer is
    only ever written by the domain running its task, so recording is
    lock-free by construction.  After the task joins, the caller reads
    the buffer out as an immutable array ({!spans}): stage timings are
    totals over it, and with tracing on it is also merged into the
    trace by task index (see {!Trace}).

    Every buffer records.  A span is two clock readings and one small
    record, and spans open per pipeline stage, never inside a solver
    loop; recording changes no computed value, so null-sink output
    does not depend on it. *)

type span = {
  id : int;  (** per-task open order, 0-based *)
  parent : int;  (** id of the enclosing span; -1 for a root *)
  task : int;  (** owning task id *)
  name : string;
  start_ns : int64;
  stop_ns : int64;
}

type buf = {
  task : int;
  mutable next_id : int;
  mutable stack : int list;  (** ids of currently open spans *)
  mutable closed : span list;  (** completed spans, most recent first *)
}

let create ~task = { task; next_id = 0; stack = []; closed = [] }

(** [with_span buf name f] runs [f ()] inside a span named [name];
    the span closes (and is recorded) even if [f] raises. *)
let with_span buf name f =
  let id = buf.next_id in
  buf.next_id <- id + 1;
  let parent = match buf.stack with [] -> -1 | p :: _ -> p in
  buf.stack <- id :: buf.stack;
  let start_ns = Mono.now_ns () in
  let finally () =
    let stop_ns = Mono.now_ns () in
    buf.stack <- List.tl buf.stack;
    buf.closed <-
      { id; parent; task = buf.task; name; start_ns; stop_ns } :: buf.closed
  in
  Fun.protect ~finally f

(** Completed spans in open order (the immutable read-out). *)
let spans buf : span array =
  let a = Array.of_list buf.closed in
  Array.sort (fun a b -> compare a.id b.id) a;
  a

let duration_ns s = Int64.sub s.stop_ns s.start_ns
let duration_s s = Int64.to_float (duration_ns s) /. 1e9
