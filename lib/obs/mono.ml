(** The one clock: nanoseconds on the monotonic timeline.

    [now_ns] reads [CLOCK_MONOTONIC] through [bechamel.monotonic_clock],
    an unboxed, allocation-free stub.  Every duration, deadline and span
    in the repository subtracts two readings of this clock, so a
    wall-clock step (NTP slew, a manual [date]) can neither stretch a
    measured interval nor fire or hide a deadline.  Absolute values are
    meaningless across processes; calendar dates use [Unix.time]. *)

let now_ns () : int64 = Monotonic_clock.now ()

(** Nanoseconds → microseconds (the Chrome [trace_event] unit), as a
    float with sub-microsecond precision preserved. *)
let ns_to_us (ns : int64) : float = Int64.to_float ns /. 1e3

(** Seconds elapsed since the reading [t0]. *)
let since_s (t0 : int64) : float =
  Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

(** Whether the clock has reached the instant [t].  Budgets poll this
    between local-search moves: {!now_ns} is inlined here, so the
    reading stays unboxed and a poll allocates nothing (a call to
    {!now_ns} from another module returns a boxed [int64]). *)
let reached (t : int64) : bool = Int64.compare (now_ns ()) t >= 0
