(** The one clock: nanoseconds on the monotonic timeline (see the
    implementation note).  Only differences of readings are meaningful. *)

val now_ns : unit -> int64
val ns_to_us : int64 -> float

(** [since_s t0] is the seconds elapsed since the reading [t0]. *)
val since_s : int64 -> float

(** [reached t] is true once the clock has reached the instant [t];
    allocation-free, for polling a deadline in a hot loop. *)
val reached : int64 -> bool
