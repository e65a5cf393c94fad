(** End-to-end execution-time model: issue slots + control penalties +
    I-cache misses + call overhead — the stand-in for the paper's
    AlphaStation wall-clock measurements. *)

open Ba_cfg

type result = {
  instrs : int;  (** instructions issued, fixup jumps included *)
  penalty_cycles : int;
  icache_misses : int;
  icache_accesses : int;
  calls : int;
  cycles : int;  (** total modelled cycles *)
  counters : Pipeline.counters;  (** full penalty breakdown *)
}

(** [make_sink m ~cfgs ~ctxs ~addr] simulates the whole machine on the
    model's physical penalties, the Alpha L1 I-cache and a 3-cycle
    call overhead; feed the trace into the sink, then call the
    accessor.
    @raise Invalid_argument on inconsistent program descriptions. *)
val make_sink :
  Model.t ->
  cfgs:Cfg.t array ->
  ctxs:Pipeline.proc_ctx array ->
  addr:Addr.t ->
  Trace.sink * (unit -> result)

val pp_result : Format.formatter -> result -> unit
