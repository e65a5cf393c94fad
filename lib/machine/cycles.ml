(** End-to-end execution-time model.

    The simulated running time of a program under a given layout is

    {v cycles = instructions issued
             + control penalty cycles        (pipeline simulator)
             + I-cache misses × miss penalty (I-cache simulator)
             + calls × call overhead v}

    with a base throughput of one instruction per cycle.  This is the
    stand-in for the paper's AlphaStation wall-clock measurements: the
    penalty term reproduces the analytic model, and the I-cache term
    reproduces the "unmodeled caching benefits" the paper discovered with
    IPROBE (Section 4.1). *)

open Ba_cfg

let icache = Icache.alpha_l1

(** cycles per procedure call+return pair *)
let call_overhead = 3

type result = {
  instrs : int;  (** instructions issued, fixup jumps included *)
  penalty_cycles : int;
  icache_misses : int;
  icache_accesses : int;
  calls : int;
  cycles : int;  (** total modelled cycles *)
  counters : Pipeline.counters;  (** full penalty breakdown *)
}

(** [make_sink m ~cfgs ~ctxs ~addr] builds a trace sink that
    simulates the whole machine: penalties, I-cache and issue slots.
    [cfgs.(fid)], [ctxs.(fid)] and [addr.procs.(fid)] describe procedure
    [fid].  Returns the sink and a [result] accessor to call after the
    trace has been fed.  Simulation always runs on the model's physical
    penalty record, whatever its layout objective. *)
let make_sink (m : Model.t) ~(cfgs : Cfg.t array)
    ~(ctxs : Pipeline.proc_ctx array) ~(addr : Addr.t) :
    Trace.sink * (unit -> result) =
  let p = m.Model.penalties in
  let n_procs = Array.length cfgs in
  if Array.length ctxs <> n_procs || Array.length addr.Addr.procs <> n_procs
  then invalid_arg "Cycles.make_sink: inconsistent program description";
  let counters = Pipeline.create_counters ~n_procs in
  let cache = Icache.create icache in
  let instrs = ref 0 in
  let calls = ref 0 in
  let sink =
    Trace.invocation_walker
      ~on_enter:(fun _ -> incr calls)
      ~on_block:(fun ~fid ~bid ~prev ->
        let pa = addr.Addr.procs.(fid) in
        (* issue + fetch the block itself *)
        instrs := !instrs + pa.Addr.block_len.(bid);
        ignore
          (Icache.touch_range cache ~addr:pa.Addr.block_addr.(bid)
             ~ninstr:pa.Addr.block_len.(bid));
        match prev with
        | None -> ()
        | Some src ->
            Pipeline.record counters p ctxs ~fid ~src ~dst:bid;
            (* a fixup-routed transfer also executes the inserted jump *)
            (match ctxs.(fid).Pipeline.terms.(src) with
            | Layout.R_cond { fall; via_fixup = true; _ } when fall = bid -> (
                incr instrs;
                match pa.Addr.fixup_addr.(src) with
                | Some a -> ignore (Icache.touch_range cache ~addr:a ~ninstr:1)
                | None -> invalid_arg "Cycles: fixup transfer without fixup address")
            | _ -> ()))
      ()
  in
  let result () =
    let misses = Icache.misses cache in
    {
      instrs = !instrs;
      penalty_cycles = counters.Pipeline.penalty_cycles;
      icache_misses = misses;
      icache_accesses = Icache.accesses cache;
      calls = !calls;
      cycles =
        !instrs + counters.Pipeline.penalty_cycles
        + (misses * icache.Icache.miss_penalty)
        + (!calls * call_overhead);
      counters;
    }
  in
  (sink, result)

let pp_result ppf r =
  Fmt.pf ppf
    "instrs %d + penalties %d + icache %d misses (%d accesses) + %d calls = %d cycles"
    r.instrs r.penalty_cycles r.icache_misses r.icache_accesses r.calls r.cycles
