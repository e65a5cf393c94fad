(** Static profile estimation: Wu–Larus-style branch probabilities from
    CFG structure alone, propagated to block/edge frequencies through
    the loop forest, and emitted as a flow-consistent integer profile.

    The estimator never looks at a training run.  Per branch it combines
    Ball–Larus-style heuristics — loop-back, loop-exit, loop-header,
    return/exit, and opcode/arity priors read off
    {!Ba_cfg.Block.terminator} — with the Dempster–Shafer evidence rule,
    then runs one frequency-propagation pass per loop (innermost first,
    computing each loop's cyclic probability and the derived header
    multiplier, capped so deep nests cannot overflow the cost model) and
    a final top-level pass.  The float frequencies are rounded to
    integer counts per block by largest-remainder apportionment and made
    {e exactly} Kirchhoff-consistent by routing each block's residual
    along a BFS path to the exit (excess) or from the entry (deficit),
    so the result passes the BA2xx profile rules — including BA207 flow
    conservation — on any sound CFG, reducible or not.

    Everything is O(n + E) per loop-nesting level; the 10⁵-block `scale`
    families estimate in well under a second. *)

open Ba_cfg

type result = {
  profile : Ba_profile.Profile.proc;
      (** flow-consistent integer profile (sorted rows, positive counts) *)
  freq : float array;
      (** per-invocation block-frequency estimates, indexed by label
          (0.0 for unreachable blocks and blocks that cannot reach an
          exit) *)
  scale : float;
      (** invocation count the integer profile is scaled by (clamped
          from [?invocations] so no count can overflow the cost model) *)
}

(** Estimate one procedure from precomputed structure (shares the
    {!Dom.t}/{!Loops.t} with other analyses).  [invocations] requests
    the integer scale (default 10000). *)
val estimate : ?invocations:int -> Dom.t -> Loops.t -> result

(** [proc g] is [(estimate (Dom.compute g) (Loops.compute _)).profile]. *)
val proc : ?invocations:int -> Cfg.t -> Ba_profile.Profile.proc

(** Whole-program estimate: one {!proc} per procedure, no call graph
    (static estimation is intraprocedural). *)
val program : ?invocations:int -> Cfg.t array -> Ba_profile.Profile.t
