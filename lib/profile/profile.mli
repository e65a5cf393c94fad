(** Edge-frequency profiles: per-block transfer counts plus the dynamic
    call graph, collected from a training run.  Profiles drive the
    static predictions (most common successor) and the DTSP edge weights
    of the reduction. *)

open Ba_cfg

(** Per-procedure profile: [freqs.(src)] lists [(dst, count)] pairs
    sorted by destination label, positive counts only. *)
type proc = { freqs : (Block.label * int) array array }

(** Whole-program profile.  [calls] is the dynamic call graph as sorted
    [(caller, callee, count)] triples (the initial [main] invocation has
    no caller and is not recorded). *)
type t = { procs : proc array; calls : (int * int * int) list }

(** The largest count a profile may carry: [max_int / 65536], a factor
    of 2^16 below [max_int], so a count times a per-transfer penalty
    cannot overflow the analytic cost model.  Lint rule BA208
    ([prof-overflow-risk]) flags larger counts; the static estimator
    keeps its counts below it. *)
val overflow_guard : int

val n_procs : t -> int
val proc : t -> int -> proc

(** Per-destination transfer counts of block [l]. *)
val block_freqs : proc -> Block.label -> (Block.label * int) array

(** Recorded count of transfers [src → dst]. *)
val freq : proc -> src:Block.label -> dst:Block.label -> int

(** Total transfers out of block [l]. *)
val out_count : proc -> Block.label -> int

(** Statically predicted successor: most frequent during training, ties
    towards the smaller label; [None] if the block never transferred. *)
val predicted : proc -> Block.label -> Block.label option

(** {!predicted} tabulated for all blocks. *)
val predictions : proc -> n_blocks:int -> Block.label option array

val total_transfers : proc -> int
val program_transfers : t -> int

(** Dynamic call count caller → callee. *)
val call_freq : t -> caller:int -> callee:int -> int

(** Total recorded intra-program calls. *)
val total_calls : t -> int

(** Table 1 statistic: static CTI blocks that executed at least once. *)
val branch_sites_touched : Cfg.t -> proc -> int

(** Table 1 statistic: dynamic transfers out of CTI blocks. *)
val executed_branches : Cfg.t -> proc -> int

(** Multiply every count by [k].  @raise Invalid_argument if [k < 0]. *)
val scale : int -> proc -> proc

(** Sum two profiles of the same shape.
    @raise Invalid_argument on shape mismatch. *)
val merge : proc -> proc -> proc

(** Build a per-procedure profile from raw [(src, dst, count)] triples,
    summing duplicates and dropping zeros. *)
val of_assoc : n_blocks:int -> (int * int * int) list -> proc

(** Smart constructor: build a per-procedure profile from one raw
    [(dst, count)] row per block, enforcing the documented row invariant
    (sorted by destination, positive counts only, duplicates summed)
    rather than leaving it implicit at each construction site.  A row
    that already satisfies the invariant is kept as given, not copied. *)
val of_freqs : (Block.label * int) array array -> proc

val pp_proc : Format.formatter -> proc -> unit
