(** Independent certification of alignment results: re-verifies a
    produced layout from first principles (walk property, semantic
    faithfulness, from-scratch cost recomputation, DTSP → STSP
    locked-pair round-trip, Held–Karp bound ≤ cost), sharing no code
    with the solver path.  Counters flow into [check.certs_checked] /
    [check.certs_failed]. *)

open Ba_cfg

(** Why a layout fails certification. *)
type error =
  | Not_permutation of string
  | Entry_not_first of { entry : int; first : int }
  | Locked_pair_broken of { city : int }
  | Cost_mismatch of { claimed : int; recomputed : int }
  | Bound_exceeds_cost of { bound : int; cost : int }
  | Bound_unavailable of string
      (** [Compute] could not bound the instance exactly (magnitudes at
          or above 2⁵², see {!Ba_tsp.Held_karp.bound}) *)
  | Unfaithful of string

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

(** Source of the Held–Karp bound for the bound ≤ cost check. *)
type hk_mode = Skip | Given of int | Compute of Ba_tsp.Held_karp.config

(** Per-procedure certificate; every number recomputed here. *)
type proc_cert = {
  proc : int;
  name : string;
  n_blocks : int;
  cost : int;  (** independently recomputed control penalty, cycles *)
  claimed : int option;
  hk_bound : int option;
  sym_checked : bool;
}

type failure = { fproc : int; fname : string; error : error }

(** Whole-program certificate. *)
type t = { procs : proc_cert list; total_cost : int }

(** {1 The independent checks (exposed for adversarial tests)} *)

(** Hamiltonian-walk property: permutation of the blocks, entry first. *)
val check_walk : Cfg.t -> Layout.order -> (unit, error) result

(** Penalty of the layout recomputed from scratch against the machine
    cost model. *)
val recompute_cost :
  Ba_machine.Model.t ->
  Cfg.t ->
  profile:Ba_profile.Profile.proc ->
  order:Layout.order ->
  int

(** Rebuild the reduction's DTSP instance (with its dummy city index)
    directly from {!Ba_machine.Cost.edge_cost}, as a dense O(n²) scan:
    the reference {!dtsp_of_sparse} is tested against. *)
val dtsp_of :
  Ba_machine.Model.t ->
  Cfg.t ->
  profile:Ba_profile.Profile.proc ->
  Ba_tsp.Dtsp.t * int

(** The same logical instance as {!dtsp_of}, built sparsely in O(n + E):
    a non-successor layout successor costs exactly like [None] under
    every objective, so rows deviate from that default only at the CFG
    successors.  The instance {!proc_cert} certifies against, at every
    size; equivalence with {!dtsp_of} is asserted in the tests. *)
val dtsp_of_sparse :
  Ba_machine.Model.t ->
  Cfg.t ->
  profile:Ba_profile.Profile.proc ->
  Ba_tsp.Dtsp.t * int

(** Locked-pair integrity of an arbitrary symmetric tour; on success
    returns the recovered directed tour. *)
val check_sym : Ba_tsp.Sym.t -> int array -> (int array, error) result

(** {1 Certification} *)

(** Certify one procedure's layout.  [claimed] cross-checks the
    solver-reported cost; [sym_check] (default on) exercises the
    DTSP → STSP round-trip. *)
val proc_cert :
  ?claimed:int ->
  ?hk:hk_mode ->
  ?sym_check:bool ->
  proc:int ->
  Ba_machine.Model.t ->
  Cfg.t ->
  profile:Ba_profile.Profile.proc ->
  order:Layout.order ->
  (proc_cert, error) result

(** Certify a whole aligned program in procedure order (the DTSP → STSP
    round-trip on); first failure wins.  [hk i] gives procedure [i]'s
    bound source. *)
val program :
  ?hk:(int -> hk_mode) ->
  Ba_machine.Model.t ->
  Cfg.t array ->
  train:Ba_profile.Profile.t ->
  orders:Layout.order array ->
  (t, failure) result

(** {1 Rendering} *)

val proc_cert_json : proc_cert -> Ba_obs.Json.t

(** Certificate document for [balign align --certify] (schema
    ["balign-cert-1"]). *)
val to_json : t -> Ba_obs.Json.t

val pp_proc_cert : Format.formatter -> proc_cert -> unit
