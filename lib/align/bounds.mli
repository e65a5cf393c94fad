(** Lower bounds on the achievable control penalty of a procedure — the
    paper's near-optimality certificates. *)

open Ba_cfg
module Profile = Ba_profile.Profile

(** Valid lower bound on the penalty of {e any} layout: the exact
    optimum on small instances, the Held–Karp bound otherwise (clamped
    at 0).  [upper] is the penalty of any known layout. *)
val held_karp :
  Ba_machine.Model.t ->
  Cfg.t ->
  profile:Profile.proc ->
  upper:int ->
  int

(** Assignment-problem lower bound (appendix experiment). *)
val ap : Ba_machine.Model.t -> Cfg.t -> profile:Profile.proc -> int

(** Proven minimum penalty, when the instance is small enough. *)
val exact :
  Ba_machine.Model.t -> Cfg.t -> profile:Profile.proc -> int option
