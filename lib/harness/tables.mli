(** Table and figure printers: each function regenerates one table or
    figure of the paper from measured rows. *)

(** A titled banner; every table, figure and study opens with one. *)
val section : Format.formatter -> string -> unit

(** [ratio a b] is [a / b], or 1.0 when [b = 0]. *)
val ratio : int -> int -> float

(** Arithmetic mean; 0.0 for the empty list. *)
val mean : float list -> float

(** Table 1: benchmark and data-set inventory. *)
val table1 : Format.formatter -> Runner.row list -> unit

(** Table 2: per-stage wall-clock times (worst data set per benchmark). *)
val table2 : Format.formatter -> Runner.row list -> unit

(** Table 3: the control-penalty machine model. *)
val table3 : Format.formatter -> Ba_machine.Penalties.t -> unit

(** Table 4: original penalties, lower bounds and running times. *)
val table4 : Format.formatter -> Runner.row list -> unit

(** Figure 2: normalized penalties (left) and execution times (right),
    training = testing. *)
val fig2_penalties : Format.formatter -> Runner.row list -> unit

val fig2_times : Format.formatter -> Runner.row list -> unit

(** Figure 3: the cross-validated versions. *)
val fig3_penalties : Format.formatter -> Runner.row list -> unit

val fig3_times : Format.formatter -> Runner.row list -> unit

(** Static-estimate recovery: fraction of the profile-trained penalty
    reduction recovered by training on the structural estimate
    ([balign bench --profile static]). *)
val static_recovery : Format.formatter -> Runner.row list -> unit

(** Appendix: bound-quality and solver-reliability statistics. *)
val appendix : Format.formatter -> Appendix.stats -> unit

(** Headline summary: the paper's claims vs measured numbers. *)
val summary : Format.formatter -> Runner.row list -> unit
