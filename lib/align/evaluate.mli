(** Analytic control-penalty evaluation, with distinct training and
    testing profiles (the paper's cross-validation study): realization
    and predictions come from training, transfer counts from testing. *)

open Ba_cfg
module Profile = Ba_profile.Profile

(** Realize a layout against the training profile; returns the realized
    layout and the per-block static predictions.
    @raise Invalid_argument on invalid layouts. *)
val realize :
  Ba_machine.Model.t ->
  Cfg.t ->
  order:Layout.order ->
  train:Profile.proc ->
  Layout.realized * int option array

(** Total control-penalty cycles of a procedure under the given
    training/testing split, on the model's physical penalties.  With
    [train = test] and the control-penalty objective this equals the
    DTSP walk cost of the layout. *)
val proc_penalty :
  Ba_machine.Model.t ->
  Cfg.t ->
  order:Layout.order ->
  train:Profile.proc ->
  test:Profile.proc ->
  int
