(** Analytic control-penalty evaluation of layouts, with support for
    distinct training and testing profiles (the paper's cross-validation
    study, Section 4.2).

    The layout and the static predictions are decided at compile time
    from the {e training} profile; the penalties are then accumulated
    with the {e testing} profile's transfer frequencies.  With
    [train = test] this equals the DTSP walk cost of the layout. *)

open Ba_cfg
open Ba_machine
module Profile = Ba_profile.Profile

(** [realize m cfg ~order ~train] realizes a layout using the training
    profile (predictions, fixup-arrangement choices) and returns the
    realized layout together with the per-block predictions — everything
    the pipeline simulator needs. *)
let realize (m : Model.t) (cfg : Cfg.t) ~(order : Layout.order)
    ~(train : Profile.proc) : Layout.realized * int option array =
  if not (Layout.is_valid cfg order) then
    invalid_arg "Evaluate.realize: invalid layout";
  let predicted = Profile.predictions train ~n_blocks:(Cfg.n_blocks cfg) in
  let r =
    Cost.realize m.Model.penalties cfg ~order ~predicted ~freqs:(fun l ->
        Profile.block_freqs train l)
  in
  (r, predicted)

(** [proc_penalty m cfg ~order ~train ~test] is the total control-penalty
    cycles of the procedure laid out as [order]: realization and
    predictions from [train], transfer counts from [test]. *)
let proc_penalty (m : Model.t) (cfg : Cfg.t) ~(order : Layout.order)
    ~(train : Profile.proc) ~(test : Profile.proc) : int =
  let r, predicted = realize m cfg ~order ~train in
  let total = ref 0 in
  Cfg.iter
    (fun b ->
      let l = b.Block.id in
      total :=
        !total
        + Cost.rterm_cost m.Model.penalties r.Layout.terms.(l) ~predicted:predicted.(l)
            ~freqs:(Profile.block_freqs test l))
    cfg;
  !total
