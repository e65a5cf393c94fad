(** The paper's reduction: branch alignment → directed TSP (Section 2.2).

    Cities are the procedure's basic blocks plus one dummy city marking
    the end of the layout.  The cost of edge (B, X) is the total penalty
    incurred at B's terminator when X is laid out immediately after B,
    under the training profile — computed by {!Ba_machine.Model.edge_cost}
    (for the default control-penalty objective this is exactly
    {!Ba_machine.Cost.edge_cost}, fixup jumps included).  Edges out of the dummy carry a prohibitive
    cost except dummy → entry, which is free: a minimum directed tour
    therefore reads dummy, entry, …, last block, and its cost equals the
    minimum achievable control penalty of any layout. *)

open Ba_cfg
open Ba_machine
module Profile = Ba_profile.Profile

type t = {
  cfg : Cfg.t;
  dtsp : Ba_tsp.Dtsp.t;  (** cities 0..n−1 = blocks, city n = dummy *)
  dummy : int;  (** = [Cfg.n_blocks cfg] *)
  forbid : int;  (** cost of dummy → non-entry edges *)
}

(** [build m cfg ~profile] constructs the DTSP instance of one
    procedure under model [m]'s objective.
    @raise Invalid_argument if the profile's block count disagrees with
    the CFG (callers wanting a typed error validate first, see
    {!Ba_check.Lint.gate}). *)
let build (m : Model.t) (cfg : Cfg.t) ~(profile : Profile.proc) : t =
  let n = Cfg.n_blocks cfg in
  if Array.length profile.Profile.freqs <> n then
    invalid_arg
      (Printf.sprintf
         "Reduction.build(%s): profile has %d blocks, CFG has %d" cfg.Cfg.name
         (Array.length profile.Profile.freqs)
         n);
  let dummy = n in
  let predicted = Profile.predictions profile ~n_blocks:n in
  let block_cost i succ =
    Model.edge_cost m (Cfg.block cfg i).Block.term ~succ
      ~predicted:predicted.(i)
      ~freqs:(Profile.block_freqs profile i)
  in
  (* The instance is emitted sparsely, without materializing the dense
     matrix: a block's penalty when followed by a non-successor is
     independent of which city follows (Model.edge_cost realizes the same
     fixup arrangement for every non-successor, and Multiway/Goto/Exit
     don't look at the successor at all — an invariant every registered
     objective preserves), so each row is its
     [block_cost i None] default plus explicit deviations at the CFG
     successors — O(out-degree) cost-model calls per block instead of
     O(n).  The diagonal is pinned to 0 (as the dense matrix had it) and
     the dummy column always carries the row default. *)
  let default = Array.make (n + 1) 0 in
  let rows = Array.make (n + 1) [] in
  (* the forbidden cost must exceed the cost of any real layout: one more
     than the sum over blocks of their worst edge; only successors can
     cost more than the row default *)
  let worst = ref 1 in
  for i = 0 to n - 1 do
    let def = block_cost i None in
    let w = ref def in
    let entries =
      match (Cfg.block cfg i).Block.term with
      | Block.Exit | Block.Multiway _ ->
          (* the invariant above is total here: these terminators ignore
             the layout successor entirely, so every column carries the
             row default — skipping the per-successor evaluation keeps a
             wide jump table O(arms) instead of O(arms²) *)
          []
      | Block.Goto _ | Block.Branch _ ->
          List.filter_map
            (fun j ->
              if j = i || j < 0 || j >= n then None
              else begin
                let c = block_cost i (Some j) in
                if c > !w then w := c;
                if c = def then None else Some (j, c)
              end)
            (Block.distinct_successors (Cfg.block cfg i))
    in
    default.(i) <- def;
    rows.(i) <- (if def = 0 then entries else (i, 0) :: entries);
    worst := !worst + !w
  done;
  let forbid = !worst in
  default.(dummy) <- forbid;
  rows.(dummy) <- [ (cfg.Cfg.entry, 0); (dummy, 0) ];
  let dtsp = Ba_tsp.Dtsp.of_rows ~n:(n + 1) ~default rows in
  { cfg; dtsp; dummy; forbid }

(** [tour_of_order t order] is the directed tour (starting at the dummy)
    corresponding to a layout. *)
let tour_of_order t (order : Layout.order) : int array =
  Array.append [| t.dummy |] order

(** [order_of_tour t tour] recovers a layout from a directed tour: drop
    the dummy and rotate the remaining cycle so the entry block is first.
    For tours produced by the solver this is exactly the walk after the
    dummy; for degenerate tours (a forbidden dummy edge survived) it is
    still a valid layout, just not the one the tour cost describes.
    @raise Invalid_argument if the tour is not a permutation of the
    cities. *)
let order_of_tour t (tour : int array) : Layout.order =
  if not (Ba_tsp.Dtsp.is_tour t.dtsp tour) then
    invalid_arg "Reduction.order_of_tour: not a tour";
  let rot = Ba_tsp.Dtsp.rotate_to tour t.dummy in
  let order = Array.sub rot 1 (Array.length rot - 1) in
  if order.(0) = t.cfg.Cfg.entry then order
  else
    (* rotate the dummy-free cycle so the entry leads *)
    Ba_tsp.Dtsp.rotate_to order t.cfg.Cfg.entry

(** [layout_cost t order] is the DTSP walk cost of a layout — by
    construction equal to the analytic control penalty of the layout
    under the profile the instance was built from (a property the test
    suite checks against {!Evaluate}). *)
let layout_cost t (order : Layout.order) : int =
  Ba_tsp.Dtsp.tour_cost t.dtsp (tour_of_order t order)
