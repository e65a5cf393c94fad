(** Property suite for the structural-analysis library.

    Three fronts: the CHK dominator tree against a naive
    reachability-based oracle (a dominates b iff deleting a
    disconnects b from the entry), well-formedness of the natural-loop
    forest (headers dominate their bodies, nesting is a forest,
    back/irreducible edges are classified correctly), and the static
    profile estimator's hard invariant — every estimated profile
    validates and satisfies exact per-block flow conservation on any
    random CFG, including irreducible flow and blocks that cannot
    reach an exit. *)

open Ba_cfg
module Dom = Ba_analysis.Dom
module Loops = Ba_analysis.Loops
module Estimate = Ba_analysis.Estimate
module Profile = Ba_profile.Profile

let gen_seed = QCheck2.Gen.int_bound 1_000_000

let cfg_of ~seed ~max_n =
  let rng = Random.State.make [| 0xD0A1; seed |] in
  Ba_testutil.Gen.cfg rng ~n:(1 + Random.State.int rng max_n)

(* reachability from the entry with one block deleted *)
let reach_without (g : Cfg.t) skip =
  let n = Cfg.n_blocks g in
  let seen = Array.make n false in
  let rec go l =
    if (skip < 0 || l <> skip) && not seen.(l) then begin
      seen.(l) <- true;
      List.iter go (Cfg.successors g l)
    end
  in
  go g.Cfg.entry;
  seen

let prop_dom_oracle =
  QCheck2.Test.make ~count:200 ~name:"dominators match the deletion oracle"
    gen_seed (fun seed ->
      let g = cfg_of ~seed ~max_n:20 in
      let dom = Dom.compute g in
      let n = Cfg.n_blocks g in
      let reachable = reach_without g (-1) in
      for a = 0 to n - 1 do
        let without_a = reach_without g a in
        for b = 0 to n - 1 do
          let expect =
            reachable.(a) && reachable.(b)
            && (a = b || not without_a.(b))
          in
          if Dom.dominates dom a b <> expect then
            QCheck2.Test.fail_reportf "dominates %d %d: got %b, oracle %b"
              a b (Dom.dominates dom a b) expect
        done
      done;
      (* idom/depth consistency on reachable non-entry blocks *)
      for b = 0 to n - 1 do
        if reachable.(b) then
          match Dom.idom dom b with
          | None ->
              if b <> g.Cfg.entry then
                QCheck2.Test.fail_reportf "block %d has no idom" b
          | Some p ->
              if not (Dom.dominates dom p b) then
                QCheck2.Test.fail_reportf "idom %d of %d does not dominate" p b;
              if Dom.depth dom b <> Dom.depth dom p + 1 then
                QCheck2.Test.fail_reportf "depth of %d is not idom depth + 1" b
      done;
      true)

let prop_loop_forest =
  QCheck2.Test.make ~count:200 ~name:"loop forest is well-formed" gen_seed
    (fun seed ->
      let g = cfg_of ~seed ~max_n:30 in
      let dom = Dom.compute g in
      let loops = Loops.compute dom in
      let n = Cfg.n_blocks g in
      let larr = Loops.loops loops in
      Array.iteri
        (fun li (l : Loops.loop) ->
          (* nesting is a forest: parents are discovered later (outer) *)
          if l.Loops.parent >= 0 then begin
            if l.Loops.parent <= li then
              QCheck2.Test.fail_reportf "loop %d has parent %d" li l.Loops.parent;
            let p = larr.(l.Loops.parent) in
            if l.Loops.depth <> p.Loops.depth + 1 then
              QCheck2.Test.fail_reportf "loop %d depth is not parent depth + 1" li;
            if not (Dom.dominates dom p.Loops.header l.Loops.header) then
              QCheck2.Test.fail_reportf
                "outer header %d does not dominate inner header %d"
                p.Loops.header l.Loops.header
          end
          else if l.Loops.depth <> 1 then
            QCheck2.Test.fail_reportf "top-level loop %d has depth %d" li
              l.Loops.depth;
          (* back edges are CFG edges whose target dominates the tail *)
          List.iter
            (fun (t, h) ->
              if h <> l.Loops.header then
                QCheck2.Test.fail_reportf "back edge of loop %d targets %d" li h;
              if not (Block.has_successor (Cfg.block g t) h) then
                QCheck2.Test.fail_reportf "back edge %d->%d is not an edge" t h;
              if not (Dom.dominates dom h t) then
                QCheck2.Test.fail_reportf "header %d does not dominate tail %d" h t)
            l.Loops.back_edges;
          if l.Loops.back_edges = [] then
            QCheck2.Test.fail_reportf "loop %d has no back edge" li)
        larr;
      (* headers dominate every member; membership is ancestor-closed *)
      for b = 0 to n - 1 do
        let li = Loops.innermost loops b in
        if li >= 0 then begin
          let rec up j =
            if j >= 0 then begin
              if not (Loops.mem loops j b) then
                QCheck2.Test.fail_reportf "block %d not member of ancestor %d" b j;
              if not (Dom.dominates dom larr.(j).Loops.header b) then
                QCheck2.Test.fail_reportf "header of loop %d does not dominate %d"
                  j b;
              up larr.(j).Loops.parent
            end
          in
          up li;
          if Loops.depth_of loops b <> larr.(li).Loops.depth then
            QCheck2.Test.fail_reportf "depth_of %d disagrees with its loop" b
        end
      done;
      (* direct-member counts add up *)
      let counted = Array.make (Array.length larr) 0 in
      for b = 0 to n - 1 do
        let li = Loops.innermost loops b in
        if li >= 0 then counted.(li) <- counted.(li) + 1
      done;
      Array.iteri
        (fun li (l : Loops.loop) ->
          if counted.(li) <> l.Loops.n_blocks then
            QCheck2.Test.fail_reportf "loop %d n_blocks %d, counted %d" li
              l.Loops.n_blocks counted.(li))
        larr;
      (* irreducible witnesses: retreating CFG edges, target not dominating *)
      List.iter
        (fun (u, v) ->
          if not (Block.has_successor (Cfg.block g u) v) then
            QCheck2.Test.fail_reportf "irreducible %d->%d is not an edge" u v;
          if Dom.rpo_number dom v > Dom.rpo_number dom u then
            QCheck2.Test.fail_reportf "irreducible %d->%d is not retreating" u v;
          if Dom.dominates dom v u then
            QCheck2.Test.fail_reportf "irreducible %d->%d is a back edge" u v)
        (Loops.irreducible loops);
      true)

(* the estimator's hard invariant: validate + exact Kirchhoff *)
let check_flow (g : Cfg.t) (p : Profile.proc) =
  let n = Cfg.n_blocks g in
  let inflow = Array.make n 0 in
  Array.iter
    (Array.iter (fun (d, c) -> inflow.(d) <- inflow.(d) + c))
    p.Profile.freqs;
  for b = 0 to n - 1 do
    let out = Profile.out_count p b in
    match (Cfg.block g b).Block.term with
    | Block.Exit -> ()
    | _ when b = g.Cfg.entry ->
        if out < inflow.(b) then
          QCheck2.Test.fail_reportf "entry %d: outflow %d < inflow %d" b out
            inflow.(b)
    | _ ->
        if out <> inflow.(b) then
          QCheck2.Test.fail_reportf "block %d: outflow %d <> inflow %d" b out
            inflow.(b)
  done

let prop_estimate_valid =
  QCheck2.Test.make ~count:300
    ~name:"estimated profiles validate and conserve flow exactly" gen_seed
    (fun seed ->
      let g = cfg_of ~seed ~max_n:60 in
      let profile = Estimate.program [| g |] in
      (match Ba_check.Lint.gate ~profile [| g |] with
      | Ok () -> ()
      | Error e ->
          QCheck2.Test.fail_reportf "estimate fails the lint gate: %s"
            (Ba_robust.Errors.to_string e));
      check_flow g profile.Profile.procs.(0);
      (* no profile-rule errors, and BA207 must not fire at all *)
      let report =
        Ba_check.Lint.analyze ~profile [| g |]
      in
      List.iter
        (fun (d : Ba_check.Diagnostic.t) ->
          if
            String.length d.code >= 3
            && String.sub d.code 0 3 = "BA2"
            && d.severity = Ba_check.Diagnostic.Error
          then
            QCheck2.Test.fail_reportf "estimate trips %s (%s)" d.code d.rule;
          if d.rule = "prof-flow-conservation" then
            QCheck2.Test.fail_reportf "estimate leaks flow: %s" d.message)
        report.Ba_check.Lint.diags;
      true)

let prop_estimate_deterministic =
  QCheck2.Test.make ~count:100 ~name:"estimation is deterministic" gen_seed
    (fun seed ->
      let g = cfg_of ~seed ~max_n:60 in
      let a = Estimate.proc g and b = Estimate.proc g in
      if a <> b then QCheck2.Test.fail_report "two estimates differ";
      true)

let () =
  Alcotest.run "analysis-prop"
    [
      ( "dominators",
        [ QCheck_alcotest.to_alcotest prop_dom_oracle ] );
      ( "loops",
        [ QCheck_alcotest.to_alcotest prop_loop_forest ] );
      ( "estimate",
        [
          QCheck_alcotest.to_alcotest prop_estimate_valid;
          QCheck_alcotest.to_alcotest prop_estimate_deterministic;
        ] );
    ]
