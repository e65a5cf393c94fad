(** Solver trajectory identities.

    One deterministic 3-Opt trajectory per instance: the identity tour,
    [activate_all] + [run], then [kicks] double-bridge kicks drawn from
    [Random.State.make [|seed; n; kicks|]], each re-optimized and never
    undone — so the final tour is a pure function of the instance, the
    candidate lists and the rng.  Pinned here:

    - the committed baseline: best cost, tour hash, moves and don't-look
      elisions per size, on the synthetic procedures (seed 7, k 12, 256
      kicks) and on the 10⁵-block switch family (8 kicks);
    - the flat arrays and the two-level tour walk the same trajectory,
      compared on the full tour ([Hashtbl.hash] samples only a prefix
      of an array);
    - candidate lists and trajectory are identical on a 2-domain pool;
    - every final layout passes the independent certifier. *)

open Ba_tsp
module Reduction = Ba_align.Reduction
module Certify = Ba_check.Certify
module Executor = Ba_engine.Executor

let model = Ba_machine.Model.alpha21164
let seed = 7
let k = 12

type outcome = {
  nbr : int array array;
  tour : int array;
  best_cost : int;
  moves : int;
  scans_skipped : int;
}

let trajectory ?(exec = Executor.Seq) ~repr ~kicks (g, prof) n =
  let inst = Reduction.build model g ~profile:prof in
  let s = Sym.of_dtsp inst.Reduction.dtsp in
  let nbr = Neighbors.of_sym ~exec s ~k in
  let st = Three_opt.init ~repr s ~nbr ~tour:(Array.init s.Sym.nn Fun.id) in
  let krng = Random.State.make [| seed; n; kicks |] in
  Three_opt.activate_all st;
  Three_opt.run st;
  for _ = 1 to kicks do
    List.iter (Three_opt.activate st) (Iterated.double_bridge st krng);
    Three_opt.run st
  done;
  let tour = Three_opt.tour st in
  let order = Reduction.order_of_tour inst (Sym.extract s tour) in
  (match
     Certify.proc_cert
       ~claimed:(Reduction.layout_cost inst order)
       ~hk:Certify.Skip ~sym_check:(n <= 1024) ~proc:0 model g ~profile:prof
       ~order
   with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "n=%d: certification failed: %s" n
        (Certify.error_to_string e));
  {
    nbr;
    tour;
    best_cost = Three_opt.cost st;
    moves = st.Three_opt.moves_2opt + st.Three_opt.moves_3opt;
    scans_skipped = st.Three_opt.scans_skipped;
  }

(* (n, best_cost, tour hash, moves, scans_skipped) of the baseline
   trajectory: heap-select neighbor lists, flat tour below 8192 cities *)
let check_baseline (n, cost, hash, moves, skipped) o =
  let pin what = Alcotest.(check int) (Printf.sprintf "n=%d %s" n what) in
  pin "best cost" cost o.best_cost;
  pin "tour hash" hash (Hashtbl.hash o.tour);
  pin "moves" moves o.moves;
  pin "scans skipped" skipped o.scans_skipped

let syn_baseline =
  [
    (64, -47552, 199778018, 93, 82);
    (256, -242543, 486334030, 22, 19);
    (1024, -4100, 780747208, 0, 0);
    (4096, -11577561, 563448963, 84, 8);
  ]

let test_syn () =
  List.iter
    (fun ((n, _, _, _, _) as pin) ->
      let rng = Random.State.make [| seed; n |] in
      let g = Ba_harness.Synthetic.cfg rng ~n in
      let prof =
        Ba_harness.Synthetic.profile rng g ~invocations:100 ~max_steps:(8 * n)
      in
      let run repr = trajectory ~repr ~kicks:256 (g, prof) n in
      let flat = run Tour_repr.Array and two = run Tour_repr.Two_level in
      check_baseline pin flat;
      Alcotest.(check (array int))
        (Printf.sprintf "n=%d two-level tour = flat tour" n)
        flat.tour two.tour;
      Alcotest.(check (pair int int))
        (Printf.sprintf "n=%d two-level moves/skips = flat" n)
        (flat.moves, flat.scans_skipped)
        (two.moves, two.scans_skipped))
    syn_baseline

let test_scale () =
  let n = 100_000 in
  let inst = Ba_workloads.Scale.instance Switch ~n ~invocations:1024 in
  let run exec = trajectory ~exec ~repr:Tour_repr.Auto ~kicks:8 inst n in
  let seq = run Executor.Seq and pool = run (Executor.Pool 2) in
  check_baseline (n, -6802569774195, 499302583, 1539, 1) seq;
  Alcotest.(check bool) "pooled neighbor lists = sequential" true
    (seq.nbr = pool.nbr);
  Alcotest.(check (array int)) "pooled trajectory = sequential" seq.tour
    pool.tour

let () =
  Alcotest.run "trajectory"
    [
      ( "identity",
        [
          Alcotest.test_case "syn baseline, flat = two-level" `Quick test_syn;
          Alcotest.test_case "scale-switch 1e5 baseline, jobs 1 = 2" `Quick
            test_scale;
        ] );
    ]
