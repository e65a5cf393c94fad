(* Differential suite for the sparse cost core: the CSR representation
   ({!Ba_tsp.Dtsp}) and the implicit symmetrization ({!Ba_tsp.Sym}) must
   be observationally identical to the dense implementations they
   replaced — same cost oracle on every pair — and everything built on
   them must depend only on the logical instance, not on which entries
   it stores explicitly: the same neighbor lists, the same randomized
   greedy start, the same solver trajectory, on random matrices, random
   CFG-derived instances and the real workload instances. *)

open Ba_tsp
open Ba_cfg
module Profile = Ba_profile.Profile
module Cost = Ba_machine.Cost
module Reduction = Ba_align.Reduction

let penalties = Ba_machine.Model.alpha21164
let gen_seed = QCheck2.Gen.int_bound 1_000_000

(* ---------------- dense references ---------------- *)

(* the legacy dense reduction: O(n²) edge_cost calls into an (n+1)²
   matrix, exactly as lib/align/reduction.ml used to build it *)
let dense_reduction p (cfg : Cfg.t) ~(profile : Profile.proc) =
  let n = Cfg.n_blocks cfg in
  let dummy = n in
  let predicted = Profile.predictions profile ~n_blocks:n in
  let block_cost i succ =
    Ba_machine.Model.edge_cost p (Cfg.block cfg i).Block.term ~succ
      ~predicted:predicted.(i)
      ~freqs:(Profile.block_freqs profile i)
  in
  let worst = ref 1 in
  for i = 0 to n - 1 do
    let w = ref (block_cost i None) in
    for j = 0 to n - 1 do
      if j <> i then w := max !w (block_cost i (Some j))
    done;
    worst := !worst + !w
  done;
  let forbid = !worst in
  let cost =
    Array.init (n + 1) (fun i ->
        Array.init (n + 1) (fun j ->
            if i = j then 0
            else if i = dummy then if j = cfg.Cfg.entry then 0 else forbid
            else if j = dummy then block_cost i None
            else block_cost i (Some j)))
  in
  (cost, forbid)

(* the legacy dense symmetrization matrix *)
let dense_sym (d : Dtsp.t) =
  let n = d.Dtsp.n in
  let cmax = Dtsp.max_cost d in
  let m = (2 * cmax) + 2 in
  let inf = 8 * (cmax + m + 1) in
  let nn = 2 * n in
  let cost = Array.make_matrix nn nn inf in
  for i = 0 to n - 1 do
    cost.(2 * i).((2 * i) + 1) <- -m;
    cost.((2 * i) + 1).(2 * i) <- -m;
    for j = 0 to n - 1 do
      if i <> j then begin
        cost.((2 * i) + 1).(2 * j) <- Dtsp.cost d i j;
        cost.(2 * j).((2 * i) + 1) <- Dtsp.cost d i j
      end
    done
  done;
  cost

(* the same logical matrix with every entry stored explicitly: each
   row's default is a value no entry takes *)
let all_explicit m =
  let n = Array.length m in
  let absent = 1 + Array.fold_left (Array.fold_left max) 0 m in
  Dtsp.of_rows ~n ~default:(Array.make n absent)
    (Array.map (fun row -> List.init n (fun j -> (j, row.(j)))) m)

let max_offdiag m =
  let n = Array.length m in
  let mx = ref 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j && m.(i).(j) > !mx then mx := m.(i).(j)
    done
  done;
  !mx

(* ---------------- generators ---------------- *)

let random_cfg_profile seed =
  let rng = Random.State.make [| seed |] in
  let n = 2 + Random.State.int rng 24 in
  let g = Ba_testutil.Gen.cfg rng ~n in
  let prof =
    Ba_testutil.Gen.profile_of ~seed:(seed + 1) g
      ~invocations:(1 + Random.State.int rng 40)
      ~max_steps:100
  in
  (g, Profile.proc prof 0)

(* random dense matrix with clustered values so per-row defaults and
   ties actually occur, plus an arbitrary (nonzero) diagonal *)
let random_matrix seed =
  let rng = Random.State.make [| seed |] in
  let n = 2 + Random.State.int rng 14 in
  let palette = [| 0; 3; 3; 7; 50; Random.State.int rng 1000 |] in
  Array.init n (fun _ ->
      Array.init n (fun _ ->
          palette.(Random.State.int rng (Array.length palette))))

(* ---------------- properties ---------------- *)

let check_oracle ~what d dense =
  let n = Array.length dense in
  if d.Dtsp.n <> n then
    QCheck2.Test.fail_reportf "%s: n %d <> %d" what d.Dtsp.n n;
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let got = Dtsp.cost d i j in
      if got <> dense.(i).(j) then
        QCheck2.Test.fail_reportf "%s: cost(%d,%d) = %d, want %d" what i j
          got
          dense.(i).(j)
    done
  done;
  if Dtsp.max_cost d <> max_offdiag dense then
    QCheck2.Test.fail_reportf "%s: max_cost %d, want %d" what
      (Dtsp.max_cost d) (max_offdiag dense);
  true

let prop_make_oracle =
  QCheck2.Test.make ~count:300 ~name:"make reproduces the dense matrix"
    gen_seed (fun seed ->
      let m = random_matrix seed in
      check_oracle ~what:"make" (Dtsp.make m) m)

let prop_reduction_oracle =
  QCheck2.Test.make ~count:200
    ~name:"sparse reduction = dense reduction on every (i,j)" gen_seed
    (fun seed ->
      let g, prof = random_cfg_profile seed in
      let inst = Reduction.build penalties g ~profile:prof in
      let dense, forbid = dense_reduction penalties g ~profile:prof in
      if inst.Reduction.forbid <> forbid then
        QCheck2.Test.fail_reportf "forbid %d, want %d" inst.Reduction.forbid
          forbid;
      check_oracle ~what:"reduction" inst.Reduction.dtsp dense)

let prop_sym_oracle =
  QCheck2.Test.make ~count:200
    ~name:"implicit Sym.cost = dense symmetric matrix" gen_seed (fun seed ->
      let d = Dtsp.make (random_matrix seed) in
      let s = Sym.of_dtsp d in
      let dense = dense_sym d in
      let nn = s.Sym.nn in
      for a = 0 to nn - 1 do
        for b = 0 to nn - 1 do
          if Sym.cost s a b <> dense.(a).(b) then
            QCheck2.Test.fail_reportf "sym cost(%d,%d) = %d, want %d" a b
              (Sym.cost s a b)
              dense.(a).(b)
        done
      done;
      true)

(* neighbor lists of every storage of one logical instance agree *)
let check_neighbors ~what (d : Dtsp.t) others =
  let lists d k = Neighbors.of_sym (Sym.of_dtsp d) ~k in
  List.for_all
    (fun k ->
      let want = lists d k in
      List.iteri
        (fun idx other ->
          let got = lists other k in
          Array.iteri
            (fun a w ->
              if got.(a) <> w then
                QCheck2.Test.fail_reportf
                  "%s: storage %d: neighbor list of city %d differs at k=%d \
                   (got %s, want %s)"
                  what idx a k
                  (String.concat ","
                     (Array.to_list (Array.map string_of_int got.(a))))
                  (String.concat ","
                     (Array.to_list (Array.map string_of_int w))))
            want)
        others;
      true)
    [ 3; 8; 12 ]

let prop_neighbors_random =
  QCheck2.Test.make ~count:150
    ~name:"neighbor lists identical across storage (random)" gen_seed
    (fun seed ->
      let m = random_matrix seed in
      check_neighbors ~what:"random" (Dtsp.make m) [ all_explicit m ])

let prop_neighbors_reduction =
  QCheck2.Test.make ~count:150
    ~name:"neighbor lists identical across storage (reduction)" gen_seed
    (fun seed ->
      let g, prof = random_cfg_profile seed in
      let inst = Reduction.build penalties g ~profile:prof in
      let dense, _ = dense_reduction penalties g ~profile:prof in
      check_neighbors ~what:"reduction" inst.Reduction.dtsp
        [ Dtsp.make dense; all_explicit dense ])

let prop_solve_identical =
  QCheck2.Test.make ~count:60
    ~name:"Iterated.solve tours bit-identical across constructions"
    gen_seed (fun seed ->
      let g, prof = random_cfg_profile seed in
      let inst = Reduction.build penalties g ~profile:prof in
      let dense, _ = dense_reduction penalties g ~profile:prof in
      let t1, s1 = Iterated.solve inst.Reduction.dtsp in
      let t2, s2 = Iterated.solve (Dtsp.make dense) in
      if t1 <> t2 then QCheck2.Test.fail_reportf "tours differ";
      if s1 <> s2 then QCheck2.Test.fail_reportf "solver stats differ";
      true)

(* the randomized greedy draws one float per live edge from both the
   explicit and the default stream, so every storage of one instance
   consumes the same RNG stream and builds the same start.  At this
   size [Dtsp.make] stores the reduction's rows exactly as
   [Reduction.build] does, so the all-explicit storage is the one that
   puts dead edges — endpoints already linked — into the explicit
   stream. *)
let test_greedy_storage () =
  let rng = Random.State.make [| 5 |] in
  let g = Ba_testutil.Gen.cfg rng ~n:600 in
  let prof =
    Profile.proc
      (Ba_testutil.Gen.profile_of ~seed:6 g ~invocations:20 ~max_steps:4000)
      0
  in
  let inst = Reduction.build penalties g ~profile:prof in
  let dense, _ = dense_reduction penalties g ~profile:prof in
  let start d =
    let r = Random.State.make [| 9 |] in
    let t = Construct.greedy_edge ~rng:r d in
    (t, Random.State.bits r)
  in
  let t1, next1 = start inst.Reduction.dtsp in
  List.iter
    (fun (what, d) ->
      let t2, next2 = start d in
      Alcotest.(check (array int)) (what ^ ": tour") t1 t2;
      Alcotest.(check int) (what ^ ": rng state after") next1 next2)
    [ ("make", Dtsp.make dense); ("all explicit", all_explicit dense) ]

(* ---------------- workload instances ---------------- *)

(* the real SPEC92 procedures: oracle + neighbors + trajectory on a
   size-capped sample (the dense reference is O(n²)) *)
let test_workload_instances () =
  let insts =
    Ba_harness.Synthetic.workload_instances ()
    |> List.filter (fun i ->
           Cfg.n_blocks i.Ba_harness.Synthetic.g <= 120)
  in
  Alcotest.(check bool) "have workload instances" true (insts <> []);
  List.iteri
    (fun idx { Ba_harness.Synthetic.name; g; prof } ->
      let inst = Reduction.build penalties g ~profile:prof in
      let dense, forbid = dense_reduction penalties g ~profile:prof in
      Alcotest.(check int) (name ^ ": forbid") forbid inst.Reduction.forbid;
      Alcotest.(check bool)
        (name ^ ": oracle")
        true
        (check_oracle ~what:name inst.Reduction.dtsp dense);
      (* neighbors + full solve identity on a further sample: both are
         quadratic-or-worse in the dense reference *)
      if idx mod 7 = 0 then begin
        Alcotest.(check bool)
          (name ^ ": neighbors")
          true
          (check_neighbors ~what:name inst.Reduction.dtsp [ Dtsp.make dense ]);
        let t1, _ = Iterated.solve inst.Reduction.dtsp in
        let t2, _ = Iterated.solve (Dtsp.make dense) in
        Alcotest.(check (array int)) (name ^ ": tour") t2 t1
      end)
    insts

let () =
  Alcotest.run "sparse-prop"
    [
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest prop_make_oracle;
          QCheck_alcotest.to_alcotest prop_reduction_oracle;
          QCheck_alcotest.to_alcotest prop_sym_oracle;
        ] );
      ( "neighbors",
        [
          QCheck_alcotest.to_alcotest prop_neighbors_random;
          QCheck_alcotest.to_alcotest prop_neighbors_reduction;
        ] );
      ( "trajectory",
        [
          QCheck_alcotest.to_alcotest prop_solve_identical;
          Alcotest.test_case "workload instances" `Slow
            test_workload_instances;
          Alcotest.test_case "randomized greedy independent of storage" `Quick
            test_greedy_storage;
        ] );
    ]
