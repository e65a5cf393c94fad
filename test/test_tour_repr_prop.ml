(** Differential suite for the pluggable tour representation
    ({!Ba_tsp.Tour_repr} / {!Ba_tsp.Two_level}).

    The two-level √n-segment structure is only allowed to change
    complexity, never behavior: both representations preserve absolute
    tour positions exactly, so every query and every mutation must
    agree with the flat-array oracle — and, one level up, whole
    {!Ba_tsp.Iterated.solve} trajectories must be move-for-move
    identical whichever representation carries them.  The sparse-aware
    construction heuristics get the same treatment against the dense
    scans they replaced. *)

open Ba_tsp

let gen_seed = QCheck2.Gen.int_bound 1_000_000

(* ------------------------------------------------------------------ *)
(* flat oracle: a plain cyclic int array *)

let oracle_reverse t l r =
  let n = Array.length t in
  let len = ((r - l + n) mod n) + 1 in
  for k = 0 to (len / 2) - 1 do
    let a = (l + k) mod n and b = (r - k + n) mod n in
    let tmp = t.(a) in
    t.(a) <- t.(b);
    t.(b) <- tmp
  done

let random_tour rng n =
  let t = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = t.(i) in
    t.(i) <- t.(j);
    t.(j) <- tmp
  done;
  t

(* ---------------- two-level vs oracle: queries + reverse ----------- *)

let prop_two_level_matches_oracle =
  QCheck2.Test.make ~count:400
    ~name:"two-level reverse/set_tour/queries match the flat oracle"
    gen_seed (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 4 + Random.State.int rng 200 in
      let oracle = random_tour rng n in
      let tl = Two_level.create ~tour:oracle n in
      let check_all () =
        if Two_level.to_array tl <> oracle then
          QCheck2.Test.fail_reportf "to_array diverged (n=%d)" n;
        for _ = 1 to 8 do
          let p = Random.State.int rng n in
          let c = oracle.(p) in
          if Two_level.city_at tl p <> c then
            QCheck2.Test.fail_reportf "city_at %d diverged" p;
          if Two_level.pos tl c <> p then
            QCheck2.Test.fail_reportf "pos %d diverged" c;
          if Two_level.succ tl c <> oracle.((p + 1) mod n) then
            QCheck2.Test.fail_reportf "succ %d diverged" c;
          if Two_level.pred tl c <> oracle.((p + n - 1) mod n) then
            QCheck2.Test.fail_reportf "pred %d diverged" c
        done
      in
      check_all ();
      for _ = 1 to 40 do
        if Random.State.int rng 10 = 0 then begin
          let t' = random_tour rng n in
          Array.blit t' 0 oracle 0 n;
          Two_level.set_tour tl t'
        end
        else begin
          let l = Random.State.int rng n and r = Random.State.int rng n in
          oracle_reverse oracle l r;
          Two_level.reverse tl l r
        end;
        check_all ()
      done;
      true)

(* ---------------- 3-opt reconnections: reversals vs segment algebra  *)

(* the declarative meaning of a reconnection (DESIGN.md §6): with s1 =
   offsets 1..jj and s2 = offsets jj+1..kk from pi, the window becomes
   T3 = [rev s1, rev s2], T4 = [s2, s1], T5 = [s2, rev s1],
   T6 = [rev s2, s1]; every other position keeps its city *)
let oracle_reconnect t ~pi ~jj ~kk (ty : Three_opt.reconnection) =
  let n = Array.length t in
  let at o = t.((pi + o) mod n) in
  let s1 = List.init jj (fun u -> at (1 + u))
  and s2 = List.init (kk - jj) (fun u -> at (jj + 1 + u)) in
  let window =
    match ty with
    | T3 -> List.rev s1 @ List.rev s2
    | T4 -> s2 @ s1
    | T5 -> s2 @ List.rev s1
    | T6 -> List.rev s2 @ s1
  in
  let t' = Array.copy t in
  List.iteri (fun u c -> t'.((pi + 1 + u) mod n) <- c) window;
  t'

let prop_reconnect_matches_segment_algebra =
  QCheck2.Test.make ~count:400
    ~name:"3-opt reversal sequences realize the segment algebra (flat, two-level)"
    gen_seed (fun seed ->
      let rng = Random.State.make [| seed + 7 |] in
      let n = 5 + Random.State.int rng 120 in
      let oracle = random_tour rng n in
      let flat = Tour_repr.make Tour_repr.Array ~n_cities:n oracle in
      let two = Tour_repr.make Tour_repr.Two_level ~n_cities:n oracle in
      for step = 1 to 25 do
        (* 1 ≤ jj < kk ≤ n−1: two non-empty window segments; the
           window's extremes get extra weight *)
        let pi = Random.State.int rng n in
        let kk =
          if Random.State.int rng 4 = 0 then n - 1
          else 2 + Random.State.int rng (n - 2)
        in
        let jj =
          match Random.State.int rng 4 with
          | 0 -> 1
          | 1 -> kk - 1
          | _ -> 1 + Random.State.int rng (kk - 1)
        in
        let ty : Three_opt.reconnection =
          match Random.State.int rng 4 with
          | 0 -> T3
          | 1 -> T4
          | 2 -> T5
          | _ -> T6
        in
        let want = oracle_reconnect oracle ~pi ~jj ~kk ty in
        Array.blit want 0 oracle 0 n;
        List.iter
          (fun (name, repr) ->
            Three_opt.reconnect_reversals ~n ~pi ~jj ~kk ty
              (Tour_repr.reverse repr);
            if Tour_repr.to_array repr <> oracle then
              QCheck2.Test.fail_reportf
                "%s diverged at step %d (n=%d pi=%d jj=%d kk=%d)" name step n
                pi jj kk;
            (* positions and links must track the permutation *)
            Array.iteri
              (fun p c ->
                if
                  Tour_repr.pos repr c <> p
                  || Tour_repr.succ repr c <> oracle.((p + 1) mod n)
                  || Tour_repr.pred repr c <> oracle.((p + n - 1) mod n)
                then
                  QCheck2.Test.fail_reportf "%s queries diverged at step %d"
                    name step)
              oracle)
          [ ("flat", flat); ("two-level", two) ]
      done;
      true)

(* ---------------- shift interleaved with reverse ------------------- *)

(* the city at position p moves to p − k *)
let oracle_shift t k =
  let n = Array.length t in
  let old = Array.copy t in
  Array.iteri (fun p _ -> t.(p) <- old.((((p + k) mod n) + n) mod n)) t

let prop_shift_reverse_agree =
  QCheck2.Test.make ~count:300
    ~name:"shift interleaved with reverse agrees op-by-op (flat, two-level)"
    gen_seed (fun seed ->
      let rng = Random.State.make [| seed + 13 |] in
      let n = 4 + Random.State.int rng 200 in
      let oracle = random_tour rng n in
      let flat = Tour_repr.make Tour_repr.Array ~n_cities:n oracle in
      let two = Tour_repr.make Tour_repr.Two_level ~n_cities:n oracle in
      for step = 1 to 60 do
        (match Random.State.int rng 3 with
        | 0 ->
            (* mostly the kick's rotate-by-one and its inverse *)
            let k =
              match Random.State.int rng 3 with
              | 0 -> 1
              | 1 -> -1
              | _ -> Random.State.int rng (2 * n) - n
            in
            oracle_shift oracle k;
            Tour_repr.shift flat k;
            Tour_repr.shift two k
        | _ ->
            let l = Random.State.int rng n and r = Random.State.int rng n in
            oracle_reverse oracle l r;
            Tour_repr.reverse flat l r;
            Tour_repr.reverse two l r);
        List.iter
          (fun (name, repr) ->
            if Tour_repr.to_array repr <> oracle then
              QCheck2.Test.fail_reportf "%s diverged at step %d (n=%d)" name
                step n;
            let p = Random.State.int rng n in
            let c = oracle.(p) in
            if
              Tour_repr.city_at repr p <> c
              || Tour_repr.pos repr c <> p
              || Tour_repr.succ repr c <> oracle.((p + 1) mod n)
              || Tour_repr.pred repr c <> oracle.((p + n - 1) mod n)
            then
              QCheck2.Test.fail_reportf "%s queries diverged at step %d" name
                step)
          [ ("flat", flat); ("two-level", two) ]
      done;
      true)

(* The flat shift is three reversals; pin the rotation amounts at and
   beyond its edges: none, one either way, a full turn, n − 1 and
   multiples of n either way. *)
let test_shift_edges () =
  List.iter
    (fun n ->
      let tour = random_tour (Random.State.make [| n |]) n in
      List.iter
        (fun k ->
          let want = Array.copy tour in
          oracle_shift want k;
          let reprs =
            ("flat", Tour_repr.make Tour_repr.Array ~n_cities:n tour)
            :: (if n >= 4 then
                  [ ("two-level", Tour_repr.make Tour_repr.Two_level ~n_cities:n tour) ]
                else [])
          in
          List.iter
            (fun (name, repr) ->
              Tour_repr.shift repr k;
              let what = Printf.sprintf "%s n=%d k=%d" name n k in
              Alcotest.(check (array int)) what want (Tour_repr.to_array repr);
              Array.iteri
                (fun p c -> Alcotest.(check int) (what ^ " pos") p (Tour_repr.pos repr c))
                want)
            reprs)
        [ 0; 1; -1; n - 1; -(n - 1); n; -n; (2 * n) + 3; -((2 * n) + 3) ])
    [ 1; 2; 3; 4; 7; 64 ]

(* ---------------- full-trajectory identity across representations -- *)

let dtsp_of_seed ?(min_n = 4) ?(max_n = 14) seed =
  let rng = Random.State.make [| seed |] in
  let n = min_n + Random.State.int rng (max_n - min_n + 1) in
  Dtsp.make
    (Array.init n (fun _ -> Array.init n (fun _ -> Random.State.int rng 100)))

let run_three_opt ~dont_look ~repr seed =
  let d = dtsp_of_seed seed in
  let s = Sym.of_dtsp d in
  let rng = Random.State.make [| seed + 1 |] in
  let nbr = Neighbors.of_sym s ~k:8 in
  let tour = Sym.expand s (random_tour rng d.Dtsp.n) in
  let st = Three_opt.init ~dont_look ~repr s ~nbr ~tour in
  Three_opt.activate_all st;
  Three_opt.run st;
  ( Three_opt.tour st,
    Three_opt.cost st,
    st.Three_opt.moves_2opt,
    st.Three_opt.moves_3opt )

let prop_three_opt_repr_identical =
  QCheck2.Test.make ~count:300
    ~name:"3-Opt descent identical on Array and Two_level (bits on and off)"
    gen_seed (fun seed ->
      List.iter
        (fun dont_look ->
          let a = run_three_opt ~dont_look ~repr:Tour_repr.Array seed in
          let t = run_three_opt ~dont_look ~repr:Tour_repr.Two_level seed in
          if a <> t then
            QCheck2.Test.fail_reportf
              "trajectories diverged (dont_look=%b)" dont_look)
        [ true; false ];
      true)

let prop_solve_repr_identical =
  QCheck2.Test.make ~count:40
    ~name:"Iterated.solve trajectory identical on Array and Two_level"
    gen_seed (fun seed ->
      let d = dtsp_of_seed ~min_n:4 ~max_n:12 seed in
      let solve repr =
        let config =
          { Iterated.default with runs = 3; max_kicks = 12; seed;
            tour_repr = repr }
        in
        Iterated.solve ~config d
      in
      let ta, sa = solve Tour_repr.Array in
      let tt, st = solve Tour_repr.Two_level in
      if ta <> tt then QCheck2.Test.fail_reportf "best tours differ";
      if sa <> st then
        QCheck2.Test.fail_reportf
          "stats differ: moves %d+%d / %d+%d, kicks %d / %d"
          sa.Iterated.moves_2opt sa.Iterated.moves_3opt st.Iterated.moves_2opt
          st.Iterated.moves_3opt sa.Iterated.kicks st.Iterated.kicks;
      true)

(* ---------------- sparse constructions vs dense oracles ------------ *)

(* random sparse instance built through of_rows: per-row default plus a
   few deviations — the shape the sparse streams are designed for *)
let sparse_dtsp_of_seed ?(min_n = 4) ?(max_n = 40) seed =
  let rng = Random.State.make [| seed + 11 |] in
  let n = min_n + Random.State.int rng (max_n - min_n + 1) in
  let default = Array.init n (fun _ -> 10 + Random.State.int rng 50) in
  let rows =
    Array.init n (fun _ ->
        let k = Random.State.int rng (min n 6) in
        let cols = Array.init k (fun _ -> Random.State.int rng n) in
        Array.sort compare cols;
        let uniq = ref [] in
        Array.iteri
          (fun i c -> if i = 0 || cols.(i - 1) <> c then uniq := c :: !uniq)
          cols;
        List.rev_map (fun c -> (c, Random.State.int rng 100)) !uniq)
  in
  Dtsp.of_rows ~n ~default rows

(* the historical dense nearest-neighbor scan, kept verbatim as oracle *)
let dense_nearest_neighbor ?rng ?(choices = 1) (d : Dtsp.t) ~start =
  let n = d.Dtsp.n in
  let visited = Array.make n false in
  let tour = Array.make n start in
  visited.(start) <- true;
  let cur = ref start in
  let cand = Array.make choices (max_int, -1) in
  for i = 1 to n - 1 do
    let n_cand = ref 0 in
    for j = 0 to n - 1 do
      if not visited.(j) then begin
        let c = Dtsp.cost d !cur j in
        if !n_cand < choices then begin
          cand.(!n_cand) <- (c, j);
          incr n_cand;
          let k = ref (!n_cand - 1) in
          while !k > 0 && fst cand.(!k) < fst cand.(!k - 1) do
            let t = cand.(!k) in
            cand.(!k) <- cand.(!k - 1);
            cand.(!k - 1) <- t;
            decr k
          done
        end
        else if c < fst cand.(choices - 1) then begin
          cand.(choices - 1) <- (c, j);
          let k = ref (choices - 1) in
          while !k > 0 && fst cand.(!k) < fst cand.(!k - 1) do
            let t = cand.(!k) in
            cand.(!k) <- cand.(!k - 1);
            cand.(!k - 1) <- t;
            decr k
          done
        end
      end
    done;
    let pick =
      match rng with
      | None -> 0
      | Some st -> Random.State.int st !n_cand
    in
    let _, next = cand.(pick) in
    tour.(i) <- next;
    visited.(next) <- true;
    cur := next
  done;
  tour

(* the historical dense greedy scan (deterministic form), as oracle *)
let dense_greedy (d : Dtsp.t) =
  let n = d.Dtsp.n in
  let next = Array.make n (-1) and prev = Array.make n (-1) in
  let parent = Array.init n Fun.id in
  let rec find i =
    if parent.(i) = i then i
    else begin
      parent.(i) <- find parent.(i);
      parent.(i)
    end
  in
  let accepted = ref 0 in
  let try_edge i j =
    if
      !accepted < n - 1 && i <> j && next.(i) < 0 && prev.(j) < 0
      && find i <> find j
    then begin
      next.(i) <- j;
      prev.(j) <- i;
      parent.(find i) <- find j;
      incr accepted
    end
  in
  let edges = Array.make (n * (n - 1)) (0, 0, 0) in
  let k = ref 0 in
  let row = Array.make n 0 in
  for i = 0 to n - 1 do
    Dtsp.blit_row d i row;
    for j = 0 to n - 1 do
      if i <> j then begin
        edges.(!k) <- (row.(j), i, j);
        incr k
      end
    done
  done;
  Array.sort compare edges;
  Array.iter (fun (_, i, j) -> try_edge i j) edges;
  let head = ref (-1) in
  for j = 0 to n - 1 do
    if prev.(j) < 0 then head := j
  done;
  let tour = Array.make n 0 in
  let cur = ref !head in
  for i = 0 to n - 1 do
    tour.(i) <- !cur;
    cur := next.(!cur)
  done;
  tour

let prop_nn_sparse_equals_dense =
  QCheck2.Test.make ~count:300
    ~name:"sparse nearest-neighbor = dense oracle (incl. RNG stream)"
    gen_seed (fun seed ->
      List.iter
        (fun d ->
          let rng = Random.State.make [| seed + 3 |] in
          let n = d.Dtsp.n in
          let start = Random.State.int rng n in
          let choices = 1 + Random.State.int rng 4 in
          (* deterministic *)
          if
            Construct.nearest_neighbor d ~start
            <> dense_nearest_neighbor d ~start
          then QCheck2.Test.fail_reportf "deterministic NN diverged";
          (* randomized: identical draws → identical tours *)
          let r1 = Random.State.make [| seed + 4 |] in
          let r2 = Random.State.make [| seed + 4 |] in
          let a = Construct.nearest_neighbor ~rng:r1 ~choices d ~start in
          let b = dense_nearest_neighbor ~rng:r2 ~choices d ~start in
          if a <> b then
            QCheck2.Test.fail_reportf "randomized NN diverged (n=%d)" n;
          (* and the RNG streams stayed in lockstep *)
          if Random.State.int r1 1000 <> Random.State.int r2 1000 then
            QCheck2.Test.fail_reportf "NN consumed a different RNG stream")
        [ dtsp_of_seed ~min_n:4 ~max_n:30 seed; sparse_dtsp_of_seed seed ];
      true)

let prop_greedy_sparse_equals_dense =
  QCheck2.Test.make ~count:300
    ~name:"deterministic sparse greedy = dense oracle" gen_seed (fun seed ->
      List.iter
        (fun d ->
          if Construct.greedy_edge d <> dense_greedy d then
            QCheck2.Test.fail_reportf "deterministic greedy diverged (n=%d)"
              d.Dtsp.n)
        [ dtsp_of_seed ~min_n:4 ~max_n:30 seed; sparse_dtsp_of_seed seed ];
      true)

(* a fixed RNG must reproduce the same randomized greedy tour across
   calls *)
let prop_greedy_rng_deterministic =
  QCheck2.Test.make ~count:150
    ~name:"randomized greedy deterministic for a fixed RNG" gen_seed
    (fun seed ->
      let d = sparse_dtsp_of_seed seed in
      let t1 =
        Construct.greedy_edge ~rng:(Random.State.make [| seed |]) d
      in
      let t2 =
        Construct.greedy_edge ~rng:(Random.State.make [| seed |]) d
      in
      if t1 <> t2 then QCheck2.Test.fail_reportf "randomized greedy unstable";
      if not (Dtsp.is_tour d t1) then
        QCheck2.Test.fail_reportf "randomized greedy returned a non-tour";
      true)

let () =
  Alcotest.run "tour_repr-prop"
    [
      ( "two-level",
        [
          QCheck_alcotest.to_alcotest prop_two_level_matches_oracle;
          QCheck_alcotest.to_alcotest prop_reconnect_matches_segment_algebra;
          QCheck_alcotest.to_alcotest prop_shift_reverse_agree;
          Alcotest.test_case "shift at and beyond its edges" `Quick
            test_shift_edges;
        ] );
      ( "trajectory",
        [
          QCheck_alcotest.to_alcotest prop_three_opt_repr_identical;
          QCheck_alcotest.to_alcotest prop_solve_repr_identical;
        ] );
      ( "construct",
        [
          QCheck_alcotest.to_alcotest prop_nn_sparse_equals_dense;
          QCheck_alcotest.to_alcotest prop_greedy_sparse_equals_dense;
          QCheck_alcotest.to_alcotest prop_greedy_rng_deterministic;
        ] );
    ]
