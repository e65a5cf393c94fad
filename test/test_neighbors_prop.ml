(* Differential wall for the k-NN candidate-list construction
   ({!Ba_tsp.Neighbors}).  The lists must equal the canonical oracle:
   all finite non-locked partners sorted by cost, ties broken by the
   per-city order — an out-city 2i+1 ranks in-city 2j by
   (j − i − 1) mod n, an in-city ranks out-city 2i+1 by i — truncated to
   k.  That order is a strict total order, so the expected list is
   unique and any correct implementation matches it.

   The lists must also exclude the locked partner and clamp k into
   [0, n−1]. *)

open Ba_tsp

let gen_seed = QCheck2.Gen.int_bound 1_000_000

(* ---------------- oracles ---------------- *)

(* the tie key of partner [b] in city [a]'s list *)
let tie_key (s : Sym.t) a b =
  let n = s.Sym.n_cities in
  if a land 1 = 1 then (((b asr 1) - (a asr 1) - 1) + n) mod n else b

(* the canonical oracle: every finite non-locked partner keyed by
   (cost, tie key), full sort, truncate — the unique answer under the
   strict total order [Neighbors] promises *)
let canonical_oracle (s : Sym.t) ~k =
  let nn = s.Sym.nn in
  let k = max 0 k in
  Array.init nn (fun a ->
      let cand = ref [] in
      for b = nn - 1 downto 0 do
        if b <> a && not (Sym.is_locked s a b) then begin
          let c = Sym.cost s a b in
          if c < s.Sym.inf then cand := ((c, tie_key s a b), b) :: !cand
        end
      done;
      let arr = Array.of_list !cand in
      Array.sort compare arr;
      Array.map snd (if Array.length arr <= k then arr else Array.sub arr 0 k))

(* ---------------- generators ---------------- *)

(* dense matrix with clustered values so per-row defaults and ties
   actually occur *)
let random_matrix rng n =
  let palette = [| 0; 3; 3; 7; 50; Random.State.int rng 1000 |] in
  Array.init n (fun _ ->
      Array.init n (fun _ ->
          palette.(Random.State.int rng (Array.length palette))))

(* all off-diagonal costs equal: every list is pure tie order *)
let uniform_matrix rng n =
  let v = Random.State.int rng 100 in
  Array.init n (fun i -> Array.init n (fun j -> if i = j then 0 else v))

(* direct sparse construction: per-row defaults + few explicit
   deviations, never materializing a matrix *)
let random_sparse rng n =
  let palette = [| 1; 4; 4; 9; 77 |] in
  let default =
    Array.init n (fun _ ->
        palette.(Random.State.int rng (Array.length palette)))
  in
  let rows =
    Array.init n (fun _ ->
        let deg = Random.State.int rng (min n 6) in
        let cols = Array.init n Fun.id in
        (* partial Fisher-Yates: first [deg] entries are distinct *)
        for i = 0 to deg - 1 do
          let j = i + Random.State.int rng (n - i) in
          let t = cols.(i) in
          cols.(i) <- cols.(j);
          cols.(j) <- t
        done;
        List.init deg (fun i -> (cols.(i), Random.State.int rng 200))
        |> List.sort compare)
  in
  Dtsp.of_rows ~n ~default rows

(* mixed: uniform rows interleaved with clustered ones *)
let mixed_matrix rng n =
  let v = 5 in
  Array.init n (fun i ->
      if i land 1 = 0 then Array.init n (fun j -> if i = j then 0 else v)
      else Array.init n (fun _ -> Random.State.int rng 30))

let instance_of_seed seed =
  let rng = Random.State.make [| seed |] in
  let n = 2 + Random.State.int rng 30 in
  match Random.State.int rng 4 with
  | 0 -> Dtsp.make (random_matrix rng n)
  | 1 -> Dtsp.make (uniform_matrix rng n)
  | 2 -> Dtsp.make (mixed_matrix rng n)
  | _ -> random_sparse rng n

let ks_for n = [ -2; 0; 1; 3; 8; n - 1; n + 5 ]

let pp_list arr =
  String.concat "," (Array.to_list (Array.map string_of_int arr))

let check_lists ~what ~k got want =
  Array.iteri
    (fun a w ->
      if got.(a) <> w then
        QCheck2.Test.fail_reportf
          "%s: city %d differs at k=%d (got %s, want %s)" what a k
          (pp_list got.(a)) (pp_list w))
    want;
  true

(* ---------------- properties ---------------- *)

let prop_select_canonical =
  QCheck2.Test.make ~count:300
    ~name:"Select = canonical (cost, partner) oracle" gen_seed (fun seed ->
      let d = instance_of_seed seed in
      let s = Sym.of_dtsp d in
      List.for_all
        (fun k ->
          check_lists ~what:"select" ~k (Neighbors.of_sym s ~k)
            (canonical_oracle s ~k))
        (ks_for d.Dtsp.n))

let prop_locked_excluded =
  QCheck2.Test.make ~count:300
    ~name:"no list contains self, the locked partner, or same parity"
    gen_seed (fun seed ->
      let d = instance_of_seed seed in
      let s = Sym.of_dtsp d in
      Array.iteri
        (fun a l ->
          Array.iter
            (fun b ->
              if b = a then QCheck2.Test.fail_reportf "city %d lists itself" a;
              if Sym.is_locked s a b then
                QCheck2.Test.fail_reportf "city %d lists locked partner %d" a
                  b;
              if a land 1 = b land 1 then
                QCheck2.Test.fail_reportf "city %d lists same-parity %d" a b)
            l)
        (Neighbors.of_sym s ~k:8);
      true)

(* ---------------- unit regressions ---------------- *)

(* k beyond the partner count (and below zero) must clamp to the full
   (or empty) list, never crash and never pad *)
let test_k_clamping () =
  let rng = Random.State.make [| 42 |] in
  List.iter
    (fun d ->
      let s = Sym.of_dtsp d in
      let n = d.Dtsp.n in
      let full = Neighbors.of_sym s ~k:(n - 1) in
      List.iter
        (fun k ->
          let got = Neighbors.of_sym s ~k in
          Array.iteri
            (fun a l ->
              Alcotest.(check int)
                (Printf.sprintf "city %d length at k=%d" a k)
                (max 0 (min k (n - 1)))
                (Array.length l);
              if k >= n - 1 then
                Alcotest.(check (array int))
                  (Printf.sprintf "city %d full list at k=%d" a k)
                  full.(a) l)
            got)
        [ -3; 0; 1; n - 1; n; n + 17 ])
    [
      Dtsp.make [| [| 0; 5 |]; [| 2; 0 |] |];
      (* n = 2: a single partner *)
      Dtsp.make (uniform_matrix rng 7);
      random_sparse rng 9;
    ]

(* the reason for the rotated out-city order: with every cost tied, an
   ascending partner id would give every out-city the same low-id tail
   and collapse the candidate graph onto a few in-cities *)
let test_uniform_tails_differ () =
  let n = 9 and k = 3 in
  let s = Sym.of_dtsp (Dtsp.make (Array.make_matrix n n 4)) in
  let nbr = Neighbors.of_sym s ~k in
  Alcotest.(check (array int)) "out-city 1 tail starts after city 0"
    [| 2; 4; 6 |] nbr.(1);
  Alcotest.(check (array int)) "out-city 15 tail wraps past n-1"
    [| 16; 0; 2 |] nbr.(15);
  Alcotest.(check bool) "two uniform out-cities get different tails" true
    (nbr.(1) <> nbr.(3))

let () =
  Alcotest.run "neighbors-prop"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_select_canonical;
          QCheck_alcotest.to_alcotest prop_locked_excluded;
        ] );
      ( "regression",
        [
          Alcotest.test_case "k clamping" `Quick test_k_clamping;
          Alcotest.test_case "uniform out-city tails differ" `Quick
            test_uniform_tails_differ;
        ] );
    ]
