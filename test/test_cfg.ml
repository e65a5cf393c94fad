(* Tests for the CFG substrate: blocks, graphs, layouts, traces. *)

open Ba_cfg

(* A diamond with a loop:
     0 -> 1 (t) / 2 (f);  1 -> 3;  2 -> 3;  3 -> 0 (t) / 4 (f); 4 exit *)
let diamond () =
  Cfg.make ~name:"diamond" ~entry:0
    [|
      Block.make ~id:0 ~size:4 (Block.Branch { t = 1; f = 2 });
      Block.make ~id:1 ~size:2 (Block.Goto 3);
      Block.make ~id:2 ~size:7 (Block.Goto 3);
      Block.make ~id:3 ~size:1 (Block.Branch { t = 0; f = 4 });
      Block.make ~id:4 ~size:3 Block.Exit;
    |]

(* ---------------- blocks ---------------- *)

let test_block_normalization () =
  let b = Block.make ~id:0 ~size:1 (Block.Branch { t = 2; f = 2 }) in
  Alcotest.(check bool) "degenerate branch becomes goto" true
    (match b.Block.term with Block.Goto 2 -> true | _ -> false);
  let m = Block.make ~id:0 ~size:1 (Block.Multiway [| 5 |]) in
  Alcotest.(check bool) "singleton multiway becomes goto" true
    (match m.Block.term with Block.Goto 5 -> true | _ -> false);
  let e = Block.make ~id:0 ~size:1 (Block.Multiway [||]) in
  Alcotest.(check bool) "empty multiway becomes exit" true
    (match e.Block.term with Block.Exit -> true | _ -> false)

let test_block_negative_size () =
  Alcotest.check_raises "negative size" (Invalid_argument "Block.make: negative size")
    (fun () -> ignore (Block.make ~id:0 ~size:(-1) Block.Exit))

let test_block_successors () =
  let b = Block.make ~id:0 ~size:0 (Block.Multiway [| 3; 1; 3; 2 |]) in
  Alcotest.(check (list int)) "successors keep duplicates" [ 3; 1; 3; 2 ]
    (Block.successors b);
  Alcotest.(check (list int)) "distinct sorted" [ 1; 2; 3 ]
    (Block.distinct_successors b);
  Alcotest.(check bool) "has 3" true (Block.has_successor b 3);
  Alcotest.(check bool) "no 0" false (Block.has_successor b 0)

let test_block_predicates () =
  let exit = Block.make ~id:0 ~size:0 Block.Exit in
  let cond = Block.make ~id:0 ~size:0 (Block.Branch { t = 1; f = 2 }) in
  Alcotest.(check bool) "exit not cti" false (Block.is_cti exit);
  Alcotest.(check bool) "cond is cti" true (Block.is_cti cond);
  Alcotest.(check bool) "cond is conditional" true (Block.is_conditional cond);
  Alcotest.(check bool) "cond not multiway" false (Block.is_multiway cond)

(* ---------------- cfg ---------------- *)

let test_cfg_stats () =
  let g = diamond () in
  Alcotest.(check int) "blocks" 5 (Cfg.n_blocks g);
  Alcotest.(check int) "branch sites" 4 (Cfg.n_branch_sites g);
  Alcotest.(check int) "edges" 6 (Cfg.n_edges g);
  Alcotest.(check int) "total size" 17 (Cfg.total_size g);
  Alcotest.(check int) "reachable" 5 (Cfg.n_reachable g)

let test_cfg_rejects_bad () =
  Alcotest.(check bool) "successor out of range" true
    (try
       ignore
         (Cfg.make ~name:"bad" ~entry:0
            [| Block.make ~id:0 ~size:0 (Block.Goto 7) |]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "misnumbered ids" true
    (try
       ignore
         (Cfg.make ~name:"bad" ~entry:0
            [|
              Block.make ~id:1 ~size:0 Block.Exit;
              Block.make ~id:0 ~size:0 Block.Exit;
            |]);
       false
     with Invalid_argument _ -> true)

let test_cfg_unreachable () =
  let g =
    Cfg.make ~name:"island" ~entry:0
      [|
        Block.make ~id:0 ~size:0 Block.Exit;
        Block.make ~id:1 ~size:0 (Block.Goto 0);
      |]
  in
  Alcotest.(check int) "one reachable" 1 (Cfg.n_reachable g)

(* structural_hash is the serve cache key: it must be canonical (names
   and Multiway successor order do not matter) yet sensitive to every
   structural detail (sizes, entry, terminator shapes, branch arms). *)
let test_structural_hash () =
  let blocks () =
    [|
      Block.make ~id:0 ~size:4 (Block.Branch { t = 1; f = 2 });
      Block.make ~id:1 ~size:2 (Block.Goto 3);
      Block.make ~id:2 ~size:7 (Block.Goto 3);
      Block.make ~id:3 ~size:1 (Block.Multiway [| 4; 0; 4 |]);
      Block.make ~id:4 ~size:3 Block.Exit;
    |]
  in
  let h g = Cfg.structural_hash g in
  let base = h (Cfg.make ~name:"a" ~entry:0 (blocks ())) in
  Alcotest.(check bool) "name-independent" true
    (base = h (Cfg.make ~name:"completely-different" ~entry:0 (blocks ())));
  let reordered = blocks () in
  reordered.(3) <- Block.make ~id:3 ~size:1 (Block.Multiway [| 0; 4 |]);
  Alcotest.(check bool) "multiway order and duplicates canonicalized" true
    (base = h (Cfg.make ~name:"a" ~entry:0 reordered));
  let resized = blocks () in
  resized.(2) <- Block.make ~id:2 ~size:8 (Block.Goto 3);
  Alcotest.(check bool) "size-sensitive" false
    (base = h (Cfg.make ~name:"a" ~entry:0 resized));
  let retargeted = blocks () in
  retargeted.(1) <- Block.make ~id:1 ~size:2 (Block.Goto 4);
  Alcotest.(check bool) "edge-sensitive" false
    (base = h (Cfg.make ~name:"a" ~entry:0 retargeted));
  let swapped = blocks () in
  swapped.(0) <- Block.make ~id:0 ~size:4 (Block.Branch { t = 2; f = 1 });
  Alcotest.(check bool) "branch arms are roles, not a set" false
    (base = h (Cfg.make ~name:"a" ~entry:0 swapped));
  (* entry sensitivity needs a CFG where another entry is legal *)
  let ring e =
    Cfg.make ~name:"ring" ~entry:e
      [|
        Block.make ~id:0 ~size:1 (Block.Branch { t = 1; f = 2 });
        Block.make ~id:1 ~size:1 (Block.Branch { t = 2; f = 0 });
        Block.make ~id:2 ~size:1 Block.Exit;
      |]
  in
  Alcotest.(check bool) "entry-sensitive" false
    (h (ring 0) = h (ring 1))

(* ---------------- layout ---------------- *)

let test_layout_identity_valid () =
  let g = diamond () in
  let o = Layout.identity g in
  Alcotest.(check bool) "identity valid" true (Layout.is_valid g o)

let test_layout_validity_checks () =
  let g = diamond () in
  Alcotest.(check bool) "entry must be first" false
    (Layout.is_valid g [| 1; 0; 2; 3; 4 |]);
  Alcotest.(check bool) "must be permutation" false
    (Layout.is_valid g [| 0; 1; 1; 3; 4 |]);
  Alcotest.(check bool) "must be complete" false (Layout.is_valid g [| 0; 1; 2 |]);
  Alcotest.(check bool) "ok" true (Layout.is_valid g [| 0; 2; 1; 3; 4 |])

let test_layout_positions_successor () =
  let o = [| 0; 2; 1; 3; 4 |] in
  let pos = Layout.positions o in
  Alcotest.(check (array int)) "positions" [| 0; 2; 1; 3; 4 |] pos;
  let succ = Layout.layout_successor o in
  Alcotest.(check (option int)) "succ of 0" (Some 2) succ.(0);
  Alcotest.(check (option int)) "succ of 2" (Some 1) succ.(2);
  Alcotest.(check (option int)) "succ of last" None succ.(4)

let test_rterm_destinations () =
  Alcotest.(check (list int)) "cond" [ 1; 2 ]
    (Layout.rterm_destinations
       (Layout.R_cond { taken = 2; fall = 1; via_fixup = true }));
  Alcotest.(check (list int)) "multi dedups" [ 1; 3 ]
    (Layout.rterm_destinations (Layout.R_multi { targets = [| 3; 1; 3 |] }));
  Alcotest.(check (list int)) "exit" [] (Layout.rterm_destinations Layout.R_exit)

let test_build_items () =
  let order = [| 0; 1; 2 |] in
  let terms =
    [|
      Layout.R_cond { taken = 2; fall = 1; via_fixup = false };
      Layout.R_cond { taken = 0; fall = 2; via_fixup = true };
      Layout.R_exit;
    |]
  in
  let items = Layout.build_items order terms in
  Alcotest.(check int) "one fixup inserted" 4 (Array.length items);
  (match items.(2) with
  | Layout.I_fixup { src = 1; target = 2 } -> ()
  | _ -> Alcotest.fail "fixup must follow block 1");
  match items.(3) with
  | Layout.I_block 2 -> ()
  | _ -> Alcotest.fail "block 2 last"

(* ---------------- trace walker ---------------- *)

let test_walker_adjacency () =
  let transfers = ref [] in
  let sink =
    Trace.invocation_walker
      ~on_block:(fun ~fid ~bid ~prev ->
        match prev with
        | Some p -> transfers := (fid, p, bid) :: !transfers
        | None -> ())
      ()
  in
  (* f0: blocks 0,1; calls f1 (blocks 0,2) in the middle of block 1;
     then continues 1 -> 3.  The call must not break 1 -> 3 adjacency. *)
  List.iter sink
    [
      Trace.Enter 0;
      Trace.Block 0;
      Trace.Block 1;
      Trace.Enter 1;
      Trace.Block 0;
      Trace.Block 2;
      Trace.Leave;
      Trace.Block 3;
      Trace.Leave;
    ];
  Alcotest.(check (list (triple int int int)))
    "adjacencies per invocation"
    [ (0, 1, 3); (1, 0, 2); (0, 0, 1) ]
    !transfers

let test_walker_rejects_orphan_block () =
  let sink = Trace.invocation_walker ~on_block:(fun ~fid:_ ~bid:_ ~prev:_ -> ()) () in
  Alcotest.check_raises "block without enter"
    (Invalid_argument "Trace: Block event outside any procedure") (fun () ->
      sink (Trace.Block 0))

let test_walker_rejects_orphan_leave () =
  let sink = Trace.invocation_walker ~on_block:(fun ~fid:_ ~bid:_ ~prev:_ -> ()) () in
  Alcotest.check_raises "leave without enter"
    (Invalid_argument "Trace: Leave event without matching Enter") (fun () ->
      sink Trace.Leave)

let test_recursive_invocations () =
  (* recursion: each invocation has its own adjacency state *)
  let transfers = ref 0 in
  let sink =
    Trace.invocation_walker
      ~on_block:(fun ~fid:_ ~bid:_ ~prev -> if prev <> None then incr transfers)
      ()
  in
  List.iter sink
    [
      Trace.Enter 0;
      Trace.Block 0;
      Trace.Enter 0;
      Trace.Block 0;
      Trace.Block 1;
      Trace.Leave;
      Trace.Block 1;
      Trace.Leave;
    ];
  Alcotest.(check int) "two transfers" 2 !transfers

let test_walker_fresh_invocation_state () =
  (* a later invocation at the same depth starts with no previous block,
     and a stack deeper than its initial capacity keeps every level's
     adjacency *)
  let transfers = ref [] in
  let sink =
    Trace.invocation_walker
      ~on_block:(fun ~fid ~bid ~prev ->
        Option.iter (fun p -> transfers := (fid, p, bid) :: !transfers) prev)
      ()
  in
  List.iter sink
    [
      Trace.Enter 0; Trace.Block 0;
      Trace.Enter 1; Trace.Block 2; Trace.Leave;
      Trace.Enter 1; Trace.Block 3; Trace.Leave;
      Trace.Block 1; Trace.Leave;
    ];
  Alcotest.(check (list (triple int int int)))
    "no transfer across invocations" [ (0, 0, 1) ] !transfers;
  transfers := [];
  let depth = 100 in
  for f = 0 to depth - 1 do
    sink (Trace.Enter f);
    sink (Trace.Block (2 * f))
  done;
  for f = depth - 1 downto 0 do
    sink (Trace.Block ((2 * f) + 1));
    sink Trace.Leave
  done;
  Alcotest.(check (list (triple int int int)))
    "one transfer per level"
    (List.init depth (fun f -> (f, 2 * f, (2 * f) + 1)))
    !transfers

(* ---------------- dot export ---------------- *)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_dot_output () =
  let g = diamond () in
  let s = Dot.to_string g in
  Alcotest.(check bool) "mentions digraph" true
    (String.length s > 7 && String.sub s 0 7 = "digraph");
  Alcotest.(check bool) "has an edge" true (contains ~sub:"n0 -> n1" s);
  Alcotest.(check bool) "labels frequencies" true
    (contains ~sub:"label=\"9\""
       (Dot.to_string ~freq:(fun _ _ -> 9) g))

let () =
  Alcotest.run "ba_cfg"
    [
      ( "block",
        [
          Alcotest.test_case "normalization" `Quick test_block_normalization;
          Alcotest.test_case "negative size rejected" `Quick test_block_negative_size;
          Alcotest.test_case "successors" `Quick test_block_successors;
          Alcotest.test_case "predicates" `Quick test_block_predicates;
        ] );
      ( "cfg",
        [
          Alcotest.test_case "stats" `Quick test_cfg_stats;
          Alcotest.test_case "rejects malformed" `Quick test_cfg_rejects_bad;
          Alcotest.test_case "unreachable blocks" `Quick test_cfg_unreachable;
          Alcotest.test_case "structural hash canonical and sensitive" `Quick
            test_structural_hash;
        ] );
      ( "layout",
        [
          Alcotest.test_case "identity valid" `Quick test_layout_identity_valid;
          Alcotest.test_case "validity checks" `Quick test_layout_validity_checks;
          Alcotest.test_case "positions and successor" `Quick
            test_layout_positions_successor;
          Alcotest.test_case "rterm destinations" `Quick test_rterm_destinations;
          Alcotest.test_case "build items" `Quick test_build_items;
        ] );
      ( "trace",
        [
          Alcotest.test_case "adjacency across calls" `Quick test_walker_adjacency;
          Alcotest.test_case "orphan block rejected" `Quick
            test_walker_rejects_orphan_block;
          Alcotest.test_case "orphan leave rejected" `Quick
            test_walker_rejects_orphan_leave;
          Alcotest.test_case "recursion" `Quick test_recursive_invocations;
          Alcotest.test_case "fresh invocation state" `Quick
            test_walker_fresh_invocation_state;
        ] );
      ("dot", [ Alcotest.test_case "emits digraph" `Quick test_dot_output ]);
    ]
