(* Tests for profiles and the online profiler. *)

open Ba_cfg
open Ba_profile

let diamond () =
  Cfg.make ~name:"diamond" ~entry:0
    [|
      Block.make ~id:0 ~size:4 (Block.Branch { t = 1; f = 2 });
      Block.make ~id:1 ~size:2 (Block.Goto 3);
      Block.make ~id:2 ~size:7 (Block.Goto 3);
      Block.make ~id:3 ~size:1 (Block.Branch { t = 0; f = 4 });
      Block.make ~id:4 ~size:3 Block.Exit;
    |]

let run_diamond_trace sink =
  (* two invocations; first loops twice via 1, second goes through 2 *)
  List.iter sink
    [
      Trace.Enter 0;
      Trace.Block 0;
      Trace.Block 1;
      Trace.Block 3;
      Trace.Block 0;
      Trace.Block 1;
      Trace.Block 3;
      Trace.Block 4;
      Trace.Leave;
      Trace.Enter 0;
      Trace.Block 0;
      Trace.Block 2;
      Trace.Block 3;
      Trace.Block 4;
      Trace.Leave;
    ]

let collect_diamond () =
  let c = Collect.create ~n_blocks:[| 5 |] in
  run_diamond_trace (Collect.sink c);
  Collect.freeze c

let test_collect_counts () =
  let prof = collect_diamond () in
  let p = Profile.proc prof 0 in
  Alcotest.(check int) "0->1" 2 (Profile.freq p ~src:0 ~dst:1);
  Alcotest.(check int) "0->2" 1 (Profile.freq p ~src:0 ~dst:2);
  Alcotest.(check int) "3->0" 1 (Profile.freq p ~src:3 ~dst:0);
  Alcotest.(check int) "3->4" 2 (Profile.freq p ~src:3 ~dst:4);
  Alcotest.(check int) "no cross-invocation 4->0" 0 (Profile.freq p ~src:4 ~dst:0);
  Alcotest.(check int) "out of 0" 3 (Profile.out_count p 0);
  Alcotest.(check int) "total" 9 (Profile.total_transfers p)

let test_predictions () =
  let prof = collect_diamond () in
  let p = Profile.proc prof 0 in
  Alcotest.(check (option int)) "block 0 predicts 1" (Some 1) (Profile.predicted p 0);
  Alcotest.(check (option int)) "block 3 predicts 4" (Some 4) (Profile.predicted p 3);
  Alcotest.(check (option int)) "block 4 no prediction" None (Profile.predicted p 4);
  let preds = Profile.predictions p ~n_blocks:5 in
  Alcotest.(check (option int)) "tabulated" (Some 3) preds.(1)

let test_prediction_tie_break () =
  let p = Profile.of_assoc ~n_blocks:2 [ (0, 1, 5); (0, 0, 5) ] in
  (* equal counts: smaller label wins *)
  Alcotest.(check (option int)) "tie towards smaller" (Some 0) (Profile.predicted p 0)

let test_validate () =
  (* Lint.gate is the profile validator: the collected profile passes,
     a transfer along a non-edge is rejected *)
  let g = diamond () in
  let prof = collect_diamond () in
  (match Ba_check.Lint.gate ~profile:prof [| g |] with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Ba_robust.Errors.to_string e));
  let bad = { prof with Profile.procs = [| Profile.of_assoc ~n_blocks:5 [ (0, 3, 1) ] |] } in
  (match Ba_check.Lint.gate ~profile:bad [| g |] with
  | Ok () -> Alcotest.fail "0->3 is not a CFG edge"
  | Error (Ba_robust.Errors.Invalid_profile _) -> ()
  | Error e -> Alcotest.fail (Ba_robust.Errors.to_string e));
  let rules =
    List.map (fun d -> d.Ba_check.Diagnostic.rule)
      (Ba_check.Lint.analyze ~profile:bad [| g |]).Ba_check.Lint.diags
  in
  Alcotest.(check bool) "prof-non-edge reported" true (List.mem "prof-non-edge" rules)

let test_of_assoc_merges_duplicates () =
  let p = Profile.of_assoc ~n_blocks:3 [ (0, 1, 2); (0, 1, 3); (1, 2, 1) ] in
  Alcotest.(check int) "summed" 5 (Profile.freq p ~src:0 ~dst:1)

let test_scale_and_merge () =
  let a = Profile.of_assoc ~n_blocks:2 [ (0, 1, 3) ] in
  let b = Profile.of_assoc ~n_blocks:2 [ (0, 1, 4); (1, 0, 2) ] in
  let m = Profile.merge (Profile.scale 2 a) b in
  Alcotest.(check int) "2·3+4" 10 (Profile.freq m ~src:0 ~dst:1);
  Alcotest.(check int) "merged other edge" 2 (Profile.freq m ~src:1 ~dst:0);
  Alcotest.(check bool) "shape mismatch rejected" true
    (try
       ignore (Profile.merge a (Profile.of_assoc ~n_blocks:3 []));
       false
     with Invalid_argument _ -> true)

let test_table1_statistics () =
  let g = diamond () in
  let prof = collect_diamond () in
  let p = Profile.proc prof 0 in
  (* CTI blocks executed: 0, 1, 2, 3 *)
  Alcotest.(check int) "branch sites touched" 4 (Profile.branch_sites_touched g p);
  (* all 9 transfers leave CTI blocks *)
  Alcotest.(check int) "executed branches" 9 (Profile.executed_branches g p)

let test_multi_proc_collect () =
  let c = Collect.create ~n_blocks:[| 2; 2 |] in
  let sink = Collect.sink c in
  List.iter sink
    [
      Trace.Enter 0;
      Trace.Block 0;
      Trace.Enter 1;
      Trace.Block 0;
      Trace.Block 1;
      Trace.Leave;
      Trace.Block 1;
      Trace.Leave;
    ];
  let prof = Collect.freeze c in
  Alcotest.(check int) "proc 0 edge" 1
    (Profile.freq (Profile.proc prof 0) ~src:0 ~dst:1);
  Alcotest.(check int) "proc 1 edge" 1
    (Profile.freq (Profile.proc prof 1) ~src:0 ~dst:1);
  Alcotest.(check int) "program transfers" 2 (Profile.program_transfers prof)

let test_call_graph_collection () =
  let c = Collect.create ~n_blocks:[| 2; 2; 1 |] in
  let sink = Collect.sink c in
  (* main(0) calls f1 twice; f1 calls f2 once on the first call *)
  List.iter sink
    [
      Trace.Enter 0;
      Trace.Block 0;
      Trace.Enter 1;
      Trace.Block 0;
      Trace.Enter 2;
      Trace.Block 0;
      Trace.Leave;
      Trace.Leave;
      Trace.Enter 1;
      Trace.Block 0;
      Trace.Leave;
      Trace.Block 1;
      Trace.Leave;
    ];
  let prof = Collect.freeze c in
  Alcotest.(check int) "main->f1 twice" 2 (Profile.call_freq prof ~caller:0 ~callee:1);
  Alcotest.(check int) "f1->f2 once" 1 (Profile.call_freq prof ~caller:1 ~callee:2);
  Alcotest.(check int) "no f2->f1" 0 (Profile.call_freq prof ~caller:2 ~callee:1);
  (* the initial main invocation has no caller and is not counted *)
  Alcotest.(check int) "total intra-program calls" 3 (Profile.total_calls prof)

(* ---------------- a Hashtbl collector as the oracle ---------------- *)

(* The reference collector: one hash table per (procedure, source block)
   and one for the call graph, frozen by sorting.  [Collect] must give an
   equal [Profile.t] on every trace. *)
let oracle ~(n_blocks : int array) =
  let tables =
    Array.map (fun n -> Array.init n (fun _ -> Hashtbl.create 2)) n_blocks
  in
  let calls = Hashtbl.create 16 in
  let bump tbl k =
    Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  let sink =
    Trace.invocation_walker
      ~on_call:(fun ~caller ~callee ->
        Option.iter (fun c -> bump calls (c, callee)) caller)
      ~on_block:(fun ~fid ~bid ~prev ->
        Option.iter (fun src -> bump tables.(fid).(src) bid) prev)
      ()
  in
  let freeze () =
    {
      Profile.procs =
        Array.map
          (fun proc_tables ->
            {
              Profile.freqs =
                Array.map
                  (fun tbl ->
                    Hashtbl.fold (fun d n acc -> (d, n) :: acc) tbl []
                    |> List.sort compare |> Array.of_list)
                  proc_tables;
            })
          tables;
      calls =
        Hashtbl.fold (fun (c, e) n acc -> (c, e, n) :: acc) calls []
        |> List.sort compare;
    }
  in
  (sink, freeze)

(* Feed one run into both collectors at once; a run that stops on a
   runtime error still leaves two profiles to compare. *)
let both_profiles ~n_blocks run =
  let c = Collect.create ~n_blocks in
  let osink, ofreeze = oracle ~n_blocks in
  (try run (Trace.tee (Collect.sink c) osink)
   with Ba_minic.Interp.Runtime_error _ -> ());
  (Collect.freeze c, ofreeze ())

let check_same_profile label (got, want) =
  Alcotest.(check bool) (label ^ ": freqs") true
    (got.Profile.procs = want.Profile.procs);
  Alcotest.(check (list (triple int int int)))
    (label ^ ": calls") want.Profile.calls got.Profile.calls

let test_oracle_workloads () =
  let module W = Ba_workloads.Workload in
  List.iter
    (fun (w : W.t) ->
      let c = W.compile w in
      List.iter
        (fun (ds : W.dataset) ->
          check_same_profile (w.W.name ^ "." ^ ds.W.ds_name)
            (both_profiles ~n_blocks:(Ba_minic.Compile.n_blocks c) (fun sink ->
                 ignore (Ba_minic.Compile.run c ~input:ds.W.input ~sink))))
        (W.dataset_list w))
    Ba_workloads.Workload_apps.everything

let prop_oracle_fuzzed_programs =
  QCheck2.Test.make ~count:80 ~name:"Collect = oracle on fuzzed programs"
    (QCheck2.Gen.int_bound 1_000_000) (fun seed ->
      let rng = Random.State.make [| seed |] in
      let src = Ba_minic.Pretty.program (Ba_testutil.Minic_gen.program rng) in
      match Ba_minic.Compile.compile src with
      | Error _ -> false
      | Ok c ->
          let got, want =
            both_profiles ~n_blocks:(Ba_minic.Compile.n_blocks c) (fun sink ->
                ignore
                  (Ba_minic.Compile.run ~limit:200_000 c
                     ~input:(Array.init 16 (fun i -> (i * 7) - 20))
                     ~sink))
          in
          got = want)

(* Random well-formed event streams over several procedures, with blocks
   of up to [fan] successors: exercises row growth past two successors
   and every cell of the call matrix. *)
let prop_oracle_random_traces =
  let gen =
    QCheck2.Gen.(
      pair (int_range 1 4) (list_size (int_range 0 400) (pair (int_bound 9) nat)))
  in
  QCheck2.Test.make ~count:200 ~name:"Collect = oracle on random traces" gen
    (fun (n_procs, steps) ->
      let n_blocks = Array.init n_procs (fun f -> 3 + (5 * f)) in
      let run sink =
        let depth = ref 0 in
        sink (Trace.Enter 0);
        incr depth;
        let fid = ref [ 0 ] in
        List.iter
          (fun (op, r) ->
            match op with
            | 0 | 1 ->
                let f = r mod n_procs in
                sink (Trace.Enter f);
                fid := f :: !fid;
                incr depth
            | 2 when !depth > 1 ->
                sink Trace.Leave;
                fid := List.tl !fid;
                decr depth
            | _ -> sink (Trace.Block (r mod n_blocks.(List.hd !fid))))
          steps
      in
      let got, want = both_profiles ~n_blocks run in
      got = want)

let test_profile_of_run () =
  let prof = Collect.profile_of_run ~n_blocks:[| 5 |] run_diamond_trace in
  Alcotest.(check int) "same as manual collection" 9
    (Profile.total_transfers (Profile.proc prof 0))

let () =
  Alcotest.run "ba_profile"
    [
      ( "collect",
        [
          Alcotest.test_case "edge counts" `Quick test_collect_counts;
          Alcotest.test_case "multi-procedure" `Quick test_multi_proc_collect;
          Alcotest.test_case "call graph" `Quick test_call_graph_collection;
          Alcotest.test_case "profile_of_run" `Quick test_profile_of_run;
          Alcotest.test_case "oracle: every workload" `Quick test_oracle_workloads;
          QCheck_alcotest.to_alcotest prop_oracle_fuzzed_programs;
          QCheck_alcotest.to_alcotest prop_oracle_random_traces;
        ] );
      ( "profile",
        [
          Alcotest.test_case "predictions" `Quick test_predictions;
          Alcotest.test_case "prediction tie-break" `Quick test_prediction_tie_break;
          Alcotest.test_case "validate" `Quick test_validate;
          Alcotest.test_case "of_assoc merges" `Quick test_of_assoc_merges_duplicates;
          Alcotest.test_case "scale and merge" `Quick test_scale_and_merge;
          Alcotest.test_case "table 1 statistics" `Quick test_table1_statistics;
        ] );
    ]
