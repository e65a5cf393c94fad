(* Fuzz tests for the minic front end: generate random well-formed
   programs, and check
   - the pretty-printer round-trips through the parser structurally;
   - compilation never fails on generated programs;
   - execution is deterministic and either terminates cleanly or raises
     a clean Runtime_error (never an unexpected exception);
   - the trace stream is well-formed (balanced Enter/Leave). *)

open Ba_minic
module Minic_gen = Ba_testutil.Minic_gen

(* ---------------- properties ---------------- *)

let gen_seed = QCheck2.Gen.int_bound 1_000_000

let prop_pretty_roundtrip =
  QCheck2.Test.make ~count:120 ~name:"parse (pretty p) = p" gen_seed (fun seed ->
      let rng = Random.State.make [| seed |] in
      let p = Minic_gen.program rng in
      let src = Pretty.program p in
      match Parser.parse src with
      | p' -> p = p'
      | exception _ -> false)

let prop_generated_programs_compile =
  QCheck2.Test.make ~count:120 ~name:"generated programs compile" gen_seed
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let src = Pretty.program (Minic_gen.program rng) in
      match Compile.compile src with Ok _ -> true | Error _ -> false)

let prop_execution_clean_and_deterministic =
  QCheck2.Test.make ~count:80 ~name:"execution clean and deterministic" gen_seed
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let src = Pretty.program (Minic_gen.program rng) in
      match Compile.compile src with
      | Error _ -> false
      | Ok c ->
          let input = Array.init 16 (fun i -> (i * 7) - 20) in
          let run () =
            match Compile.run ~limit:200_000 c ~input ~sink:Ba_cfg.Trace.null with
            | r -> Some r.Interp.output
            | exception Interp.Runtime_error _ -> None
          in
          run () = run ())

let prop_trace_well_formed =
  QCheck2.Test.make ~count:60 ~name:"trace stream balanced" gen_seed (fun seed ->
      let rng = Random.State.make [| seed |] in
      let src = Pretty.program (Minic_gen.program rng) in
      match Compile.compile src with
      | Error _ -> false
      | Ok c ->
          let depth = ref 0 and ok = ref true and events = ref 0 in
          let sink = function
            | Ba_cfg.Trace.Enter _ -> incr depth; incr events
            | Ba_cfg.Trace.Leave ->
                decr depth;
                if !depth < 0 then ok := false
            | Ba_cfg.Trace.Block _ -> if !depth <= 0 then ok := false
          in
          (match Compile.run ~limit:200_000 c ~input:[| 1; 2; 3 |] ~sink with
          | (_ : Interp.result) -> ()
          | exception Interp.Runtime_error _ -> ());
          !ok && !events > 0)

(* the generated CFGs feed the aligners without error, and the central
   identity holds on fuzzed programs too *)
let prop_fuzzed_programs_align =
  QCheck2.Test.make ~count:40 ~name:"fuzzed programs align + identity" gen_seed
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let src = Pretty.program (Minic_gen.program rng) in
      match Compile.compile src with
      | Error _ -> false
      | Ok c -> (
          let input = Array.init 8 (fun i -> i) in
          match
            Ba_profile.Collect.profile_of_run ~n_blocks:(Compile.n_blocks c)
              (fun sink -> ignore (Compile.run ~limit:200_000 c ~input ~sink))
          with
          | exception Interp.Runtime_error _ -> true (* nothing to align *)
          | prof ->
              let p = Ba_machine.Model.alpha21164 in
              Array.for_all
                (fun fid ->
                  let g = c.Compile.cfgs.(fid) in
                  let pr = Ba_profile.Profile.proc prof fid in
                  let inst = Ba_align.Reduction.build p g ~profile:pr in
                  let o = Ba_align.Greedy.align g ~profile:pr in
                  Ba_cfg.Layout.is_valid g o
                  && Ba_align.Reduction.layout_cost inst o
                     = Ba_align.Evaluate.proc_penalty p g ~order:o ~train:pr
                         ~test:pr)
                (Array.init (Array.length c.Compile.cfgs) Fun.id)))

let () =
  Alcotest.run "minic-fuzz"
    [
      ( "fuzz",
        [
          QCheck_alcotest.to_alcotest prop_pretty_roundtrip;
          QCheck_alcotest.to_alcotest prop_generated_programs_compile;
          QCheck_alcotest.to_alcotest prop_execution_clean_and_deterministic;
          QCheck_alcotest.to_alcotest prop_trace_well_formed;
          QCheck_alcotest.to_alcotest prop_fuzzed_programs_align;
        ] );
    ]
