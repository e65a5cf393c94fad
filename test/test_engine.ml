(** Determinism suite for the task engine: the same work fanned out over
    [Seq], [Pool 2] and [Pool recommended_domain_count] must produce
    bit-identical results — values, merge order, surfaced exception,
    alignment orders, fallback records, and whole harness rows. *)

open Ba_align
module Executor = Ba_engine.Executor
module Task = Ba_engine.Task
module Profile = Ba_profile.Profile
module Synthetic = Ba_harness.Synthetic
module Errors = Ba_robust.Errors

let penalties = Ba_machine.Model.alpha21164

(** The executors every check runs under. *)
let executors () =
  [ ("seq", Executor.Seq);
    ("pool2", Executor.Pool 2);
    ("poolmax", Executor.pool ()) ]

(* ------------------------------------------------------------------ *)
(* Executor                                                            *)
(* ------------------------------------------------------------------ *)

(* busy-work so pool jobs genuinely overlap and finish out of order *)
let churn i =
  let acc = ref (i + 1) in
  for _ = 1 to 10_000 * (1 + (i mod 7)) do
    acc := (!acc * 1103515245) + 12345
  done;
  (i, !acc land 0xFFFF)

let test_init_identical () =
  let expect = Array.init 64 churn in
  List.iter
    (fun (name, ex) ->
      Alcotest.(check (array (pair int int)))
        name expect (Executor.init ex 64 churn))
    (executors ())

let test_init_empty_and_tiny () =
  List.iter
    (fun (name, ex) ->
      Alcotest.(check (array int)) (name ^ "/empty") [||]
        (Executor.init ex 0 (fun i -> i));
      Alcotest.(check (array int)) (name ^ "/one") [| 7 |]
        (Executor.init ex 1 (fun _ -> 7)))
    (executors ())

exception Boom of int

let test_lowest_index_exception () =
  List.iter
    (fun (name, ex) ->
      match
        Executor.init ex 64 (fun i ->
            let _ = churn i in
            if i = 9 || i = 41 then raise (Boom i);
            i)
      with
      | _ -> Alcotest.failf "%s: expected Boom" name
      | exception Boom i -> Alcotest.(check int) name 9 i)
    (executors ())

let test_map_list_order () =
  let l = List.init 37 (fun i -> i) in
  List.iter
    (fun (name, ex) ->
      Alcotest.(check (list int))
        name
        (List.map (fun x -> x * x) l)
        (Executor.map_list ex (fun x -> x * x) l))
    (executors ())

(* ------------------------------------------------------------------ *)
(* Task seeding                                                        *)
(* ------------------------------------------------------------------ *)

let draws rng = List.init 16 (fun _ -> Random.State.bits rng)

let test_seed_rng_deterministic () =
  Alcotest.(check (list int))
    "same (seed, id), same stream"
    (draws (Task.seed_rng ~seed:42 ~id:5))
    (draws (Task.seed_rng ~seed:42 ~id:5));
  let a = draws (Task.seed_rng ~seed:42 ~id:0)
  and b = draws (Task.seed_rng ~seed:42 ~id:1) in
  if a = b then Alcotest.fail "adjacent task ids share a stream";
  let c = draws (Task.seed_rng ~seed:43 ~id:0) in
  if a = c then Alcotest.fail "adjacent seeds share a stream"

let test_task_rng_independent_of_executor () =
  let tasks =
    Array.init 24 (fun id ->
        Task.make ~id (fun ctx -> draws (Task.rng ctx)))
  in
  let values ex =
    Task.run_all ~seed:7 ex tasks
    |> Array.map (fun o -> o.Task.value)
  in
  let expect = values Executor.Seq in
  List.iter
    (fun (name, ex) ->
      Alcotest.(check (array (list int))) name expect (values ex))
    (executors ())

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

(** A multi-procedure synthetic program with a matching profile (same
    construction as the fault suite). *)
let scenario ~seed =
  let rng = Random.State.make [| 0xE11E; seed |] in
  let n_procs = 3 + Random.State.int rng 3 in
  let cfgs =
    Array.init n_procs (fun _ ->
        Synthetic.cfg rng ~n:(4 + Random.State.int rng 12))
  in
  let procs =
    Array.map
      (fun g -> Synthetic.profile rng g ~invocations:20 ~max_steps:300)
      cfgs
  in
  (cfgs, { Profile.procs; calls = [] })

let orders_testable =
  Alcotest.(array (array int))

let test_align_identical_across_executors () =
  for seed = 0 to 2 do
    let cfgs, profile = scenario ~seed in
    List.iter
      (fun m ->
        let expect =
          (Driver.align ~executor:Executor.Seq m penalties cfgs ~train:profile)
            .Driver.orders
        in
        List.iter
          (fun (name, ex) ->
            let got =
              (Driver.align ~executor:ex m penalties cfgs ~train:profile)
                .Driver.orders
            in
            Alcotest.(check orders_testable)
              (Printf.sprintf "%s/%s/seed=%d" (Driver.method_name m) name seed)
              expect got)
          (executors ()))
      [ Driver.Greedy; Driver.Tsp Tsp_align.default ]
  done

let fallback_shape (f : Driver.fallback) =
  (f.Driver.proc, Driver.method_name f.Driver.requested,
   Driver.method_name f.Driver.used)

let report_shape = function
  | Error e -> Error (Errors.to_string e)
  | Ok (r : Driver.report) ->
      Ok
        ( Array.to_list r.Driver.aligned.Driver.orders,
          List.map fallback_shape r.Driver.fallbacks )

let test_align_checked_identical () =
  for seed = 0 to 2 do
    let cfgs, profile = scenario ~seed in
    let run ex =
      report_shape
        (Driver.align_checked ~executor:ex (Driver.Tsp Tsp_align.default)
           penalties cfgs ~train:profile)
    in
    let expect = run Executor.Seq in
    (match expect with
    | Ok (_, fallbacks) ->
        Alcotest.(check (list (triple int string string)))
          "clean scenario has no fallbacks" [] fallbacks
    | Error e -> Alcotest.failf "clean scenario rejected: %s" e);
    List.iter
      (fun (name, ex) ->
        Alcotest.(check
                    (result
                       (pair (list (array int)) (list (triple int string string)))
                       string))
          (Printf.sprintf "align_checked/%s/seed=%d" name seed)
          expect (run ex))
      (executors ())
  done

(* An already-exhausted budget (deadline 0) forces every procedure down
   the fallback chain — the degraded result must still be executor
   independent, per-task, and recorded per procedure. *)
let test_align_checked_forced_fallbacks () =
  for seed = 0 to 2 do
    let cfgs, profile = scenario ~seed in
    let run ex =
      match
        Driver.align_checked ~executor:ex ~deadline_ms:0
          (Driver.Tsp Tsp_align.default) penalties cfgs ~train:profile
      with
      | Error e -> Error (Errors.to_string e)
      | Ok r ->
          Ok
            ( Array.to_list r.Driver.aligned.Driver.orders,
              List.map fallback_shape r.Driver.fallbacks )
    in
    let expect = run Executor.Seq in
    (match expect with
    | Ok (_, []) -> Alcotest.fail "deadline 0 produced no fallbacks"
    | Ok (_, fallbacks) ->
        (* per-task degradation: every TSP procedure falls back on its
           own, in procedure order *)
        let procs = List.map (fun (p, _, _) -> p) fallbacks in
        Alcotest.(check (list int))
          "fallbacks are per-procedure, in index order"
          (List.sort compare procs) procs
    | Error e -> Alcotest.failf "fallback chain rejected: %s" e);
    List.iter
      (fun (name, ex) ->
        Alcotest.(check
                    (result
                       (pair (list (array int)) (list (triple int string string)))
                       string))
          (Printf.sprintf "forced-fallback/%s/seed=%d" name seed)
          expect (run ex))
      (executors ())
  done

(* With fallback disabled, the surfaced error must be the lowest
   procedure index's, whatever the executor. *)
let test_align_checked_no_fallback_error () =
  let cfgs, profile = scenario ~seed:1 in
  let proc_of ex =
    match
      Driver.align_checked ~executor:ex ~deadline_ms:0 ~fallback:false
        (Driver.Tsp Tsp_align.default) penalties cfgs ~train:profile
    with
    | Ok _ -> Alcotest.fail "deadline 0 without fallback succeeded"
    | Error (Errors.Solver_timeout { proc; _ }) -> proc
    | Error e -> Alcotest.failf "unexpected error: %s" (Errors.to_string e)
  in
  let expect = proc_of Executor.Seq in
  List.iter
    (fun (name, ex) ->
      Alcotest.(check (option int)) name expect (proc_of ex))
    (executors ())

(* Every method the consistency checks run. *)
let all_methods =
  [ Driver.Original; Driver.Greedy; Driver.Calder; Driver.Calder_exhaustive;
    Driver.Btfnt; Driver.Tsp Tsp_align.default ]

let ok_or_fail = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Errors.to_string e)

(* [align] is [align_checked ~fallback:false] as a plain value, and
   both equal the per-procedure dispatch replayed on each task's own
   stream: same orders, realized layouts and addresses for every
   method on every SPEC92 stand-in, under [Seq] and [Pool 2]. *)
let test_align_is_checked_path () =
  List.iter
    (fun (w : Ba_workloads.Workload.t) ->
      let compiled = Ba_workloads.Workload.compile w in
      let cfgs = compiled.Ba_minic.Compile.cfgs in
      let train =
        Ba_minic.Compile.profile compiled
          ~input:(fst w.Ba_workloads.Workload.datasets).Ba_workloads.Workload.input
      in
      List.iter
        (fun m ->
          let replay =
            Driver.realize m penalties cfgs ~train
              (Array.mapi
                 (fun fid cfg ->
                   ok_or_fail
                     (Driver.align_proc
                        ~rng:(Task.seed_rng ~seed:(Driver.method_seed m) ~id:fid)
                        m penalties cfg ~profile:(Profile.proc train fid)))
                 cfgs)
          in
          List.iter
            (fun (name, ex) ->
              let label what =
                Printf.sprintf "%s/%s/%s: %s" w.Ba_workloads.Workload.name
                  (Driver.method_name m) name what
              in
              let plain = Driver.align ~executor:ex m penalties cfgs ~train in
              let checked =
                (ok_or_fail
                   (Driver.align_checked ~executor:ex ~fallback:false m
                      penalties cfgs ~train))
                  .Driver.aligned
              in
              List.iter
                (fun (what, (a : Driver.aligned)) ->
                  Alcotest.(check orders_testable)
                    (label (what ^ " orders")) plain.Driver.orders
                    a.Driver.orders;
                  Alcotest.(check bool)
                    (label (what ^ " realized layouts")) true
                    (plain.Driver.realized = a.Driver.realized);
                  Alcotest.(check bool)
                    (label (what ^ " addresses")) true
                    (plain.Driver.addr = a.Driver.addr))
                [ ("align_checked", checked); ("align_proc replay", replay) ])
            [ ("seq", Executor.Seq); ("pool2", Executor.Pool 2) ])
        all_methods)
    Ba_workloads.Workload.all

(* A profile the lint gate rejects (a count on a non-edge) is not
   aligned: [align] raises the gate's own error. *)
let test_align_raises_gate_error () =
  let cfgs, profile = scenario ~seed:0 in
  let bad =
    Ba_harness.Faults.inject ~seed:0 Ba_harness.Faults.Non_edge
      { Ba_harness.Faults.cfgs; profile }
  in
  let train = bad.Ba_harness.Faults.profile in
  let gate =
    match Ba_check.Lint.gate ~profile:train cfgs with
    | Ok () -> Alcotest.fail "the injected non-edge passed the gate"
    | Error e -> Errors.to_string e
  in
  match Driver.align Driver.Greedy penalties cfgs ~train with
  | _ -> Alcotest.fail "align accepted a profile the gate rejects"
  | exception Errors.Error e ->
      Alcotest.(check string) "the gate's error" gate (Errors.to_string e)

(* Under an exhausted budget the search methods refuse and the cheap
   ones still run. *)
let test_align_proc_exhausted_budget () =
  let cfgs, profile = scenario ~seed:2 in
  let budget = Ba_robust.Budget.create ~deadline_ms:0 () in
  List.iter
    (fun m ->
      let r =
        Driver.align_proc ~budget m penalties cfgs.(0)
          ~profile:(Profile.proc profile 0)
      in
      let name = Driver.method_name m in
      match (m, r) with
      | (Driver.Greedy | Driver.Original), Ok _ -> ()
      | (Driver.Greedy | Driver.Original), Error e ->
          Alcotest.failf "%s refused: %s" name (Errors.to_string e)
      | _, Error (Errors.Solver_timeout _) -> ()
      | _, Error e ->
          Alcotest.failf "%s: unexpected error %s" name (Errors.to_string e)
      | _, Ok _ -> Alcotest.failf "%s ran on an exhausted budget" name)
    all_methods

(* ------------------------------------------------------------------ *)
(* Harness rows                                                        *)
(* ------------------------------------------------------------------ *)

(* One full benchmark x dataset sweep: the deterministic CSV rendering
   (everything but wall-clock) must be byte-identical at any job
   count. *)
let test_run_all_rows_identical () =
  let rows ex =
    String.concat "\n"
      (Ba_harness.Csv.rows_csv
         (Ba_harness.Runner.run_all ~executor:ex
            ~workloads:[ Ba_workloads.Workload.com ] ()))
  in
  let expect = rows Executor.Seq in
  List.iter
    (fun (name, ex) -> Alcotest.(check string) name expect (rows ex))
    (executors ())

let () =
  Alcotest.run "engine"
    [
      ( "executor",
        [
          Alcotest.test_case "init identical across executors" `Quick
            test_init_identical;
          Alcotest.test_case "empty and single-job inputs" `Quick
            test_init_empty_and_tiny;
          Alcotest.test_case "lowest-index exception wins" `Quick
            test_lowest_index_exception;
          Alcotest.test_case "map_list preserves order" `Quick
            test_map_list_order;
        ] );
      ( "task",
        [
          Alcotest.test_case "seed_rng is a function of (seed, id)" `Quick
            test_seed_rng_deterministic;
          Alcotest.test_case "task rng independent of executor" `Quick
            test_task_rng_independent_of_executor;
        ] );
      ( "driver",
        [
          Alcotest.test_case "align identical across executors" `Quick
            test_align_identical_across_executors;
          Alcotest.test_case "align_checked identical across executors" `Quick
            test_align_checked_identical;
          Alcotest.test_case "forced fallbacks identical across executors"
            `Quick test_align_checked_forced_fallbacks;
          Alcotest.test_case "no-fallback error is lowest procedure" `Quick
            test_align_checked_no_fallback_error;
          Alcotest.test_case "align is the checked path" `Quick
            test_align_is_checked_path;
          Alcotest.test_case "align raises the gate's error" `Quick
            test_align_raises_gate_error;
          Alcotest.test_case "align_proc on an exhausted budget" `Quick
            test_align_proc_exhausted_budget;
        ] );
      ( "harness",
        [
          Alcotest.test_case "run_all rows identical across job counts"
            `Quick test_run_all_rows_identical;
        ] );
    ]
