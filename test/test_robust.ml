(** Robustness pipeline tests: typed validation errors, solver budgets,
    and the deterministic degradation chain. *)

open Ba_align
module Profile = Ba_profile.Profile
module Synthetic = Ba_harness.Synthetic
module Errors = Ba_robust.Errors
module Budget = Ba_robust.Budget

let penalties = Ba_machine.Model.alpha21164
let tsp = Driver.Tsp Tsp_align.default

let program ~seed ~n_procs =
  let rng = Random.State.make [| 0x0b0e; seed |] in
  let cfgs =
    Array.init n_procs (fun _ ->
        Synthetic.cfg rng ~n:(4 + Random.State.int rng 12))
  in
  let procs =
    Array.map
      (fun g -> Synthetic.profile rng g ~invocations:25 ~max_steps:300)
      cfgs
  in
  (cfgs, { Profile.procs; calls = [] })

(* A profile collected from a different program must be rejected with a
   typed error, not a crash or a silent garbage layout. *)
let test_wrong_program_profile () =
  let cfgs, _ = program ~seed:1 ~n_procs:3 in
  let _, other = program ~seed:2 ~n_procs:4 in
  (match Driver.align_checked tsp penalties cfgs ~train:other with
  | Ok _ -> Alcotest.fail "foreign profile accepted"
  | Error (Errors.Profile_mismatch _) -> ()
  | Error e ->
      Alcotest.failf "expected Profile_mismatch, got %s" (Errors.to_string e));
  (* same procedure count but wrong shapes *)
  let _, same_count = program ~seed:3 ~n_procs:3 in
  match Driver.align_checked tsp penalties cfgs ~train:same_count with
  | Ok _ -> Alcotest.fail "shape-mismatched profile accepted"
  | Error (Errors.Profile_mismatch _) | Error (Errors.Invalid_profile _) -> ()
  | Error e ->
      Alcotest.failf "expected profile error, got %s" (Errors.to_string e)

(* Corrupting a single count must surface as Invalid_profile naming the
   edge, before any solver runs. *)
let test_corrupted_profile () =
  let cfgs, train = program ~seed:4 ~n_procs:2 in
  let fid = ref None in
  Array.iteri
    (fun f p ->
      Array.iteri
        (fun src row ->
          if !fid = None && Array.length row > 0 then (
            let d, n = row.(0) in
            row.(0) <- (d, -n);
            fid := Some (f, src)))
        p.Profile.freqs)
    train.Profile.procs;
  Alcotest.(check bool) "found an edge to corrupt" true (!fid <> None);
  match Driver.align_checked tsp penalties cfgs ~train with
  | Ok _ -> Alcotest.fail "negative count accepted"
  | Error (Errors.Invalid_profile _) -> ()
  | Error e ->
      Alcotest.failf "expected Invalid_profile, got %s" (Errors.to_string e)

(* The contract of the degradation chain: with a zero deadline the TSP
   and Calder stages must refuse to start and every procedure must come
   out bit-for-bit identical to the Greedy safety net, with the timeout
   recorded as the fallback reason. *)
let test_deadline_zero_is_greedy () =
  let cfgs, train = program ~seed:5 ~n_procs:3 in
  match Driver.align_checked ~deadline_ms:0 tsp penalties cfgs ~train with
  | Error e -> Alcotest.failf "deadline 0 failed: %s" (Errors.to_string e)
  | Ok report ->
      Array.iteri
        (fun fid cfg ->
          let greedy =
            Greedy.align cfg ~profile:(Profile.proc train fid)
          in
          Alcotest.(check (array int))
            (Printf.sprintf "proc %d order = greedy" fid)
            greedy
            report.Driver.aligned.Driver.orders.(fid))
        cfgs;
      Alcotest.(check int)
        "every procedure degraded"
        (Array.length cfgs)
        (List.length report.Driver.fallbacks);
      List.iter
        (fun f ->
          Alcotest.(check string)
            "degraded to greedy" "greedy"
            (Driver.method_name f.Driver.used);
          match f.Driver.reason with
          | Errors.Solver_timeout _ -> ()
          | e ->
              Alcotest.failf "expected Solver_timeout reason, got %s"
                (Errors.to_string e))
        report.Driver.fallbacks

(* With fallback disabled, the same timeout is a hard typed error. *)
let test_deadline_zero_no_fallback () =
  let cfgs, train = program ~seed:5 ~n_procs:2 in
  match
    Driver.align_checked ~deadline_ms:0 ~fallback:false tsp penalties cfgs
      ~train
  with
  | Ok _ -> Alcotest.fail "zero budget succeeded without fallback"
  | Error (Errors.Solver_timeout _) -> ()
  | Error e ->
      Alcotest.failf "expected Solver_timeout, got %s" (Errors.to_string e)

(* A generous deadline must not degrade anything, and the result must
   agree with the unchecked driver. *)
let test_generous_deadline_no_fallback () =
  let cfgs, train = program ~seed:6 ~n_procs:2 in
  match
    Driver.align_checked ~deadline_ms:60_000 (Driver.Calder) penalties cfgs
      ~train
  with
  | Error e -> Alcotest.failf "rejected: %s" (Errors.to_string e)
  | Ok report ->
      Alcotest.(check int) "no fallbacks" 0 (List.length report.Driver.fallbacks);
      let plain = Driver.align Driver.Calder penalties cfgs ~train in
      Array.iteri
        (fun fid o ->
          Alcotest.(check (array int))
            (Printf.sprintf "proc %d agrees with unchecked driver" fid)
            plain.Driver.orders.(fid) o)
        report.Driver.aligned.Driver.orders

(* Budget unit semantics. *)
let test_budget_semantics () =
  let b = Budget.create ~deadline_ms:0 () in
  Alcotest.(check bool) "deadline 0 exhausted at once" true (Budget.exhausted b);
  let u = Budget.unlimited () in
  Alcotest.(check bool) "unlimited not exhausted" false (Budget.exhausted u);
  match Budget.timeout_error ~proc:7 b with
  | Errors.Solver_timeout { proc = Some 7; deadline_ms = Some 0; _ } -> ()
  | e -> Alcotest.failf "bad timeout error: %s" (Errors.to_string e)

(* Per-request budget isolation: the serve daemon creates one budget per
   request, so budgets must never share state — one request's exhausted
   deadline must not bleed into another in flight. *)
let test_budget_per_request () =
  let tight = Budget.create ~deadline_ms:0 () in
  let roomy = Budget.create ~deadline_ms:60_000 () in
  Alcotest.(check bool) "tight exhausted" true (Budget.exhausted tight);
  Alcotest.(check bool) "roomy unaffected" false (Budget.exhausted roomy);
  (match Budget.remaining_ms (Budget.unlimited ()) with
  | None -> ()
  | Some _ -> Alcotest.fail "unlimited budget reported a remaining time");
  (match Budget.remaining_ms tight with
  | Some r -> Alcotest.(check bool) "tight has none left" true (r <= 0.)
  | None -> Alcotest.fail "deadline budget lost its deadline");
  match Budget.remaining_ms roomy with
  | Some r ->
      Alcotest.(check bool) "roomy has most of its time" true
        (0. < r && r <= 60_000.)
  | None -> Alcotest.fail "deadline budget lost its deadline"

(* A non-zero deadline on the monotonic clock: live at creation, a
   remaining time that only counts down, and fired once it has passed.
   Liveness is asserted outright on a 1 s budget; on the 30 ms one a
   descheduled runner may already be past the deadline, so there an
   early exhaustion must at least agree with the elapsed time. *)
let test_budget_deadline_elapses () =
  let roomy = Budget.create ~deadline_ms:1000 () in
  let b = Budget.create ~deadline_ms:30 () in
  Alcotest.(check bool) "1 s budget live at creation" false
    (Budget.exhausted roomy);
  if Budget.exhausted b then
    Alcotest.(check bool) "early exhaustion only after 30 ms" true
      (Budget.elapsed_ms b >= 30.);
  let remaining () =
    match Budget.remaining_ms b with
    | Some r -> r
    | None -> Alcotest.fail "deadline budget lost its deadline"
  in
  let prev = ref 30. and clock = ref (Ba_obs.Mono.now_ns ()) in
  for _ = 1 to 1000 do
    let r = remaining () and t = Ba_obs.Mono.now_ns () in
    if r > !prev then Alcotest.failf "remaining_ms rose: %g -> %g" !prev r;
    if Int64.compare t !clock < 0 then
      Alcotest.failf "Mono.now_ns went backwards: %Ld -> %Ld" !clock t;
    prev := r;
    clock := t
  done;
  Unix.sleepf 0.05;
  Alcotest.(check bool) "exhausted after 50 ms" true (Budget.exhausted b);
  Alcotest.(check bool) "elapsed >= 30 ms" true (Budget.elapsed_ms b >= 30.);
  Alcotest.(check (float 0.)) "nothing remains" 0. (remaining ())

(* A deadline too far out to represent in Mono nanoseconds saturates
   instead of wrapping into the past. *)
let test_budget_huge_deadline () =
  List.iter
    (fun ms ->
      let b = Budget.create ~deadline_ms:ms () in
      Alcotest.(check bool) (Printf.sprintf "%d ms not exhausted" ms) false
        (Budget.exhausted b);
      match Budget.remaining_ms b with
      | Some r ->
          Alcotest.(check bool) (Printf.sprintf "%d ms remains" ms) true
            (r > 1e12)
      | None -> Alcotest.fail "deadline budget lost its deadline")
    [ max_int; 10_000_000_000_000; 9_300_000_000_000 ]

(* The 3-Opt move loop polls its budget between moves, so a deadline
   poll must not allocate: a boxed clock reading per poll would add
   minor collections to every budgeted solve. *)
let test_budget_poll_allocates_nothing () =
  let b = Budget.create ~deadline_ms:60_000 () in
  let live = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    if not (Budget.exhausted b) then incr live
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "every poll live" 10_000 !live;
  Alcotest.(check (float 0.)) "minor words allocated by 10k polls" 0. words

(* The daemon-side deadline policy helper. *)
let test_clamp_deadline () =
  let check what got want = Alcotest.(check bool) what true (got = want) in
  check "no request, no cap" (Budget.clamp_deadline None) None;
  check "request passes uncapped" (Budget.clamp_deadline (Some 50)) (Some 50);
  check "cap fills in a default" (Budget.clamp_deadline ~cap:100 None) (Some 100);
  check "under the cap untouched"
    (Budget.clamp_deadline ~cap:100 (Some 50))
    (Some 50);
  check "over the cap clamped"
    (Budget.clamp_deadline ~cap:100 (Some 500))
    (Some 100);
  check "negative request is an instant deadline"
    (Budget.clamp_deadline (Some (-5)))
    (Some 0)

(* Exit codes are distinct and stable: they are part of the CLI contract
   documented in docs/ROBUSTNESS.md. *)
let test_exit_codes_distinct () =
  let samples =
    [
      Errors.Usage "x";
      Errors.Parse_error { stage = "parser"; message = "x" };
      Errors.Invalid_input { tokens = [ (0, "x") ] };
      Errors.Invalid_cfg { proc = None; name = None; reason = "x" };
      Errors.Invalid_profile { proc = None; src = None; dst = None; reason = "x" };
      Errors.Profile_mismatch { proc = None; expected = 1; got = 2; what = "x" };
      Errors.Solver_timeout
        { proc = None; elapsed_ms = 0.; deadline_ms = Some 0 };
      Errors.Invalid_layout { proc = None; name = None; reason = "x" };
      Errors.Io_error { path = "x"; reason = "x" };
      Errors.Internal { where = "x"; reason = "x" };
    ]
  in
  let codes = List.map Errors.exit_code samples in
  (* both profile error classes share code 6; all other codes are
     pairwise distinct *)
  Alcotest.(check int)
    "distinct code classes"
    (List.length codes - 1)
    (List.length (List.sort_uniq compare codes));
  Alcotest.(check int) "profile classes share a code"
    (Errors.exit_code
       (Errors.Invalid_profile
          { proc = None; src = None; dst = None; reason = "x" }))
    (Errors.exit_code
       (Errors.Profile_mismatch { proc = None; expected = 1; got = 2; what = "x" }));
  List.iter
    (fun c ->
      Alcotest.(check bool) "code in 2..10" true (c >= 2 && c <= 10))
    codes

(* The chain is deterministic and always ends in Original. *)
let test_chain_shape () =
  let check_chain m expect =
    Alcotest.(check (list string))
      (Driver.method_name m ^ " chain")
      expect
      (List.map Driver.method_name (Driver.chain m))
  in
  check_chain tsp [ "tsp"; "calder"; "greedy"; "original" ];
  check_chain Driver.Calder_exhaustive
    [ "calder-exhaustive"; "calder"; "greedy"; "original" ];
  check_chain Driver.Calder [ "calder"; "greedy"; "original" ];
  check_chain Driver.Greedy [ "greedy"; "original" ];
  check_chain Driver.Original [ "original" ]

(* The CLI and the wire decoder parse method names with
   [method_of_string]: it must invert [method_name] on every method. *)
let test_method_names_round_trip () =
  List.iter
    (fun m ->
      let name = Driver.method_name m in
      Alcotest.(check bool) (name ^ " round-trips") true
        (Driver.method_of_string name = Some m))
    (Driver.chain tsp @ [ Driver.Btfnt; Driver.Calder_exhaustive ]);
  Alcotest.(check bool) "unknown name" true
    (Driver.method_of_string "TSP" = None)

let () =
  Alcotest.run "robust"
    [
      ( "validation",
        [
          Alcotest.test_case "wrong-program profile rejected" `Quick
            test_wrong_program_profile;
          Alcotest.test_case "corrupted profile rejected" `Quick
            test_corrupted_profile;
        ] );
      ( "budgets",
        [
          Alcotest.test_case "deadline 0 degrades to greedy bit-for-bit"
            `Quick test_deadline_zero_is_greedy;
          Alcotest.test_case "deadline 0 without fallback errors" `Quick
            test_deadline_zero_no_fallback;
          Alcotest.test_case "generous deadline never degrades" `Quick
            test_generous_deadline_no_fallback;
          Alcotest.test_case "budget unit semantics" `Quick
            test_budget_semantics;
          Alcotest.test_case "per-request budgets isolated" `Quick
            test_budget_per_request;
          Alcotest.test_case "30 ms deadline elapses" `Quick
            test_budget_deadline_elapses;
          Alcotest.test_case "huge deadline saturates" `Quick
            test_budget_huge_deadline;
          Alcotest.test_case "deadline poll allocates nothing" `Quick
            test_budget_poll_allocates_nothing;
          Alcotest.test_case "deadline clamping" `Quick test_clamp_deadline;
        ] );
      ( "contract",
        [
          Alcotest.test_case "exit codes distinct and documented" `Quick
            test_exit_codes_distinct;
          Alcotest.test_case "degradation chains" `Quick test_chain_shape;
          Alcotest.test_case "method names round-trip" `Quick
            test_method_names_round_trip;
        ] );
    ]
