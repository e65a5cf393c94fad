(** Golden-file tests for the committed results.

    Three layers: (a) the committed deterministic [results/*.csv]
    artifacts (spec92, spec95, appendix) must carry exactly the headers
    and row shape the current {!Ba_harness.Csv} code emits — catching
    silent schema drift between code and artifacts; the timing CSVs
    hold run-dependent seconds and are not committed; (b) a tiny
    deterministic workload renders through [rows_csv]/[timing_csv] and
    must match committed golden files byte-for-byte (run-dependent
    timing columns masked), which pins the timing header; (c) one
    SPEC92 pair, dod.sm, is run through the runner and the studies that
    re-price its layouts, and its lines must appear byte for byte in
    [results/spec92.csv] and [results/report.txt]; certifying its TSP
    layout with a computed Held–Karp bound must take a pinned number of
    ascent iterations; (d) the appendix study's xli.ne/main instance,
    whose Held–Karp bound proves its tour optimal, must render its
    [results/appendix.csv] line byte for byte. *)

module Csv = Ba_harness.Csv
module Runner = Ba_harness.Runner
module Workload = Ba_workloads.Workload

(* ---------------- locating the source tree ---------------- *)

let repo_root () =
  let rec up dir n =
    if n = 0 then Alcotest.fail "repo root not found above cwd"
    else if
      Sys.file_exists (Filename.concat dir "results")
      && Sys.file_exists (Filename.concat dir "dune-project")
    then dir
    else up (Filename.dirname dir) (n - 1)
  in
  up (Sys.getcwd ()) 8

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* ---------------- (a) committed artifacts match the code ---------------- *)

let rows_header = List.hd (Csv.rows_csv [])

let appendix_header =
  List.hd
    (Csv.appendix_csv
       {
         Ba_harness.Appendix.instances = [];
         n_ap_exact = 0;
         n_proven = 0;
         median_ap_gap_pct = 0.;
         max_ap_ratio = 0.;
         mean_hk_gap_pct = 0.;
         max_hk_gap_pct = 0.;
         all_runs_found_best = 0;
         mean_patching_excess_pct = 0.;
         patching_wins_or_ties = 0;
       })

let n_fields line =
  List.length (String.split_on_char ',' line)

let check_artifact name ~header =
  let path = Filename.concat (repo_root ()) (Filename.concat "results" name) in
  match read_lines path with
  | [] -> Alcotest.failf "%s is empty" name
  | hd :: rows ->
      Alcotest.(check string) (name ^ " header") header hd;
      Alcotest.(check bool) (name ^ " has rows") true (rows <> []);
      List.iteri
        (fun i row ->
          Alcotest.(check int)
            (Printf.sprintf "%s row %d field count" name (i + 1))
            (n_fields header) (n_fields row))
        rows

let test_artifact_headers () =
  check_artifact "spec92.csv" ~header:rows_header;
  check_artifact "spec95.csv" ~header:rows_header;
  check_artifact "appendix.csv" ~header:appendix_header

(* ---------------- (b) golden render of a tiny workload ---------------- *)

(* Small fixed program: one skewed loop, enough branch sites for every
   aligner to do real work, fast enough for a unit test. *)
let tiny_source =
  "fn weigh(x) {\n\
  \  var acc = 0;\n\
  \  while (x > 0) {\n\
  \    if (x % 3 == 0) { acc = acc + 2; } else { acc = acc - 1; }\n\
  \    if (x % 7 == 0) { acc = acc * 2; }\n\
  \    x = x - 1;\n\
  \  }\n\
  \  return acc;\n\
  }\n\
  fn main() {\n\
  \  var n = read();\n\
  \  var total = 0;\n\
  \  for (var i = 1; i <= n; i = i + 1) { total = total + weigh(i); }\n\
  \  print(total);\n\
  \  return 0;\n\
  }\n"

let tiny_workload =
  {
    Workload.name = "tiny";
    paper_name = "000.tiny";
    description = "golden-test fixture";
    source = tiny_source;
    datasets =
      ( { Workload.ds_name = "a"; input = [| 25 |]; ds_description = "short" },
        { Workload.ds_name = "b"; input = [| 60 |]; ds_description = "long" }
      );
  }

(** Blank out the run-dependent timing columns, keeping the identity
    columns (bench, ds) and the deterministic sample count
    [n_solves]. *)
let mask_timing_row ~header row =
  let cols = String.split_on_char ',' (String.concat "" [ header ]) in
  let keep = [ "bench"; "ds"; "n_solves" ] in
  String.split_on_char ',' row
  |> List.mapi (fun i v ->
         match List.nth_opt cols i with
         | Some c when List.mem c keep -> v
         | _ -> "X")
  |> String.concat ","

let golden_path name =
  Filename.concat (repo_root ()) (Filename.concat "test/golden" name)

(** Compare against the committed golden file; [GOLDEN_UPDATE=1]
    rewrites it instead (run once after an intentional format change,
    then review the diff). *)
let check_golden name actual_lines =
  if Sys.getenv_opt "GOLDEN_UPDATE" = Some "1" then begin
    let oc = open_out (golden_path name) in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        List.iter (fun l -> output_string oc (l ^ "\n")) actual_lines)
  end
  else
    let expect = read_lines (golden_path name) in
    Alcotest.(check (list string)) name expect actual_lines

let tiny_rows =
  lazy (Runner.run_all ~workloads:[ tiny_workload ] ())

let test_golden_rows () =
  check_golden "rows.golden" (Csv.rows_csv (Lazy.force tiny_rows))

let test_golden_timing_masked () =
  match Csv.timing_csv (Lazy.force tiny_rows) with
  | [] -> Alcotest.fail "no timing output"
  | header :: rows ->
      check_golden "timing.golden"
        (header :: List.map (mask_timing_row ~header) rows)

(* ---------------- (c) dod.sm against the committed results ---------------- *)

module Driver = Ba_align.Driver

let dod_sm =
  lazy (Runner.run_benchmark Workload.dod ~test:(snd Workload.dod.Workload.datasets))

let results name =
  read_lines (Filename.concat (repo_root ()) (Filename.concat "results" name))

let is_rule l = l <> "" && String.for_all (( = ) '-') l

(** The body of the report section titled [title]: the lines between
    its banner and the next one. *)
let report_section lines title =
  let rec body = function
    | [] -> []
    | l :: _ :: rest when l = title -> rest
    | _ :: rest -> body rest
  in
  let rec upto = function
    | [] -> []
    | l :: rest -> if is_rule l then [] else l :: upto rest
  in
  upto (body lines)

(** Every ["dod.sm"] line a study prints for the row must sit verbatim
    in that study's section of the committed report. *)
let check_study name print =
  let rendered = String.split_on_char '\n' (Fmt.str "%a" print ()) in
  let title = List.find (fun l -> l <> "" && not (is_rule l)) rendered in
  let committed = report_section (results "report.txt") title in
  let mine =
    List.filter (fun l -> String.starts_with ~prefix:"dod.sm " l) rendered
  in
  Alcotest.(check bool) (name ^ " prints dod.sm") true (mine <> []);
  List.iter
    (fun l ->
      Alcotest.(check bool)
        (Printf.sprintf "report.txt %s has %S" name l)
        true (List.mem l committed))
    mine

let test_committed_dod_sm () =
  let row = Lazy.force dod_sm in
  let line = List.nth (Csv.rows_csv [ row ]) 1 in
  Alcotest.(check bool)
    (Printf.sprintf "spec92.csv has %S" line)
    true
    (List.mem line (results "spec92.csv"));
  let module H = Ba_harness in
  check_study "dynamic" (fun ppf () ->
      H.Dyn_exp.print ppf [ H.Dyn_exp.run_one row ]);
  check_study "btfnt" (fun ppf () ->
      H.Btfnt_exp.print ppf [ H.Btfnt_exp.run_one row ]);
  check_study "replication" (fun ppf () ->
      H.Replication.print ppf [ H.Replication.run_one row ])

(* The studies price the row's own TSP layout: re-realize its orders
   and price them independently. *)
let test_studies_price_row () =
  let row = Lazy.force dod_sm in
  let model = row.Runner.config.Runner.model in
  let tsp = row.Runner.tsp_self in
  let program = tsp.Runner.program in
  let a =
    Driver.realize Driver.Original model program.Driver.cfgs
      program.Driver.orders ~train:row.Runner.test_profile
  in
  let rep = Ba_harness.Replication.run_one row in
  Alcotest.(check int) "replication penalty_before = tsp_self"
    tsp.Runner.penalty rep.Ba_harness.Replication.penalty_before;
  Alcotest.(check int) "replication cycles_before = tsp_self"
    tsp.Runner.cycles rep.Ba_harness.Replication.cycles_before;
  Alcotest.(check int) "btfnt tsp prices the tsp_self orders"
    (Ba_align.Btfnt.program_penalty model.Ba_machine.Model.penalties
       a.Driver.cfgs ~realized:a.Driver.realized ~test:row.Runner.test_profile)
    (Ba_harness.Btfnt_exp.run_one row).Ba_harness.Btfnt_exp.tsp;
  let counters, sink =
    Ba_machine.Dynamic.make_sink model.Ba_machine.Model.penalties
      ~realized:a.Driver.realized ~addr:a.Driver.addr
  in
  ignore
    (Ba_minic.Compile.run row.Runner.compiled ~input:row.Runner.test_input
       ~sink);
  let dyn = Ba_harness.Dyn_exp.run_one row in
  let _, _, tsp_dyn =
    dyn.Ba_harness.Dyn_exp.default_bht.Ba_harness.Dyn_exp.penalties
  in
  Alcotest.(check int) "dynamic tsp prices the tsp_self orders"
    counters.Ba_machine.Dynamic.penalty_cycles tsp_dyn;
  let _, _, tsp_static = dyn.Ba_harness.Dyn_exp.static_ in
  Alcotest.(check int) "dynamic static tsp = tsp_self" tsp.Runner.penalty
    tsp_static

(* Certifying the row's self-trained TSP layout with a computed bound
   runs one Held–Karp ascent per procedure.  The iteration and proof
   counts pin the whole subgradient trajectory: a change to the 1-tree
   that moves a single weight bit moves them too.  Every iteration
   takes the pair step: none falls back to the dense Prim. *)
let test_dod_sm_ascent () =
  let module M = Ba_obs.Metrics in
  let row = Lazy.force dod_sm in
  let program = row.Runner.tsp_self.Runner.program in
  let it0 = M.get M.Held_karp_iterations and pr0 = M.get M.Held_karp_proved in
  let de0 = M.get M.Held_karp_dense_iterations in
  (match
     Ba_check.Certify.program
       ~hk:(fun _ -> Ba_check.Certify.Compute Ba_tsp.Held_karp.default)
       row.Runner.config.Runner.model program.Driver.cfgs
       ~train:row.Runner.test_profile ~orders:program.Driver.orders
   with
  | Ok _ -> ()
  | Error f ->
      Alcotest.failf "dod.sm uncertified: %s"
        (Ba_check.Certify.error_to_string f.Ba_check.Certify.error));
  Alcotest.(check int) "held_karp.iterations" 393
    (M.get M.Held_karp_iterations - it0);
  Alcotest.(check int) "held_karp.proved" 3 (M.get M.Held_karp_proved - pr0);
  Alcotest.(check int) "held_karp.dense_iterations" 0
    (M.get M.Held_karp_dense_iterations - de0)

(* ---------------- (d) xli.ne/main against appendix.csv ---------------- *)

(* The appendix instance whose bound the ascent's step rule decides: an
   ascent that stalls short of the proof reads [hk] below [tour]. *)
let test_committed_xli_ne () =
  let module H = Ba_harness in
  let inst =
    List.find
      (fun (i : H.Synthetic.instance) -> i.H.Synthetic.name = "xli.ne/main")
      (H.Synthetic.workload_instances ())
  in
  let line = List.nth (Csv.appendix_csv (H.Appendix.study [ inst ])) 1 in
  Alcotest.(check bool)
    (Printf.sprintf "appendix.csv has %S" line)
    true
    (List.mem line (results "appendix.csv"))

let () =
  Alcotest.run "golden"
    [
      ( "csv",
        [
          Alcotest.test_case "committed artifacts match the code" `Quick
            test_artifact_headers;
          Alcotest.test_case "tiny workload rows golden" `Quick
            test_golden_rows;
          Alcotest.test_case "tiny workload timing shape golden" `Quick
            test_golden_timing_masked;
        ] );
      ( "dod.sm",
        [
          Alcotest.test_case "committed spec92 and report lines" `Quick
            test_committed_dod_sm;
          Alcotest.test_case "studies price the runner's layouts" `Quick
            test_studies_price_row;
          Alcotest.test_case "Held-Karp ascent pinned" `Quick
            test_dod_sm_ascent;
        ] );
      ( "xli.ne",
        [
          Alcotest.test_case "committed appendix line" `Quick
            test_committed_xli_ne;
        ] );
    ]
