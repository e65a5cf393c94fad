(** Golden-file tests for the CSV exports.

    Two layers: (a) the committed deterministic [results/*.csv]
    artifacts (spec92, spec95, appendix) must carry exactly the headers
    and row shape the current {!Ba_harness.Csv} code emits — catching
    silent schema drift between code and artifacts; the timing CSVs
    hold run-dependent seconds and are not committed; (b) a tiny
    deterministic workload renders through [rows_csv]/[timing_csv] and
    must match committed golden files byte-for-byte (run-dependent
    timing columns masked), which pins the timing header. *)

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
    ]
