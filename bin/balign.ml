(* balign — branch alignment driver.

   Subcommands:
     compile   parse + lower a minic program, print CFG statistics
     dot       dump the CFGs in Graphviz format (--lint colors findings)
     lint      static analysis of CFGs and profiles (ba_check rules)
     analyze   structural analysis: dominators, loops, static estimate
     profile   run a program and print its edge-frequency profile
     align     lay out a program with a chosen method, report penalties
               (--certify emits an independent alignment certificate)
     serve     crash-only alignment daemon: framed JSON requests in,
               certified layouts or typed errors out (docs/SERVING.md)
     evaluate  cross-validate training vs testing inputs
     bounds    per-procedure lower bounds vs the TSP aligner
     bench     run the paper's experiment for one built-in benchmark
     report    print the paper's tables, figures and extension studies;
               `report csv` rewrites the committed results/ files

   Every failure is a typed Ba_robust.Errors.t mapped to a documented
   exit code (see docs/ROBUSTNESS.md); commands never exit from the
   middle of their logic. *)

open Cmdliner
module Errors = Ba_robust.Errors
module Executor = Ba_engine.Executor

let ( let* ) r f = Result.bind r f

(* ---------------- shared helpers ---------------- *)

(** Training-profile source shared by align/evaluate/bench/serve:
    [`Collected] runs the program, [`Static] estimates frequencies from
    CFG structure alone ({!Ba_analysis.Estimate}). *)
let profile_mode_opt =
  Arg.(value
       & opt (enum [ ("collected", `Collected); ("static", `Static) ]) `Collected
       & info [ "profile" ] ~docv:"MODE"
           ~doc:"train layouts on the collected edge profile \
                 ($(b,collected), default) or on the structural estimate \
                 ($(b,static): Wu-Larus branch heuristics propagated \
                 through the loop forest — no training run at all). \
                 Measurements always use the collected testing profile.")

(** Evaluate one command body: print the typed error and turn it into
    its documented exit code.  Escaped exceptions (interpreter runtime
    errors, I/O, stack overflow) are converted, never re-raised. *)
let run_term (f : unit -> (unit, Errors.t) result) : int =
  let result =
    try f () with
    | Ba_minic.Interp.Runtime_error m ->
        Error (Errors.Internal { where = "minic runtime"; reason = m })
    | Sys_error m -> Error (Errors.Io_error { path = "?"; reason = m })
    | Stack_overflow ->
        Error (Errors.Internal { where = "balign"; reason = "stack overflow" })
    | e -> Error (Errors.of_exn ~where:"balign" e)
  in
  match result with
  | Ok () -> 0
  | Error e ->
      Fmt.epr "balign: error: %a@." Errors.pp e;
      Errors.exit_code e

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> Ok s
  | exception Sys_error m -> Error (Errors.Io_error { path; reason = m })

(** Parse a read() input string, reporting {e every} bad token with its
    byte offset rather than dying on the first one. *)
let parse_input (s : string) : (int array, Errors.t) result =
  let is_sep = function ' ' | ',' | '\t' | '\n' | '\r' -> true | _ -> false in
  let n = String.length s in
  let vals = ref [] and bad = ref [] and i = ref 0 in
  while !i < n do
    while !i < n && is_sep s.[!i] do incr i done;
    if !i < n then begin
      let start = !i in
      while !i < n && not (is_sep s.[!i]) do incr i done;
      let tok = String.sub s start (!i - start) in
      match int_of_string_opt tok with
      | Some v -> vals := v :: !vals
      | None -> bad := (start, tok) :: !bad
    end
  done;
  if !bad = [] then Ok (Array.of_list (List.rev !vals))
  else Error (Errors.Invalid_input { tokens = List.rev !bad })

let load_program path =
  let* src = read_file path in
  Ba_minic.Compile.compile src

let load_input ~input ~input_file =
  match (input, input_file) with
  | Some s, None -> parse_input s
  | None, Some f ->
      let* s = read_file f in
      parse_input s
  | None, None -> Ok [||]
  | Some _, Some _ -> Error (Errors.Usage "give --input or --input-file, not both")

(** Collect a training profile only when an input was actually given:
    lint without an input stays purely structural (running an
    interactive program with no input could spin). *)
let load_profile_opt c ~input ~input_file =
  match (input, input_file) with
  | None, None -> Ok None
  | _ ->
      let* inp = load_input ~input ~input_file in
      Ok (Some (Ba_minic.Compile.profile c ~input:inp))

(* ---------------- common options ---------------- *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"minic source file")

let input_opt =
  Arg.(value & opt (some string) None & info [ "input" ] ~docv:"INTS"
         ~doc:"comma/space separated integers fed to read()")

let input_file_opt =
  Arg.(value & opt (some file) None & info [ "input-file" ] ~docv:"FILE"
         ~doc:"file of integers fed to read()")

let deadline_opt =
  Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS"
         ~doc:"wall-clock solver budget in milliseconds; 0 degrades \
               immediately to the greedy fallback")

let jobs_conv : int Arg.conv =
  let parse = function
    | "max" -> Ok (Executor.default_jobs ())
    | s -> (
        match int_of_string_opt s with
        | Some n when n >= 1 -> Ok n
        | _ -> Error (`Msg "JOBS must be a positive integer or 'max'"))
  in
  Arg.conv (parse, Fmt.int)

let jobs_opt =
  Arg.(value & opt jobs_conv 1
       & info [ "j"; "jobs" ] ~docv:"JOBS"
           ~doc:"run per-procedure work on $(docv) domains (a positive \
                 integer, or $(b,max) for the recommended domain count). \
                 Output is bit-identical at any value.")

let trace_opt =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"write a Chrome trace_event JSON of per-task spans to $(docv) \
                 (load it in chrome://tracing or Perfetto)")

let metrics_opt =
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"FILE"
           ~doc:"write a solver-metrics snapshot to $(docv): $(b,*.csv) as \
                 CSV, $(b,-) or $(b,stderr) as a stderr summary, anything \
                 else as JSON")

(** Run a command body with the requested observability outputs.
    Tracing is enabled before the body runs; the trace/metrics files
    are written afterwards even when the body failed (a trace of a
    failing run is the one worth keeping).  Write errors escape as
    [Sys_error] and map to the documented I/O exit code. *)
let with_obs ~trace ~metrics (f : unit -> (unit, Errors.t) result) :
    (unit, Errors.t) result =
  if trace <> None then Ba_obs.Trace.set_enabled true;
  let result = f () in
  Option.iter Ba_obs.Trace.write_chrome trace;
  Option.iter (fun spec -> Ba_obs.Sink.emit (Ba_obs.Sink.of_spec spec)) metrics;
  result

let model_conv : Ba_machine.Model.t Arg.conv =
  let parse s =
    match Ba_machine.Model.find s with
    | Some m -> Ok m
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown model %s (known: %s)" s
               (String.concat ", " Ba_machine.Model.known)))
  in
  Arg.conv (parse, fun ppf m -> Fmt.string ppf (Ba_machine.Model.to_string m))

let model_opt =
  Arg.(value & opt model_conv Ba_machine.Model.default
       & info [ "model" ] ~docv:"MODEL"
           ~doc:"cost model the whole pipeline runs under: \
                 $(b,alpha21164) (the paper's Alpha 21164 penalties, \
                 default), $(b,deep-pipeline) (10-cycle mispredicts), \
                 $(b,free-fetch) (fetch-bandwidth-free front end), or \
                 $(b,ext-tsp)[:$(i,WINDOW)] (the Ext-TSP code-locality \
                 objective with a forward jump window of $(i,WINDOW) \
                 bytes, default 1024)")

let fallback_opt =
  Arg.(value
       & opt (enum [ ("chain", true); ("none", false) ]) true
       & info [ "fallback" ] ~docv:"MODE"
           ~doc:"on a solver timeout or layout failure, degrade along the \
                 deterministic chain ($(b,chain), default) or fail with a \
                 typed error ($(b,none))")

(** The documented exit codes (docs/ROBUSTNESS.md), one per error
    class, attached to every subcommand's man page. *)
let exits =
  Cmd.Exit.defaults
  @ [
      Cmd.Exit.info 2 ~doc:"usage error (bad flag combination or argument)";
      Cmd.Exit.info 3 ~doc:"source parse/check error";
      Cmd.Exit.info 4 ~doc:"malformed input tokens";
      Cmd.Exit.info 5 ~doc:"invalid control-flow graph";
      Cmd.Exit.info 6 ~doc:"invalid or mismatched profile";
      Cmd.Exit.info 7 ~doc:"solver budget exhausted (and --fallback none)";
      Cmd.Exit.info 8 ~doc:"semantically unfaithful layout";
      Cmd.Exit.info 9 ~doc:"I/O error";
      Cmd.Exit.info 10 ~doc:"internal error";
    ]

let cmd name ?man ~doc term = Cmd.v (Cmd.info name ?man ~doc ~exits) term

(* ---------------- compile ---------------- *)

let compile_cmd =
  let run file =
    let* c = load_program file in
    Fmt.pr "%d function(s)@." (Array.length c.Ba_minic.Compile.cfgs);
    Array.iteri
      (fun fid g ->
        Fmt.pr "  [%d] %-16s %3d blocks, %3d CFG edges, %3d branch sites, %4d instrs@."
          fid c.Ba_minic.Compile.names.(fid) (Ba_cfg.Cfg.n_blocks g)
          (Ba_cfg.Cfg.n_edges g) (Ba_cfg.Cfg.n_branch_sites g)
          (Ba_cfg.Cfg.total_size g))
      c.Ba_minic.Compile.cfgs;
    Ok ()
  in
  cmd "compile" ~doc:"compile a minic program and print CFG statistics"
    Term.(const (fun file -> run_term (fun () -> run file)) $ file_arg)

(* ---------------- dot ---------------- *)

let dot_cmd =
  let run file func lint input input_file =
    let* c = load_program file in
    let* diags =
      if not lint then Ok []
      else
        let* profile = load_profile_opt c ~input ~input_file in
        let r = Ba_check.Lint.analyze ?profile c.Ba_minic.Compile.cfgs in
        Ok r.Ba_check.Lint.diags
    in
    Array.iteri
      (fun fid g ->
        if func = None || func = Some c.Ba_minic.Compile.names.(fid) then
          if lint then begin
            let block_attr, edge_attr =
              Ba_check.Lint.dot_annotations ~proc:fid diags
            in
            print_string (Ba_cfg.Dot.to_string ~block_attr ~edge_attr g)
          end
          else print_string (Ba_cfg.Dot.to_string g))
      c.Ba_minic.Compile.cfgs;
    Ok ()
  in
  let func =
    Arg.(value & opt (some string) None & info [ "function" ] ~docv:"NAME"
           ~doc:"only this function")
  in
  let lint_flag =
    Arg.(value & flag
         & info [ "lint" ]
             ~doc:"run the ba_check rules and color offending blocks/edges \
                   (rule ids in the tooltip); give --input to include the \
                   profile rules")
  in
  cmd "dot" ~doc:"dump CFGs in Graphviz DOT format"
    Term.(const (fun file func lint i inf ->
              run_term (fun () -> run file func lint i inf))
          $ file_arg $ func $ lint_flag $ input_opt $ input_file_opt)

(* ---------------- lint ---------------- *)

let lint_cmd =
  let list_rules () =
    List.iter
      (fun (r : Ba_check.Rules.rule) ->
        Fmt.pr "%-6s %-26s %-8s %s@." r.Ba_check.Rules.code
          r.Ba_check.Rules.id
          (Ba_check.Diagnostic.severity_name r.Ba_check.Rules.severity)
          r.Ba_check.Rules.doc)
      Ba_check.Rules.all;
    Ok ()
  in
  let run file input input_file format strict list =
    if list then list_rules ()
    else
      let* file =
        match file with
        | Some f -> Ok f
        | None -> Error (Errors.Usage "give a FILE to lint (or --list)")
      in
      let* c = load_program file in
      let* profile = load_profile_opt c ~input ~input_file in
      let report = Ba_check.Lint.analyze ?profile c.Ba_minic.Compile.cfgs in
      (match format with
      | `Text -> Fmt.pr "%a" Ba_check.Lint.pp_report report
      | `Json ->
          print_endline
            (Ba_obs.Json.to_string (Ba_check.Lint.report_json report))
      | `Sarif ->
          print_endline
            (Ba_obs.Json.to_string (Ba_check.Lint.sarif_json report)));
      match Ba_check.Lint.first_gating ~strict report with
      | None -> Ok ()
      | Some d -> Error (Ba_check.Lint.to_error d)
  in
  let opt_file_arg =
    Arg.(value & pos 0 (some file) None
         & info [] ~docv:"FILE" ~doc:"minic source file (omit with --list)")
  in
  let format_opt =
    Arg.(value
         & opt (enum [ ("text", `Text); ("json", `Json); ("sarif", `Sarif) ])
             `Text
         & info [ "format" ] ~docv:"FMT"
             ~doc:"findings as one line each ($(b,text), default), as a \
                   $(b,balign-lint-1) JSON document ($(b,json)), or as a \
                   SARIF 2.1.0 log with the rule catalogue as tool \
                   metadata ($(b,sarif))")
  in
  let strict_opt =
    Arg.(value & flag
         & info [ "strict" ]
             ~doc:"warnings gate too (infos never do); the exit code is the \
                   documented code of the first gating finding's error class")
  in
  let list_opt =
    Arg.(value & flag
         & info [ "list" ]
             ~doc:"print the rule catalogue (code, id, severity, rationale) \
                   and exit; no FILE needed")
  in
  cmd "lint"
    ~doc:"static analysis: check CFGs (and, with --input, the profile) \
          against the ba_check rule catalogue"
    Term.(const (fun file i f fmt s l ->
              run_term (fun () -> run file i f fmt s l))
          $ opt_file_arg $ input_opt $ input_file_opt $ format_opt $ strict_opt
          $ list_opt)

(* ---------------- analyze ---------------- *)

let analyze_cmd =
  let parse_scale spec =
    match String.index_opt spec ':' with
    | None ->
        Error
          (Errors.Usage
             (Printf.sprintf "bad --scale %S (expected FAMILY:N)" spec))
    | Some i -> (
        let fam = String.sub spec 0 i in
        let n = String.sub spec (i + 1) (String.length spec - i - 1) in
        match (Ba_workloads.Scale.find fam, int_of_string_opt n) with
        | None, _ ->
            Error
              (Errors.Usage
                 (Printf.sprintf "unknown scale family %S (have: %s)" fam
                    (String.concat ", "
                       (List.map Ba_workloads.Scale.name Ba_workloads.Scale.all))))
        | _, None ->
            Error (Errors.Usage (Printf.sprintf "bad block count %S" n))
        | Some fam, Some n ->
            if n < Ba_workloads.Scale.min_blocks then
              Error
                (Errors.Usage
                   (Printf.sprintf "N must be at least %d"
                      Ba_workloads.Scale.min_blocks))
            else Ok (fam, n))
  in
  let run file scale format top invocations =
    let* reports =
      match (file, scale) with
      | Some _, Some _ ->
          Error (Errors.Usage "give FILE or --scale FAMILY:N, not both")
      | None, None -> Error (Errors.Usage "give a FILE or --scale FAMILY:N")
      | Some f, None ->
          let* c = load_program f in
          Ok
            (Array.to_list
               (Array.mapi
                  (fun fid g ->
                    Ba_analysis.Report.analyze ~top ?invocations ~fid g)
                  c.Ba_minic.Compile.cfgs))
      | None, Some spec ->
          let* fam, n = parse_scale spec in
          let g = Ba_workloads.Scale.cfg fam ~n in
          Ok [ Ba_analysis.Report.analyze ~top ?invocations ~fid:0 g ]
    in
    (match format with
    | `Text -> List.iter (Fmt.pr "%a" Ba_analysis.Report.pp) reports
    | `Json ->
        print_endline
          (Ba_obs.Json.to_string (Ba_analysis.Report.program_json reports)));
    Ok ()
  in
  let opt_file_arg =
    Arg.(value & pos 0 (some file) None
         & info [] ~docv:"FILE" ~doc:"minic source file (or use --scale)")
  in
  let scale_opt =
    Arg.(value & opt (some string) None
         & info [ "scale" ] ~docv:"FAMILY:N"
             ~doc:"analyze a synthetic whole-program-scale CFG instead of a \
                   source file: $(b,loop-nest), $(b,switch) or $(b,interp) \
                   with $(i,N) blocks (e.g. $(b,switch:100000))")
  in
  let format_opt =
    Arg.(value
         & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
         & info [ "format" ] ~docv:"FMT"
             ~doc:"human-readable summaries ($(b,text), default) or a \
                   $(b,balign-analyze-1) JSON document ($(b,json))")
  in
  let top_opt =
    Arg.(value & opt int 5
         & info [ "top" ] ~docv:"N"
             ~doc:"number of hottest blocks to report per procedure")
  in
  let invocations_opt =
    Arg.(value & opt (some int) None
         & info [ "invocations" ] ~docv:"N"
             ~doc:"requested invocation scale of the estimated counts \
                   (default 10000; clamped so no count can overflow)")
  in
  let man =
    [
      `S Manpage.s_examples;
      `P "Structure and estimated hotness of a source program:";
      `Pre "  balign analyze prog.mc";
      `P "A 100k-block synthetic jump-table cascade, as JSON:";
      `Pre "  balign analyze --scale switch:100000 --format json";
    ]
  in
  cmd "analyze" ~man
    ~doc:"structural analysis: dominators, loop forest, irreducibility and \
          the static profile estimate, without running the program"
    Term.(const (fun file sc fmt top inv ->
              run_term (fun () -> run file sc fmt top inv))
          $ opt_file_arg $ scale_opt $ format_opt $ top_opt $ invocations_opt)

(* ---------------- profile ---------------- *)

let profile_cmd =
  let run file input input_file =
    let* c = load_program file in
    let* inp = load_input ~input ~input_file in
    let prof = Ba_minic.Compile.profile c ~input:inp in
    Array.iteri
      (fun fid g ->
        let p = Ba_profile.Profile.proc prof fid in
        Fmt.pr "function %s: %d transfers, %d/%d branch sites touched@."
          c.Ba_minic.Compile.names.(fid)
          (Ba_profile.Profile.total_transfers p)
          (Ba_profile.Profile.branch_sites_touched g p)
          (Ba_cfg.Cfg.n_branch_sites g);
        Fmt.pr "%a" Ba_profile.Profile.pp_proc p)
      c.Ba_minic.Compile.cfgs;
    Ok ()
  in
  cmd "profile" ~doc:"run a program and print its edge profile"
    Term.(const (fun file i f -> run_term (fun () -> run file i f))
          $ file_arg $ input_opt $ input_file_opt)

(* ---------------- align ---------------- *)

let method_conv : Ba_align.Driver.method_ Arg.conv =
  let parse s =
    match Ba_align.Driver.method_of_string s with
    | Some m -> Ok m
    | None -> Error (`Msg (Printf.sprintf "unknown method %s" s))
  in
  Arg.conv (parse, fun ppf m -> Fmt.string ppf (Ba_align.Driver.method_name m))

let method_opt =
  Arg.(value & opt method_conv (Ba_align.Driver.Tsp Ba_align.Tsp_align.default)
       & info [ "method" ] ~docv:"METHOD"
           ~doc:"original | greedy | calder | calder-exhaustive | btfnt | tsp")

let align_cmd =
  let run file input input_file m model deadline_ms fallback jobs certify
      profile_mode =
    let executor = Executor.of_jobs jobs in
    let* c = load_program file in
    let* inp = load_input ~input ~input_file in
    let prof = Ba_minic.Compile.profile c ~input:inp in
    let cfgs = c.Ba_minic.Compile.cfgs in
    (* the training profile drives the layout; penalties and cycles are
       always measured against the collected profile of this input *)
    let train =
      match profile_mode with
      | `Collected -> prof
      | `Static ->
          Fmt.pr "training profile: static estimate (no training run)@.";
          Ba_analysis.Estimate.program cfgs
    in
    let* report =
      Ba_align.Driver.align_checked ~executor ?deadline_ms ~fallback m
        model cfgs ~train
    in
    let aligned = report.Ba_align.Driver.aligned in
    List.iter
      (fun f -> Fmt.pr "fallback: %a@." Ba_align.Driver.pp_fallback f)
      report.Ba_align.Driver.fallbacks;
    let orig =
      Ba_align.Driver.realize Ba_align.Driver.Original model cfgs
        (Array.map Ba_cfg.Layout.identity cfgs) ~train:prof
    in
    let before = Ba_align.Driver.analytic_penalty model orig ~test:prof in
    let after = Ba_align.Driver.analytic_penalty model aligned ~test:prof in
    Array.iteri
      (fun fid order ->
        Fmt.pr "%s: %a@." c.Ba_minic.Compile.names.(fid)
          Fmt.(array ~sep:(any " ") int)
          order)
      aligned.Ba_align.Driver.orders;
    Fmt.pr "control penalty: %d -> %d cycles (%s)@." before after
      (Ba_align.Driver.method_name m);
    let run_prog sink = ignore (Ba_minic.Compile.run c ~input:inp ~sink) in
    let sim_o = Ba_align.Driver.simulate model orig ~run:run_prog in
    let sim_a = Ba_align.Driver.simulate model aligned ~run:run_prog in
    Fmt.pr "simulated cycles: %d -> %d (icache misses %d -> %d)@."
      sim_o.Ba_machine.Cycles.cycles sim_a.Ba_machine.Cycles.cycles
      sim_o.Ba_machine.Cycles.icache_misses sim_a.Ba_machine.Cycles.icache_misses;
    match certify with
    | None -> Ok ()
    | Some path -> (
        (* re-verify the produced layouts from first principles and emit
           the machine-readable certificate *)
        match
          Ba_check.Certify.program
            ~hk:(fun _ -> Ba_check.Certify.Compute Ba_tsp.Held_karp.default)
            model cfgs ~train
            ~orders:aligned.Ba_align.Driver.orders
        with
        | Error f ->
            Error
              (Errors.Invalid_layout
                 {
                   proc = Some f.Ba_check.Certify.fproc;
                   name = Some f.Ba_check.Certify.fname;
                   reason =
                     Ba_check.Certify.error_to_string f.Ba_check.Certify.error;
                 })
        | Ok cert ->
            let doc = Ba_check.Certify.to_json cert in
            if path = "-" then print_endline (Ba_obs.Json.to_string doc)
            else Ba_obs.Json.write_file path doc;
            Fmt.pr "certificate: %d procedure(s), total cost %d cycles@."
              (List.length cert.Ba_check.Certify.procs)
              cert.Ba_check.Certify.total_cost;
            Ok ())
  in
  let certify_opt =
    Arg.(value & opt (some string) None
         & info [ "certify" ] ~docv:"FILE"
             ~doc:"independently re-verify every produced layout \
                   (Hamiltonian walk, locked pairs, recomputed cost, \
                   Held-Karp bound) and write the $(b,balign-cert-1) JSON \
                   certificate to $(docv) ($(b,-) for stdout)")
  in
  let man =
    [
      `S Manpage.s_examples;
      `P "Align under the default Alpha 21164 penalties:";
      `Pre "  balign align prog.mc --input 40";
      `P "The same layout problem under a 10-cycle-mispredict pipeline:";
      `Pre "  balign align prog.mc --input 40 --model deep-pipeline";
      `P "Optimize code locality instead of branch penalties (Ext-TSP \
          with a 512-byte forward window):";
      `Pre "  balign align prog.mc --input 40 --model ext-tsp:512";
    ]
  in
  cmd "align" ~man ~doc:"align a program and report penalty and cycle changes"
    Term.(const (fun file i f m mo d fb j cert pm trace metrics ->
              run_term (fun () ->
                  with_obs ~trace ~metrics (fun () ->
                      run file i f m mo d fb j cert pm)))
          $ file_arg $ input_opt $ input_file_opt $ method_opt $ model_opt
          $ deadline_opt $ fallback_opt $ jobs_opt $ certify_opt
          $ profile_mode_opt $ trace_opt $ metrics_opt)

(* ---------------- evaluate (cross-validation) ---------------- *)

let evaluate_cmd =
  let run file train_input test_input model profile_mode =
    let* c = load_program file in
    let* train_inp = parse_input train_input in
    let* test_inp = parse_input test_input in
    let cfgs = c.Ba_minic.Compile.cfgs in
    let train = Ba_minic.Compile.profile c ~input:train_inp in
    let test = Ba_minic.Compile.profile c ~input:test_inp in
    (* --profile static adds a third regime: layouts trained on the
       structural estimate, measured (like the others) on the testing
       profile *)
    let static =
      match profile_mode with
      | `Collected -> None
      | `Static -> Some (Ba_analysis.Estimate.program cfgs)
    in
    (match static with
    | None -> Fmt.pr "%-18s %14s %14s@." "method" "train=test" "cross-trained"
    | Some _ ->
        Fmt.pr "%-18s %14s %14s %14s@." "method" "train=test" "cross-trained"
          "static-trained");
    List.iter
      (fun m ->
        let self_ = Ba_align.Driver.align m model cfgs ~train:test in
        let cross = Ba_align.Driver.align m model cfgs ~train in
        let p aligned = Ba_align.Driver.analytic_penalty model aligned ~test in
        match static with
        | None ->
            Fmt.pr "%-18s %14d %14d@."
              (Ba_align.Driver.method_name m)
              (p self_) (p cross)
        | Some est ->
            let static_ = Ba_align.Driver.align m model cfgs ~train:est in
            Fmt.pr "%-18s %14d %14d %14d@."
              (Ba_align.Driver.method_name m)
              (p self_) (p cross) (p static_))
      [
        Ba_align.Driver.Original;
        Ba_align.Driver.Greedy;
        Ba_align.Driver.Calder;
        Ba_align.Driver.Btfnt;
        Ba_align.Driver.Tsp Ba_align.Tsp_align.default;
      ];
    Ok ()
  in
  let train_arg =
    Arg.(required & opt (some string) None & info [ "train-input" ] ~docv:"INTS"
           ~doc:"training input (integers fed to read())")
  in
  let test_arg =
    Arg.(required & opt (some string) None & info [ "test-input" ] ~docv:"INTS"
           ~doc:"testing input (integers fed to read())")
  in
  cmd "evaluate"
    ~doc:"cross-validate: penalties when training and testing inputs differ"
    Term.(const (fun file tr te mo pm ->
              run_term (fun () -> run file tr te mo pm))
          $ file_arg $ train_arg $ test_arg $ model_opt $ profile_mode_opt)

(* ---------------- bounds ---------------- *)

let bounds_cmd =
  let run file input input_file model =
    let* c = load_program file in
    let* inp = load_input ~input ~input_file in
    let prof = Ba_minic.Compile.profile c ~input:inp in
    Fmt.pr "%-16s %8s %12s %12s %12s %12s@." "function" "blocks" "tsp" "hk-bound"
      "ap-bound" "exact";
    Array.iteri
      (fun fid g ->
        let p = Ba_profile.Profile.proc prof fid in
        let r = Ba_align.Tsp_align.align model g ~profile:p in
        let hk =
          Ba_align.Bounds.held_karp model g ~profile:p
            ~upper:r.Ba_align.Tsp_align.cost
        in
        let ap = Ba_align.Bounds.ap model g ~profile:p in
        let ex =
          match Ba_align.Bounds.exact model g ~profile:p with
          | Some v -> string_of_int v
          | None -> "-"
        in
        Fmt.pr "%-16s %8d %12d %12d %12d %12s@." c.Ba_minic.Compile.names.(fid)
          (Ba_cfg.Cfg.n_blocks g) r.Ba_align.Tsp_align.cost hk ap ex)
      c.Ba_minic.Compile.cfgs;
    Ok ()
  in
  cmd "bounds" ~doc:"per-procedure lower bounds vs the TSP aligner"
    Term.(const (fun file i f mo -> run_term (fun () -> run file i f mo))
          $ file_arg $ input_opt $ input_file_opt $ model_opt)

(* ---------------- bench ---------------- *)

let bench_cmd =
  let run name model deadline_ms fallback jobs json profile_mode =
    let find name =
      List.find_opt
        (fun w -> w.Ba_workloads.Workload.name = name)
        Ba_workloads.Workload_apps.everything
    in
    match find name with
    | None ->
        Error
          (Errors.Usage
             (Printf.sprintf "unknown benchmark %s (have: %s)" name
                (String.concat ", "
                   (List.map (fun w -> w.Ba_workloads.Workload.name)
                      Ba_workloads.Workload_apps.everything))))
    | Some w ->
        let config =
          { Ba_harness.Runner.default with Ba_harness.Runner.model; deadline_ms }
        in
        let outcomes =
          Ba_harness.Runner.run_all_outcomes ~config
            ~executor:(Executor.of_jobs jobs) ~workloads:[ w ] ()
        in
        let rows =
          List.map (fun o -> o.Ba_engine.Task.value) outcomes
        in
        Option.iter
          (fun path -> Ba_harness.Bench_json.write path ~jobs outcomes)
          json;
        let timeouts =
          List.fold_left
            (fun acc r -> acc + r.Ba_harness.Runner.tsp_timeouts)
            0 rows
        in
        let* () =
          if timeouts = 0 then Ok ()
          else if fallback then begin
            Fmt.pr "note: %d TSP solve(s) hit the budget; degraded layouts used@."
              timeouts;
            Ok ()
          end
          else
            Error
              (Errors.Solver_timeout
                 {
                   proc = None;
                   elapsed_ms =
                     (match deadline_ms with Some d -> float_of_int d | None -> 0.);
                   deadline_ms;
                 })
        in
        Ba_harness.Tables.table1 Fmt.stdout rows;
        Ba_harness.Tables.table4 Fmt.stdout rows;
        Ba_harness.Tables.fig2_penalties Fmt.stdout rows;
        Ba_harness.Tables.fig2_times Fmt.stdout rows;
        Ba_harness.Tables.fig3_penalties Fmt.stdout rows;
        Ba_harness.Tables.fig3_times Fmt.stdout rows;
        (* the static rows are always measured (and always in --json);
           the table is opt-in so the default stdout stays byte-stable *)
        (match profile_mode with
        | `Collected -> ()
        | `Static -> Ba_harness.Tables.static_recovery Fmt.stdout rows);
        Ok ()
  in
  let bench_name =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH"
           ~doc:"benchmark short name (spec92: com dod eqn esp su2 xli; spec95: m88 ijp prl vor go)")
  in
  let json_opt =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"write the machine-readable bench trajectory \
                   ($(b,{commit, date, rows})) to $(docv)")
  in
  let man =
    [
      `S Manpage.s_examples;
      `P "The paper's experiment, with the machine-readable trajectory:";
      `Pre "  balign bench com --json out.json";
      `P "The same rows measured under the Ext-TSP locality objective:";
      `Pre "  balign bench com --model ext-tsp --json out.json";
    ]
  in
  cmd "bench" ~man
    ~doc:"run the paper's experiment for one built-in benchmark"
    Term.(const (fun n mo d fb j json pm trace metrics ->
              run_term (fun () ->
                  with_obs ~trace ~metrics (fun () ->
                      run n mo d fb j json pm)))
          $ bench_name $ model_opt $ deadline_opt $ fallback_opt $ jobs_opt
          $ json_opt $ profile_mode_opt $ trace_opt $ metrics_opt)

(* ---------------- serve ---------------- *)

let serve_cmd =
  let run socket model cache_size cache_file max_frame_bytes max_blocks
      default_deadline_ms max_deadline_ms profile_mode =
    let config =
      {
        Ba_serve.Server.model;
        cache_capacity = cache_size;
        cache_file;
        max_frame_bytes;
        max_blocks;
        default_deadline_ms;
        max_deadline_ms;
        static_profile = (profile_mode = `Static);
      }
    in
    let code =
      match socket with
      | None -> Ba_serve.Server.serve_stdin config
      | Some path -> Ba_serve.Server.serve_socket config ~path
    in
    if code = 0 then Ok ()
    else
      (* serve_socket already printed the typed error; just carry the
         documented code out *)
      exit code
  in
  let socket_opt =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"listen on a Unix-domain socket instead of stdin/stdout \
                   (connections served sequentially)")
  in
  let cache_size_opt =
    Arg.(value & opt int 256
         & info [ "cache-size" ] ~docv:"N"
             ~doc:"layout-cache capacity in entries (LRU eviction)")
  in
  let cache_file_opt =
    Arg.(value & opt (some string) None
         & info [ "cache-file" ] ~docv:"FILE"
             ~doc:"persist the layout cache to $(docv) on exit and load it \
                   at start (warm restart); entries are re-certified on \
                   every hit, so a stale or tampered file degrades to cold \
                   misses, never to wrong answers")
  in
  let max_frame_opt =
    Arg.(value & opt int (4 * 1024 * 1024)
         & info [ "max-frame-bytes" ] ~docv:"BYTES"
             ~doc:"reject (and skip) request frames larger than $(docv)")
  in
  let max_blocks_opt =
    Arg.(value & opt int 10_000
         & info [ "max-blocks" ] ~docv:"N"
             ~doc:"reject CFGs with more than $(docv) blocks")
  in
  let default_deadline_opt =
    Arg.(value & opt (some int) None
         & info [ "default-deadline-ms" ] ~docv:"MS"
             ~doc:"solver budget applied to requests that specify none")
  in
  let max_deadline_opt =
    Arg.(value & opt (some int) None
         & info [ "max-deadline-ms" ] ~docv:"MS"
             ~doc:"clamp client-requested deadlines to at most $(docv)")
  in
  cmd "serve"
    ~doc:"long-running alignment daemon: length-prefixed JSON align \
          requests on stdin (or --socket), certified layouts or typed \
          errors out; crash-only — requests can never take the server down \
          (see docs/SERVING.md)"
    Term.(const (fun s mo cs cf mf mb dd md pm ->
              run_term (fun () -> run s mo cs cf mf mb dd md pm))
          $ socket_opt $ model_opt $ cache_size_opt $ cache_file_opt
          $ max_frame_opt $ max_blocks_opt $ default_deadline_opt
          $ max_deadline_opt $ profile_mode_opt)

(* ---------------- report ---------------- *)

(** Every section of the paper's report, in print order: Tables 1-4,
    Figures 2-3, the appendix, the summary, the extension studies, and
    [csv], which writes the committed results/ files.  Suites and
    studies are lazy, so a run computes each at most once whatever
    sections it names; progress goes to stderr, so stdout is
    bit-identical at any --jobs. *)
let report_sections ~jobs : (string * (Format.formatter -> unit)) list =
  let module H = Ba_harness in
  let computed what f =
    lazy
      (Fmt.epr "running %s...@." what;
       f ())
  in
  let executor = Executor.of_jobs jobs in
  let suite name workloads =
    computed
      (Printf.sprintf "the %s suite (jobs=%d)" name jobs)
      (fun () -> H.Runner.run_all ~executor ~workloads ())
  in
  let rows = suite "spec92" Ba_workloads.Workload.all in
  let rows95 = suite "spec95" Ba_workloads.Workload95.all in
  let bounds =
    computed "the appendix bound study" (fun () ->
        H.Appendix.study
          (H.Synthetic.workload_instances ()
          @ H.Synthetic.corpus ~sizes:[ 6; 10; 14; 24 ] ~per_size:3 ()))
  in
  let on rows printers ppf =
    List.iter (fun p -> p ppf (Lazy.force rows)) printers
  in
  let study what run print =
    let r = computed what run in
    fun ppf -> print ppf (Lazy.force r)
  in
  (* the dynamic, btfnt and replication studies re-price the spec92
     rows' own layouts, one pure job per row *)
  let of_rows run_one () =
    Executor.map_list executor run_one (Lazy.force rows)
  in
  let printed =
    H.Tables.
      [
        ("table1", on rows [ table1 ]);
        ("table2", on rows [ table2 ]);
        ("table3", fun ppf -> table3 ppf Ba_machine.Penalties.alpha_21164);
        ("table4", on rows [ table4 ]);
        ("fig2", on rows [ fig2_penalties; fig2_times ]);
        ("fig3", on rows [ fig3_penalties; fig3_times ]);
        ("appendix", fun ppf -> appendix ppf (Lazy.force bounds));
        ("summary", on rows [ summary ]);
        ( "spec95",
          fun ppf ->
            Fmt.pf ppf "@.";
            on rows95
              [ table1; table4; fig2_penalties; fig2_times; fig3_penalties;
                fig3_times; summary ]
              ppf );
        ( "dynamic",
          study "the dynamic-prediction extension" (of_rows H.Dyn_exp.run_one)
            H.Dyn_exp.print );
        ( "procorder",
          study "the interprocedural-placement extension" H.Interproc.run
            H.Interproc.print );
        ( "btfnt",
          study "the BTFNT extension" (of_rows H.Btfnt_exp.run_one)
            H.Btfnt_exp.print );
        ( "replication",
          study "the code-replication extension" (of_rows H.Replication.run_one)
            H.Replication.print );
        ( "ablation",
          study "the solver ablations" H.Ablation.run H.Ablation.print );
      ]
  in
  let csv ppf =
    (* table2 holds wall-clock seconds: the archive keeps the rest *)
    let report fppf =
      List.iter
        (fun (name, print) -> if name <> "table2" then print fppf)
        printed
    in
    let rows = Lazy.force rows and rows95 = Lazy.force rows95 in
    List.iter (Fmt.pf ppf "wrote %s@.")
      (H.Csv.export ~dir:"results" ~rows ~rows95
         ~appendix:(Lazy.force bounds) ~report);
    List.iter (Fmt.epr "wrote %s@.")
      (H.Csv.export_timings ~dir:"results" ~rows ~rows95)
  in
  printed @ [ ("csv", csv) ]

let report_cmd =
  let known = List.map fst (report_sections ~jobs:1) in
  let run names jobs =
    match List.filter (fun s -> not (List.mem s known)) names with
    | _ :: _ as bad ->
        Error
          (Errors.Usage
             (Printf.sprintf "unknown section(s) %s (have: %s)"
                (String.concat ", " bad) (String.concat ", " known)))
    | [] ->
        List.iter
          (fun (name, print) ->
            if List.mem name names || (names = [] && name <> "csv") then
              print Fmt.stdout)
          (report_sections ~jobs);
        Ok ()
  in
  let sections =
    Arg.(value & pos_all string [] & info [] ~docv:"SECTION"
           ~doc:(Printf.sprintf
                   "sections to print, from: %s.  Default: every section \
                    but $(b,csv), which writes results/."
                   (String.concat " " known)))
  in
  cmd "report" ~doc:"print the paper's tables, figures and extension studies"
    Term.(const (fun s j trace metrics ->
              run_term (fun () -> with_obs ~trace ~metrics (fun () -> run s j)))
          $ sections $ jobs_opt $ trace_opt $ metrics_opt)

(* ---------------- main ---------------- *)

let () =
  let doc = "near-optimal intraprocedural branch alignment (PLDI 1997)" in
  let info = Cmd.info "balign" ~version:"1.0.0" ~doc ~exits in
  let group =
    Cmd.group info
      [
        compile_cmd; dot_cmd; lint_cmd; analyze_cmd; profile_cmd; align_cmd;
        evaluate_cmd; bounds_cmd; bench_cmd; serve_cmd; report_cmd;
      ]
  in
  exit (Cmd.eval' group)
