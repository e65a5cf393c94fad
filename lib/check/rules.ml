(** The lint rule catalogue.

    Each rule inspects a whole program — an array of CFGs plus,
    optionally, the whole-program profile — and reports every violation
    it can find as a {!Diagnostic.t}.  Rules are independent and total:
    they never raise, even on forged CFG records (out-of-range entries,
    scrambled ids) or shape-mismatched profiles, because rejecting
    exactly those inputs with a useful finding is their job.

    The catalogue is ordered: the first Error in catalogue order is the
    one {!Lint.gate} routes into the typed-error pipeline, so shape
    errors (which make later rules meaningless) come first within each
    family, and CFG rules come before profile rules: a profile cannot be
    checked against a malformed CFG.  {!Lint.gate} is the only profile
    validator; the driver, serve and the benchmark all go through it.

    Severity contract (see docs/ANALYSIS.md for the full catalogue):
    - [Error]: the alignment pipeline cannot be trusted on this input;
      {!Lint.gate} converts the finding to a {!Ba_robust.Errors.t}.
    - [Warning]: legal but suspicious (unreachable code, flow leaks,
      overflow risk); [--strict] promotes these to errors.
    - [Info]: observations (cold branches, cold-code ratio). *)

open Ba_cfg
module Profile = Ba_profile.Profile
module D = Diagnostic

(** What the rules look at: the program's CFGs and, when available, the
    training profile.  CFG-only lint (no profile collected yet) simply
    skips the profile rules. *)
type ctx = { cfgs : Cfg.t array; profile : Profile.t option }

type rule = {
  id : string;  (** stable kebab-case rule id *)
  code : string;  (** stable short code ("BA1xx" CFG, "BA2xx" profile) *)
  severity : D.severity;
  doc : string;  (** one-line rationale, rendered in docs/ANALYSIS.md *)
  run : ctx -> D.t list;
}

(* ------------------------------------------------------------------ *)
(* helpers                                                             *)

(** Emit one diagnostic of rule [r]. *)
let diag r ?loc ?hint ?data message =
  D.make ~rule:r.id ~code:r.code ~severity:r.severity ?loc ?hint ?data message

(** Fold [f] over procedures, collecting diagnostics in procedure
    order. *)
let per_cfg (ctx : ctx) f =
  List.concat (List.mapi f (Array.to_list ctx.cfgs))

(** Structurally sound CFG: safe to traverse (reachability, profile
    cross-checks).  The structural rules below report the fine-grained
    reasons; this predicate only guards the rules that must walk the
    graph. *)
let sound (g : Cfg.t) = Cfg.validate g = Ok ()

(** Blocks reachable from the entry, [None] when the CFG cannot be
    safely traversed. *)
let reachable_opt g = if sound g then Some (Cfg.reachable g) else None

(** Per-proc profile row safe to aggregate: shapes match and every
    recorded edge is a real CFG edge with a positive count (the Error
    rules report the violations; aggregate rules skip such procs). *)
let proc_rows_sound (g : Cfg.t) (p : Profile.proc) =
  sound g
  && Array.length p.Profile.freqs = Cfg.n_blocks g
  &&
  try
    Array.iteri
      (fun src row ->
        Array.iter
          (fun (dst, n) ->
            if
              n <= 0
              || dst < 0
              || dst >= Cfg.n_blocks g
              || not (Block.has_successor (Cfg.block g src) dst)
            then raise Exit)
          row)
      p.Profile.freqs;
    true
  with Exit -> false

(** Procedures shared by the program and the profile, as
    [(fid, cfg, proc_profile)] — empty when there is no profile. *)
let shared_procs (ctx : ctx) =
  match ctx.profile with
  | None -> []
  | Some t ->
      let n = min (Array.length ctx.cfgs) (Array.length t.Profile.procs) in
      List.init n (fun fid -> (fid, ctx.cfgs.(fid), t.Profile.procs.(fid)))

(** Total recorded transfers into each block of one procedure (bounds
    respected even on malformed rows). *)
let inflows (g : Cfg.t) (p : Profile.proc) =
  let inflow = Array.make (Cfg.n_blocks g) 0 in
  Array.iter
    (fun row ->
      Array.iter
        (fun (dst, n) ->
          if dst >= 0 && dst < Array.length inflow then
            inflow.(dst) <- inflow.(dst) + n)
        row)
    p.Profile.freqs;
  inflow

(** Counts whose product with a per-transfer penalty (tens of cycles)
    approaches [max_int] make the analytic cost model overflow; flag
    anything within a factor of 2^16 of it. *)
let overflow_guard = max_int / 65536

(* ------------------------------------------------------------------ *)
(* CFG rules (BA1xx)                                                   *)

let rec cfg_empty =
  {
    id = "cfg-empty";
    code = "BA101";
    severity = D.Error;
    doc = "a procedure must have at least one basic block";
    run =
      (fun ctx ->
        per_cfg ctx (fun fid g ->
            if Array.length g.Cfg.blocks = 0 then
              [
                diag cfg_empty
                  ~loc:(D.in_proc fid g.Cfg.name)
                  ~hint:"emit at least an entry block that exits"
                  "procedure has no basic blocks";
              ]
            else []));
  }

and cfg_entry_range =
  {
    id = "cfg-entry-range";
    code = "BA102";
    severity = D.Error;
    doc = "the entry label must name a block of the procedure";
    run =
      (fun ctx ->
        per_cfg ctx (fun fid g ->
            let n = Array.length g.Cfg.blocks in
            if n > 0 && (g.Cfg.entry < 0 || g.Cfg.entry >= n) then
              [
                diag cfg_entry_range
                  ~loc:(D.in_proc fid g.Cfg.name)
                  ~data:[ ("entry", g.Cfg.entry); ("blocks", n) ]
                  ~hint:"point the entry at an existing block label"
                  (Printf.sprintf "entry label %d out of range (%d blocks)"
                     g.Cfg.entry n);
              ]
            else []));
  }

and cfg_block_id =
  {
    id = "cfg-block-id";
    code = "BA103";
    severity = D.Error;
    doc = "the block array must be indexed by block id (dense labels)";
    run =
      (fun ctx ->
        per_cfg ctx (fun fid g ->
            Array.to_list g.Cfg.blocks
            |> List.mapi (fun i b ->
                   if b.Block.id <> i then
                     [
                       diag cfg_block_id
                         ~loc:(D.in_proc ~block:i fid g.Cfg.name)
                         ~data:[ ("index", i); ("id", b.Block.id) ]
                         ~hint:"re-sort the block array by label"
                         (Printf.sprintf "block at index %d has id %d" i
                            b.Block.id);
                     ]
                   else [])
            |> List.concat));
  }

and cfg_negative_size =
  {
    id = "cfg-negative-size";
    code = "BA104";
    severity = D.Error;
    doc = "block sizes are instruction counts and cannot be negative";
    run =
      (fun ctx ->
        per_cfg ctx (fun fid g ->
            Array.to_list g.Cfg.blocks
            |> List.filter_map (fun b ->
                   if b.Block.size < 0 then
                     Some
                       (diag cfg_negative_size
                          ~loc:(D.in_proc ~block:b.Block.id fid g.Cfg.name)
                          ~data:[ ("size", b.Block.size) ]
                          (Printf.sprintf "block %d has negative size %d"
                             b.Block.id b.Block.size))
                   else None)));
  }

and cfg_successor_range =
  {
    id = "cfg-successor-range";
    code = "BA105";
    severity = D.Error;
    doc = "every terminator target must stay inside the procedure";
    run =
      (fun ctx ->
        per_cfg ctx (fun fid g ->
            let n = Array.length g.Cfg.blocks in
            Array.to_list g.Cfg.blocks
            |> List.concat_map (fun b ->
                   Block.successors b
                   |> List.filter (fun s -> s < 0 || s >= n)
                   |> List.sort_uniq compare
                   |> List.map (fun s ->
                          diag cfg_successor_range
                            ~loc:
                              (D.in_proc ~block:b.Block.id
                                 ~edge:(b.Block.id, s) fid g.Cfg.name)
                            ~data:[ ("target", s); ("blocks", n) ]
                            ~hint:
                              "interprocedural transfers are calls, not \
                               branches"
                            (Printf.sprintf
                               "block %d targets label %d outside the \
                                procedure"
                               b.Block.id s)))));
  }

and cfg_degenerate_branch =
  {
    id = "cfg-degenerate-branch";
    code = "BA106";
    severity = D.Error;
    doc =
      "a two-way conditional with identical arms is a forged record \
       (Block.make normalizes it to a goto)";
    run =
      (fun ctx ->
        per_cfg ctx (fun fid g ->
            Array.to_list g.Cfg.blocks
            |> List.filter_map (fun b ->
                   match b.Block.term with
                   | Block.Branch { t; f } when t = f ->
                       Some
                         (diag cfg_degenerate_branch
                            ~loc:
                              (D.in_proc ~block:b.Block.id ~edge:(b.Block.id, t)
                                 fid g.Cfg.name)
                            ~hint:"rebuild the block with Block.make"
                            (Printf.sprintf
                               "block %d: conditional with equal arms (%d)"
                               b.Block.id t))
                   | _ -> None)));
  }

and cfg_multiway_arity =
  {
    id = "cfg-multiway-arity";
    code = "BA107";
    severity = D.Error;
    doc =
      "an indirect branch with fewer than two targets is a forged record \
       (Block.make normalizes it away)";
    run =
      (fun ctx ->
        per_cfg ctx (fun fid g ->
            Array.to_list g.Cfg.blocks
            |> List.filter_map (fun b ->
                   match b.Block.term with
                   | Block.Multiway ts when Array.length ts < 2 ->
                       Some
                         (diag cfg_multiway_arity
                            ~loc:(D.in_proc ~block:b.Block.id fid g.Cfg.name)
                            ~data:[ ("targets", Array.length ts) ]
                            ~hint:"rebuild the block with Block.make"
                            (Printf.sprintf
                               "block %d: indirect branch with %d target(s)"
                               b.Block.id (Array.length ts)))
                   | _ -> None)));
  }

and cfg_unreachable =
  {
    id = "cfg-unreachable";
    code = "BA108";
    severity = D.Warning;
    doc =
      "blocks unreachable from the entry dilute the I-cache and cannot \
       be profiled; front ends legally emit them, so this only warns";
    run =
      (fun ctx ->
        per_cfg ctx (fun fid g ->
            match reachable_opt g with
            | None -> []
            | Some seen ->
                Array.to_list g.Cfg.blocks
                |> List.filter_map (fun b ->
                       if not seen.(b.Block.id) then
                         Some
                           (diag cfg_unreachable
                              ~loc:(D.in_proc ~block:b.Block.id fid g.Cfg.name)
                              ~hint:"drop dead blocks before aligning"
                              (Printf.sprintf
                                 "block %d is unreachable from the entry"
                                 b.Block.id))
                       else None)));
  }

and cfg_self_loop =
  {
    id = "cfg-self-loop";
    code = "BA109";
    severity = D.Warning;
    doc =
      "a block whose only successor is itself can never leave once \
       entered — usually a lowering bug";
    run =
      (fun ctx ->
        per_cfg ctx (fun fid g ->
            Array.to_list g.Cfg.blocks
            |> List.filter_map (fun b ->
                   if Block.distinct_successors b = [ b.Block.id ] then
                     Some
                       (diag cfg_self_loop
                          ~loc:
                            (D.in_proc ~block:b.Block.id
                               ~edge:(b.Block.id, b.Block.id) fid g.Cfg.name)
                          ~hint:"intentional spin loops should carry an exit"
                          (Printf.sprintf
                             "block %d loops only to itself" b.Block.id))
                   else None)));
  }

and cfg_goto_cycle =
  {
    id = "cfg-goto-cycle";
    code = "BA110";
    severity = D.Warning;
    doc =
      "a cycle of unconditional jumps is a fall-through chain control \
       can never escape — a malformed chain, since no real program \
       returns from it";
    run =
      (fun ctx ->
        per_cfg ctx (fun fid g ->
            if not (sound g) then []
            else begin
              let n = Cfg.n_blocks g in
              (* the Goto-only subgraph is functional: at most one
                 outgoing edge per block, so cycle detection is a
                 colored walk *)
              let next l =
                match (Cfg.block g l).Block.term with
                | Block.Goto t when t <> l -> Some t
                | _ -> None
              in
              let color = Array.make n 0 (* 0 white, 1 gray, 2 black *) in
              let cycles = ref [] in
              for start = 0 to n - 1 do
                if color.(start) = 0 then begin
                  let path = ref [] in
                  let cur = ref (Some start) in
                  let continue = ref true in
                  while !continue do
                    match !cur with
                    | None ->
                        List.iter (fun l -> color.(l) <- 2) !path;
                        continue := false
                    | Some l when color.(l) = 2 ->
                        List.iter (fun v -> color.(v) <- 2) !path;
                        continue := false
                    | Some l when color.(l) = 1 ->
                        (* found a new cycle: the path suffix from l *)
                        let rec suffix acc = function
                          | [] -> acc
                          | x :: _ when x = l -> l :: acc
                          | x :: tl -> suffix (x :: acc) tl
                        in
                        cycles := suffix [] !path :: !cycles;
                        List.iter (fun v -> color.(v) <- 2) !path;
                        continue := false
                    | Some l ->
                        color.(l) <- 1;
                        path := l :: !path;
                        cur := next l
                  done
                end
              done;
              List.rev !cycles
              |> List.filter (fun c -> List.length c >= 2)
              |> List.map (fun cycle ->
                     let head = List.fold_left min max_int cycle in
                     diag cfg_goto_cycle
                       ~loc:(D.in_proc ~block:head fid g.Cfg.name)
                       ~data:[ ("length", List.length cycle) ]
                       ~hint:"break the chain with a conditional or exit"
                       (Printf.sprintf
                          "blocks %s form an inescapable unconditional-jump \
                           cycle"
                          (String.concat " -> "
                             (List.map string_of_int cycle))))
            end));
  }

(* ------------------------------------------------------------------ *)
(* Profile rules (BA2xx)                                               *)

and prof_proc_count =
  {
    id = "prof-proc-count";
    code = "BA201";
    severity = D.Error;
    doc = "the profile must describe exactly the program's procedures";
    run =
      (fun ctx ->
        match ctx.profile with
        | None -> []
        | Some t ->
            let expected = Array.length ctx.cfgs
            and got = Array.length t.Profile.procs in
            if expected <> got then
              [
                diag prof_proc_count
                  ~data:[ ("expected", expected); ("got", got) ]
                  ~hint:"re-collect the profile from this program"
                  (Printf.sprintf "profile describes %d procedure(s), program \
                                   has %d" got expected);
              ]
            else []);
  }

and prof_block_count =
  {
    id = "prof-block-count";
    code = "BA202";
    severity = D.Error;
    doc = "per-procedure rows must cover exactly the procedure's blocks";
    run =
      (fun ctx ->
        shared_procs ctx
        |> List.filter_map (fun (fid, g, p) ->
               let expected = Cfg.n_blocks g
               and got = Array.length p.Profile.freqs in
               if expected <> got then
                 Some
                   (diag prof_block_count
                      ~loc:(D.in_proc fid g.Cfg.name)
                      ~data:[ ("expected", expected); ("got", got) ]
                      ~hint:"re-collect the profile from this program"
                      (Printf.sprintf
                         "profile has %d block row(s), procedure has %d" got
                         expected))
               else None));
  }

and prof_count_positive =
  {
    id = "prof-count-positive";
    code = "BA203";
    severity = D.Error;
    doc = "recorded transfer counts are positive by construction";
    run =
      (fun ctx ->
        shared_procs ctx
        |> List.concat_map (fun (fid, g, p) ->
               Array.to_list p.Profile.freqs
               |> List.mapi (fun src row ->
                      Array.to_list row
                      |> List.filter_map (fun (dst, n) ->
                             if n <= 0 then
                               Some
                                 (diag prof_count_positive
                                    ~loc:
                                      (D.in_proc ~block:src ~edge:(src, dst)
                                         fid g.Cfg.name)
                                    ~data:[ ("count", n) ]
                                    ~hint:
                                      "drop zero rows; negative counts mean \
                                       a corrupted profile"
                                    (Printf.sprintf
                                       "edge %d->%d has non-positive count %d"
                                       src dst n))
                             else None))
               |> List.concat));
  }

and prof_dangling_dst =
  {
    id = "prof-dangling-dst";
    code = "BA204";
    severity = D.Error;
    doc = "every destination label must name a block of the procedure";
    run =
      (fun ctx ->
        shared_procs ctx
        |> List.concat_map (fun (fid, g, p) ->
               let nb = Cfg.n_blocks g in
               Array.to_list p.Profile.freqs
               |> List.mapi (fun src row ->
                      Array.to_list row
                      |> List.filter_map (fun (dst, _) ->
                             if dst < 0 || dst >= nb then
                               Some
                                 (diag prof_dangling_dst
                                    ~loc:
                                      (D.in_proc ~block:src ~edge:(src, dst)
                                         fid g.Cfg.name)
                                    ~data:[ ("dst", dst); ("blocks", nb) ]
                                    ~hint:"re-collect the profile"
                                    (Printf.sprintf
                                       "edge %d->%d dangles outside the \
                                        procedure (%d blocks)"
                                       src dst nb))
                             else None))
               |> List.concat));
  }

and prof_non_edge =
  {
    id = "prof-non-edge";
    code = "BA205";
    severity = D.Error;
    doc =
      "a recorded transfer must follow a CFG edge of its source block; \
       anything else is a profile from a different program";
    run =
      (fun ctx ->
        shared_procs ctx
        |> List.concat_map (fun (fid, g, p) ->
               let nb = Cfg.n_blocks g in
               if Array.length p.Profile.freqs <> nb then []
               else
                 Array.to_list p.Profile.freqs
                 |> List.mapi (fun src row ->
                        Array.to_list row
                        |> List.filter_map (fun (dst, _) ->
                               if
                                 dst >= 0 && dst < nb
                                 && not
                                      (Block.has_successor (Cfg.block g src)
                                         dst)
                               then
                                 Some
                                   (diag prof_non_edge
                                      ~loc:
                                        (D.in_proc ~block:src ~edge:(src, dst)
                                           fid g.Cfg.name)
                                      ~hint:
                                        "the profile was probably collected \
                                         from another build of the program"
                                      (Printf.sprintf
                                         "recorded transfer %d->%d is not a \
                                          CFG edge"
                                         src dst))
                               else None))
                 |> List.concat));
  }

and prof_call_graph =
  {
    id = "prof-call-graph";
    code = "BA206";
    severity = D.Error;
    doc = "dynamic calls must name existing procedures with positive counts";
    run =
      (fun ctx ->
        match ctx.profile with
        | None -> []
        | Some t ->
            let n = Array.length ctx.cfgs in
            List.filter_map
              (fun (caller, callee, cnt) ->
                if caller < 0 || caller >= n || callee < 0 || callee >= n then
                  Some
                    (diag prof_call_graph
                       ~loc:{ D.nowhere with D.proc = Some caller }
                       ~data:[ ("caller", caller); ("callee", callee) ]
                       ~hint:"re-collect the profile from this program"
                       (Printf.sprintf
                          "dynamic call %d->%d names a missing procedure"
                          caller callee))
                else if cnt <= 0 then
                  Some
                    (diag prof_call_graph
                       ~loc:{ D.nowhere with D.proc = Some caller }
                       ~data:[ ("caller", caller); ("callee", callee);
                               ("count", cnt) ]
                       (Printf.sprintf
                          "dynamic call %d->%d has non-positive count %d"
                          caller callee cnt))
                else None)
              t.Profile.calls);
  }

and prof_flow_conservation =
  {
    id = "prof-flow-conservation";
    code = "BA207";
    severity = D.Warning;
    doc =
      "Kirchhoff's law per block: transfers in must equal transfers out \
       for interior blocks (entries absorb invocations, exits absorb \
       returns); a leak means a truncated or merged profile";
    run =
      (fun ctx ->
        shared_procs ctx
        |> List.concat_map (fun (fid, g, p) ->
               if not (proc_rows_sound g p) then []
               else begin
                 let inflow = inflows g p in
                 Array.to_list g.Cfg.blocks
                 |> List.filter_map (fun b ->
                        let l = b.Block.id in
                        let outflow = Profile.out_count p l in
                        let violated =
                          match b.Block.term with
                          | Block.Exit -> false (* returns absorb flow *)
                          | _ when l = g.Cfg.entry ->
                              (* outflow = inflow + invocations *)
                              outflow < inflow.(l)
                          | _ -> outflow <> inflow.(l)
                        in
                        if violated then
                          Some
                            (diag prof_flow_conservation
                               ~loc:(D.in_proc ~block:l fid g.Cfg.name)
                               ~data:
                                 [ ("inflow", inflow.(l));
                                   ("outflow", outflow) ]
                               ~hint:
                                 "profiles from truncated runs leak flow; \
                                  re-collect from a complete run"
                               (Printf.sprintf
                                  "block %d receives %d transfer(s) but \
                                   emits %d"
                                  l inflow.(l) outflow))
                        else None)
               end));
  }

and prof_overflow_risk =
  {
    id = "prof-overflow-risk";
    code = "BA208";
    severity = D.Warning;
    doc =
      "counts within 2^16 of max_int overflow the analytic cost model \
       once multiplied by per-transfer penalty cycles";
    run =
      (fun ctx ->
        shared_procs ctx
        |> List.concat_map (fun (fid, g, p) ->
               Array.to_list p.Profile.freqs
               |> List.mapi (fun src row ->
                      Array.to_list row
                      |> List.filter_map (fun (dst, n) ->
                             if n > overflow_guard then
                               Some
                                 (diag prof_overflow_risk
                                    ~loc:
                                      (D.in_proc ~block:src ~edge:(src, dst)
                                         fid g.Cfg.name)
                                    ~data:[ ("count", n) ]
                                    ~hint:
                                      "scale the profile down with \
                                       Profile.scale before aligning"
                                    (Printf.sprintf
                                       "edge %d->%d count %d risks int \
                                        overflow under the cost model"
                                       src dst n))
                             else None))
               |> List.concat));
  }

and prof_cold_branch =
  {
    id = "prof-cold-branch";
    code = "BA209";
    severity = D.Info;
    doc =
      "a reachable conditional that never executed while its procedure \
       did gets an arbitrary layout — the training input misses a path";
    run =
      (fun ctx ->
        shared_procs ctx
        |> List.concat_map (fun (fid, g, p) ->
               if
                 (not (proc_rows_sound g p))
                 || Profile.total_transfers p = 0
               then []
               else
                 match reachable_opt g with
                 | None -> []
                 | Some seen ->
                     Array.to_list g.Cfg.blocks
                     |> List.filter_map (fun b ->
                            let l = b.Block.id in
                            if
                              seen.(l)
                              && Block.is_conditional b
                              && Profile.out_count p l = 0
                            then
                              Some
                                (diag prof_cold_branch
                                   ~loc:(D.in_proc ~block:l fid g.Cfg.name)
                                   ~hint:
                                     "train on an input that exercises this \
                                      path"
                                   (Printf.sprintf
                                      "conditional block %d never executed \
                                       on the training input"
                                      l))
                            else None)));
  }

and prof_cold_ratio =
  {
    id = "prof-cold-ratio";
    code = "BA210";
    severity = D.Info;
    doc =
      "when most reachable blocks never execute, the training input \
       covers too little of the procedure for the layout to transfer";
    run =
      (fun ctx ->
        shared_procs ctx
        |> List.filter_map (fun (fid, g, p) ->
               if
                 (not (proc_rows_sound g p))
                 || Profile.total_transfers p = 0
               then None
               else
                 match reachable_opt g with
                 | None -> None
                 | Some seen ->
                     let inflow = inflows g p in
                     let reachable = ref 0 and cold = ref 0 in
                     Array.iteri
                       (fun l r ->
                         if r then begin
                           incr reachable;
                           let executed =
                             l = g.Cfg.entry
                             || inflow.(l) > 0
                             || Profile.out_count p l > 0
                           in
                           if not executed then incr cold
                         end)
                       seen;
                     if !reachable >= 4 && 2 * !cold > !reachable then
                       Some
                         (diag prof_cold_ratio
                            ~loc:(D.in_proc fid g.Cfg.name)
                            ~data:
                              [ ("cold", !cold); ("reachable", !reachable) ]
                            ~hint:"train on a more representative input"
                            (Printf.sprintf
                               "%d of %d reachable block(s) never executed \
                                on the training input"
                               !cold !reachable))
                     else None));
  }

(* ------------------------------------------------------------------ *)
(* structural-analysis rules (BA3xx)                                   *)

and ana_irreducible =
  {
    id = "ana-irreducible-loop";
    code = "BA301";
    severity = D.Warning;
    doc =
      "a retreating edge whose target does not dominate its tail is a \
       cycle with multiple entries — no natural loop, so loop-driven \
       heuristics and the static profile estimator treat its flow \
       conservatively";
    run =
      (fun ctx ->
        per_cfg ctx (fun fid g ->
            if not (sound g) then []
            else
              let dom = Ba_analysis.Dom.compute g in
              let loops = Ba_analysis.Loops.compute dom in
              Ba_analysis.Loops.irreducible loops
              |> List.map (fun (u, v) ->
                     diag ana_irreducible
                       ~loc:(D.in_proc ~block:u ~edge:(u, v) fid g.Cfg.name)
                       ~hint:
                         "node splitting (duplicating the shared blocks) \
                          restores reducibility"
                       (Printf.sprintf
                          "retreating edge %d->%d re-enters a cycle whose \
                           header does not dominate it (irreducible control \
                           flow)"
                          u v))));
  }

and ana_unreachable_loop =
  {
    id = "ana-unreachable-loop-body";
    code = "BA302";
    severity = D.Warning;
    doc =
      "a cycle lying entirely in unreachable code is a loop no \
       execution can ever enter — stronger evidence of a lowering bug \
       than plain unreachable straight-line code";
    run =
      (fun ctx ->
        per_cfg ctx (fun fid g ->
            match reachable_opt g with
            | None -> []
            | Some seen ->
                let n = Cfg.n_blocks g in
                (* cycle detection restricted to the unreachable induced
                   subgraph: iterative DFS, gray-edge witnesses *)
                let color = Array.make n 0 in
                let witness = Array.make n false in
                for root = 0 to n - 1 do
                  if (not seen.(root)) && color.(root) = 0 then begin
                    let stack =
                      ref [ (root, ref (Cfg.successors g root)) ]
                    in
                    color.(root) <- 1;
                    while !stack <> [] do
                      match !stack with
                      | [] -> ()
                      | (l, rest) :: tl -> (
                          match !rest with
                          | [] ->
                              color.(l) <- 2;
                              stack := tl
                          | v :: more ->
                              rest := more;
                              if not seen.(v) then
                                if color.(v) = 0 then begin
                                  color.(v) <- 1;
                                  stack :=
                                    (v, ref (Cfg.successors g v)) :: !stack
                                end
                                else if color.(v) = 1 then
                                  witness.(v) <- true)
                    done
                  end
                done;
                let out = ref [] in
                for l = n - 1 downto 0 do
                  if witness.(l) then
                    out :=
                      diag ana_unreachable_loop
                        ~loc:(D.in_proc ~block:l fid g.Cfg.name)
                        ~hint:
                          "dead loops cannot be profiled or laid out; \
                           delete them or reconnect them to reachable code"
                        (Printf.sprintf
                           "block %d heads a cycle that lies entirely in \
                            unreachable code"
                           l)
                      :: !out
                done;
                !out));
  }

and ana_estimate_divergence =
  {
    id = "ana-estimate-divergence";
    code = "BA303";
    severity = D.Info;
    doc =
      "when the static estimator's predicted successors disagree with \
       the collected profile on most executed branch sites, structure \
       is a poor stand-in for this procedure's behavior — prefer the \
       collected profile";
    run =
      (fun ctx ->
        shared_procs ctx
        |> List.filter_map (fun (fid, g, p) ->
               if
                 (not (proc_rows_sound g p)) || Profile.total_transfers p = 0
               then None
               else begin
                 let est = Ba_analysis.Estimate.proc g in
                 let sites = ref 0 and agree = ref 0 in
                 Cfg.iter
                   (fun b ->
                     let l = b.Block.id in
                     if Block.is_conditional b && Profile.out_count p l > 0
                     then begin
                       incr sites;
                       if Profile.predicted p l = Profile.predicted est l
                       then incr agree
                     end)
                   g;
                 if !sites >= 8 && 2 * !agree < !sites then
                   Some
                     (diag ana_estimate_divergence
                        ~loc:(D.in_proc fid g.Cfg.name)
                        ~data:[ ("agree", !agree); ("sites", !sites) ]
                        ~hint:
                          "keep training this procedure on collected \
                           profiles; --profile static would misplace its \
                           hot paths"
                        (Printf.sprintf
                           "static estimate agrees with the collected \
                            profile on only %d of %d executed branch \
                            site(s)"
                           !agree !sites))
                 else None
               end));
  }

and ana_loop_depth =
  {
    id = "ana-loop-depth";
    code = "BA304";
    severity = D.Warning;
    doc =
      "loop nests deeper than 32 overflow any sensible iteration-count \
       model (multipliers compound per level) — almost always a \
       generator or lowering artifact, not real control flow";
    run =
      (fun ctx ->
        per_cfg ctx (fun fid g ->
            if not (sound g) then []
            else
              let dom = Ba_analysis.Dom.compute g in
              let loops = Ba_analysis.Loops.compute dom in
              let d = Ba_analysis.Loops.max_depth loops in
              if d <= 32 then []
              else
                (* locate the first deepest loop for the report *)
                let header = ref g.Cfg.entry in
                Array.iter
                  (fun (l : Ba_analysis.Loops.loop) ->
                    if l.Ba_analysis.Loops.depth = d && !header = g.Cfg.entry
                    then header := l.Ba_analysis.Loops.header)
                  (Ba_analysis.Loops.loops loops);
                [
                  diag ana_loop_depth
                    ~loc:(D.in_proc ~block:!header fid g.Cfg.name)
                    ~data:[ ("depth", d) ]
                    ~hint:
                      "check the front end: nests this deep usually come \
                       from unrolled or duplicated control flow"
                    (Printf.sprintf
                       "loop nest reaches depth %d (header of the deepest \
                        loop: block %d)"
                       d !header);
                ]));
  }

(** The catalogue, in gating order: CFG shape errors, CFG hygiene
    warnings, profile shape errors, profile hygiene warnings and
    coverage infos, then the structural-analysis family (all
    non-gating by default: warnings and infos only). *)
let all : rule list =
  [
    cfg_empty;
    cfg_entry_range;
    cfg_block_id;
    cfg_negative_size;
    cfg_successor_range;
    cfg_degenerate_branch;
    cfg_multiway_arity;
    cfg_unreachable;
    cfg_self_loop;
    cfg_goto_cycle;
    prof_proc_count;
    prof_block_count;
    prof_count_positive;
    prof_dangling_dst;
    prof_non_edge;
    prof_call_graph;
    prof_flow_conservation;
    prof_overflow_risk;
    prof_cold_branch;
    prof_cold_ratio;
    ana_irreducible;
    ana_unreachable_loop;
    ana_estimate_divergence;
    ana_loop_depth;
  ]

let by_id id = List.find_opt (fun r -> r.id = id) all
