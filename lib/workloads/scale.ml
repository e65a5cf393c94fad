(** Parameterized synthetic whole-program-scale CFGs.

    The minic benchmarks top out around a hundred blocks per procedure;
    production layout optimizers (Codestitcher, BOLT — PAPERS.md) chew
    on whole-binary CFGs of 10⁵–10⁶ blocks.  These generators produce
    such instances deterministically — no RNG, every block and count a
    closed-form function of [(family, n, invocations)] — so bench rows
    are reproducible bit-for-bit and the expected block/edge counts can
    be asserted independently in tests.

    Three shapes cover the structures that dominate real programs:

    - {!Loop_nest}: a deep nest (depth ≤ 16) of counted loops around a
      long straight-line body — geometric frequency growth toward the
      innermost body, the classic hot-loop profile.
    - {!Switch}: a cascade of [Multiway] jump tables, each fanning out
      to its arm blocks which reconverge on the next table — wide,
      shallow, harmonically skewed.
    - {!Interp}: one huge dispatch [Multiway] (≈ n/4 arms) feeding
      fixed-length handler chains that loop back to the dispatcher —
      the interpreter main-loop shape, geometrically skewed toward hot
      opcodes.

    Every instance has exactly [n] blocks, entry 0, [Exit] at n−1, is
    fully reachable ([Cfg.validate ~strict] passes), and ships a
    flow-conserving (loop-nest, interp) or locally consistent (switch)
    edge profile that passes [Lint.gate]. *)

open Ba_cfg
module Profile = Ba_profile.Profile

type family = Loop_nest | Switch | Interp

let all = [ Loop_nest; Switch; Interp ]

let name = function
  | Loop_nest -> "loop-nest"
  | Switch -> "switch"
  | Interp -> "interp"

let find s = List.find_opt (fun f -> name f = s) all

(** Smallest supported instance; below this the shapes degenerate. *)
let min_blocks = 8

(** Arms per jump table in the {!Switch} cascade. *)
let switch_width = 64

(** Handler chain length in {!Interp} (the first handler absorbs the
    remainder, so arm count ≈ (n−3)/4). *)
let handler_len = 4

(** Loop-nest depth: as deep as n allows, capped so the innermost
    frequency (2 per entry, compounded) stays far from overflow. *)
let loop_depth ~n = max 1 (min 16 ((n - 3) / 2))

(* deterministic block sizes — arbitrary but varied, so fetch-window
   terms in Ext-TSP-style objectives see non-trivial byte layouts *)
let size_of id = 1 + ((id * 7) + 3) mod 13

let check fam ~n =
  if n < min_blocks then
    invalid_arg
      (Printf.sprintf "Scale.%s: n = %d below minimum %d" (name fam) n
         min_blocks)

(** Distinct static CFG edges of [cfg fam ~n], in closed form (asserted
    against [Cfg.n_edges] in the tests). *)
let expected_edges fam ~n =
  check fam ~n;
  match fam with
  | Loop_nest -> n + loop_depth ~n - 1
  | Interp -> n + max 1 ((n - 3) / handler_len) - 1
  | Switch ->
      let stride = switch_width + 1 in
      let heads = ((n - 3) / stride) + 1 in
      let arms = n - 2 - heads in
      (* a head whose section has no arm blocks left degrades to a
         single edge straight to the exit *)
      let empty_head = if (n - 3) mod stride = 0 then 1 else 0 in
      1 + (2 * arms) + empty_head

(* ------------------------------------------------------------------ *)

(* Loop nest: 0 entry → header 1 → … → header D → body chain → latch D;
   latch j closes loop j; header j's exit arm unwinds to latch (j−1)
   (to the procedure exit for j = 1).  Trip count 2 per entry. *)
let build_loop_nest ~n ~invocations =
  let dd = loop_depth ~n in
  let bb = n - (2 * dd) - 2 in
  let latch j = dd + bb + j in
  let inner j = if j < dd then j + 1 else dd + 1 in
  let unwind j = if j = 1 then n - 1 else latch (j - 1) in
  let term id =
    if id = 0 then Block.Goto 1
    else if id <= dd then Block.Branch { t = inner id; f = unwind id }
    else if id < dd + bb then Block.Goto (id + 1)
    else if id = dd + bb then Block.Goto (latch dd)
    else if id < n - 1 then Block.Goto (id - (dd + bb)) (* latch j → header j *)
    else Block.Exit
  in
  let entries = Array.make (dd + 1) 0 in
  entries.(1) <- invocations;
  for j = 2 to dd do
    entries.(j) <- 2 * entries.(j - 1)
  done;
  let triples = ref [ (0, 1, invocations) ] in
  for j = 1 to dd do
    triples := (j, inner j, 2 * entries.(j)) :: (j, unwind j, entries.(j))
               :: (latch j, j, 2 * entries.(j)) :: !triples
  done;
  let body_count = 2 * entries.(dd) in
  for i = dd + 1 to dd + bb do
    let dst = if i = dd + bb then latch dd else i + 1 in
    triples := (i, dst, body_count) :: !triples
  done;
  (term, !triples)

(* Switch cascade: sections of (head + up to switch_width arm blocks);
   each head fans out over its arms, each arm falls through to the next
   head (the exit after the last section). *)
let build_switch ~n ~invocations =
  let stride = switch_width + 1 in
  let head_of id = 1 + ((id - 1) / stride * stride) in
  let section_hi id = min (head_of id + switch_width) (n - 2) in
  let next_of id = if section_hi id = n - 2 then n - 1 else section_hi id + 1 in
  let arm_count id = max 1 (invocations / (id - head_of id)) in
  let term id =
    if id = 0 then Block.Goto 1
    else if id = n - 1 then Block.Exit
    else if id = head_of id then begin
      let lo = id + 1 and hi = section_hi id in
      if lo > hi then Block.Goto (n - 1)
      else Block.Multiway (Array.init (hi - lo + 1) (fun i -> lo + i))
    end
    else Block.Goto (next_of id)
  in
  let triples = ref [] in
  let first_total = ref 0 in
  let m = ref 1 in
  while !m <= n - 2 do
    let lo = !m + 1 and hi = section_hi !m in
    if lo > hi then triples := (!m, n - 1, 1) :: !triples
    else
      for p = lo to hi do
        let c = arm_count p in
        if !m = 1 then first_total := !first_total + c;
        triples := (!m, p, c) :: (p, next_of p, c) :: !triples
      done;
    m := !m + stride
  done;
  triples := (0, 1, max 1 !first_total) :: !triples;
  (term, !triples)

(* Interpreter: one dispatch Multiway over all handler heads plus an
   exit arm; handlers are fixed-length chains looping back to the
   dispatcher; handler frequencies fall geometrically (hot opcodes). *)
let build_interp ~n ~invocations =
  let hh = max 1 ((n - 3) / handler_len) in
  let rem = n - 3 - (hh * handler_len) in
  (* handler 0 spans [2, 2+handler_len+rem); the rest are handler_len *)
  let start h = if h = 0 then 2 else 2 + handler_len + rem + ((h - 1) * handler_len) in
  let handler_of id =
    if id < 2 + handler_len + rem then 0
    else 1 + ((id - 2 - handler_len - rem) / handler_len)
  in
  let last h = start (h + 1) - 1 in
  let freq h = max 1 (invocations lsr min h 30) in
  let term id =
    if id = 0 then Block.Goto 1
    else if id = 1 then
      Block.Multiway
        (Array.init (hh + 1) (fun h -> if h = hh then n - 1 else start h))
    else if id = n - 1 then Block.Exit
    else if id = last (handler_of id) then Block.Goto 1
    else Block.Goto (id + 1)
  in
  let triples = ref [ (0, 1, 1); (1, n - 1, 1) ] in
  for h = 0 to hh - 1 do
    let f = freq h in
    triples := (1, start h, f) :: !triples;
    for p = start h to last h do
      let dst = if p = last h then 1 else p + 1 in
      triples := (p, dst, f) :: !triples
    done
  done;
  (term, !triples)

(* ------------------------------------------------------------------ *)

let builder = function
  | Loop_nest -> build_loop_nest
  | Switch -> build_switch
  | Interp -> build_interp

(** [instance fam ~n ~invocations] builds the CFG (exactly [n] blocks)
    and its deterministic analytic profile in one pass.
    @raise Invalid_argument when [n < min_blocks] or [invocations < 1]. *)
let instance fam ~n ~invocations =
  check fam ~n;
  if invocations < 1 then invalid_arg "Scale.instance: invocations < 1";
  let term, triples = builder fam ~n ~invocations in
  let blocks =
    Array.init n (fun id -> Block.make ~id ~size:(size_of id) (term id))
  in
  let g = Cfg.make ~name:(Printf.sprintf "%s-%d" (name fam) n) ~entry:0 blocks in
  (g, Profile.of_assoc ~n_blocks:n triples)

(** The CFG alone (profile discarded). *)
let cfg fam ~n = fst (instance fam ~n ~invocations:1024)
