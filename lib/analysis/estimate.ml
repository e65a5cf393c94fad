(** Static profile estimation (see estimate.mli for the contract).

    Pipeline, per procedure:

    1. {e drains} — backward BFS from the exit blocks; a block that
       cannot reach an exit can never retire flow, so arms into it get
       probability zero and the block itself stays at frequency zero.
    2. {e branch probabilities} — per block, over its distinct
       successors: Dempster–Shafer combination of the applicable
       heuristics for two-way branches, weight products for multiway
       dispatch, certainty for gotos.
    3. {e cyclic probabilities} — one propagation pass per loop,
       innermost first, over the loop body in reverse postorder
       (back edges excluded; inner headers contribute through their
       multiplier [1/(1−cp)]); cp is capped at 63/64 and multiplier
       chains are capped top-down so no frequency can overflow.
    4. {e final pass} — top-level propagation over all reachable
       blocks yields float block frequencies.
    5. {e integerization} — per block, largest-remainder apportionment
       of the rounded block frequency over its positive-probability
       arms; then every block's residual (integer inflow minus integer
       outflow, nonzero only through rounding, capping, or irreducible
       retreating edges) is routed as extra flow along a drain-tree
       path to an exit (excess) or a feed-tree path from the entry
       (deficit).  Each routed path changes only its endpoints'
       balances, so one pass makes Kirchhoff's law hold exactly. *)

open Ba_cfg

(* The heuristic table (docs/ANALYSIS.md).  Probabilities are for the
   arm the heuristic favors; multiway arm weights are multiplicative. *)
let p_loop_back = 0.88 (* LBH: the back-edge arm of a 2-way branch *)
let p_loop_exit = 0.80 (* LEH: the arm that stays in the loop *)
let p_loop_header = 0.75 (* LHH: the arm that enters a new loop *)
let p_return = 0.72 (* RH: the arm that does NOT go to an exit block *)
let p_opcode = 0.60 (* OH: the arm targeting a multiway dispatch *)
let p_arity = 0.55 (* AH: the arm whose target has more out-edges *)
let w_back = 8.0 (* multiway: back-edge arm weight *)
let w_exit = 0.4 (* multiway: exit-target arm weight *)
let cp_cap = 63.0 /. 64.0 (* max cyclic probability: multiplier <= 64 *)

let mult_chain_cap = 1.1e12

(* Dempster–Shafer evidence combination of two probabilities. *)
let ds p q =
  let num = p *. q in
  num /. (num +. ((1.0 -. p) *. (1.0 -. q)))

type result = {
  profile : Ba_profile.Profile.proc;
  freq : float array;
  scale : float;
}

let estimate ?(invocations = 10_000) (dom : Dom.t) (loops : Loops.t) : result =
  let g = Dom.cfg dom in
  let n = Cfg.n_blocks g in
  let order = Dom.order dom in
  let entry = g.Cfg.entry in
  let term l = (Cfg.block g l).Block.term in
  (* ---- 1. drains: backward BFS from the exit blocks ---- *)
  let drain_next = Array.make n (-1) in
  (* -1 cannot reach an exit; -2 is an exit; otherwise the next hop *)
  let queue = Array.make (max 1 n) 0 in
  let qh = ref 0 and qt = ref 0 in
  Array.iter
    (fun b ->
      if term b = Block.Exit then begin
        drain_next.(b) <- -2;
        queue.(!qt) <- b;
        incr qt
      end)
    order;
  while !qh < !qt do
    let v = queue.(!qh) in
    incr qh;
    Dom.iter_preds dom v (fun u ->
        if drain_next.(u) = -1 then begin
          drain_next.(u) <- v;
          queue.(!qt) <- u;
          incr qt
        end)
  done;
  let drains b = drain_next.(b) <> -1 in
  (* ---- 2. arm probabilities over distinct successors ---- *)
  let dsts = Array.make n [||] in
  let probs = Array.make n [||] in
  let retreating u v = Dom.rpo_number dom v <= Dom.rpo_number dom u in
  let back u v = retreating u v && Dom.dominates dom v u in
  let arity l = List.length (Block.distinct_successors (Cfg.block g l)) in
  Array.iter
    (fun b ->
      let blk = Cfg.block g b in
      let d = Array.of_list (Block.distinct_successors blk) in
      dsts.(b) <- d;
      let k = Array.length d in
      let p = Array.make k 0.0 in
      (if drains b then
         match blk.Block.term with
         | Block.Exit -> ()
         | Block.Goto _ -> p.(0) <- 1.0
         | Block.Branch { t; f } ->
             let pt =
               if not (drains t) then 0.0
               else if not (drains f) then 1.0
               else begin
                 let pt = ref 0.5 in
                 let vote taken q =
                   pt := ds !pt (if taken then q else 1.0 -. q)
                 in
                 let bt = back b t and bf = back b f in
                 if bt && not bf then vote true p_loop_back
                 else if bf && not bt then vote false p_loop_back;
                 (match Loops.innermost loops b with
                 | -1 -> ()
                 | li ->
                     let st = Loops.mem loops li t
                     and sf = Loops.mem loops li f in
                     if st && not sf then vote true p_loop_exit
                     else if sf && not st then vote false p_loop_exit);
                 let enters a =
                   match Loops.header_of loops a with
                   | Some la -> not (Loops.mem loops la b)
                   | None -> false
                 in
                 let et = enters t and ef = enters f in
                 if et && not ef then vote true p_loop_header
                 else if ef && not et then vote false p_loop_header;
                 let xt = term t = Block.Exit and xf = term f = Block.Exit in
                 if xt && not xf then vote false p_return
                 else if xf && not xt then vote true p_return;
                 let mt = Block.is_multiway (Cfg.block g t)
                 and mf = Block.is_multiway (Cfg.block g f) in
                 if mt && not mf then vote true p_opcode
                 else if mf && not mt then vote false p_opcode;
                 let at = arity t and af = arity f in
                 if at > af then vote true p_arity
                 else if af > at then vote false p_arity;
                 !pt
               end
             in
             Array.iteri
               (fun i dst -> p.(i) <- (if dst = t then pt else 1.0 -. pt))
               d
         | Block.Multiway ts ->
             let w = Array.make k 0.0 in
             let idx_of v =
               let lo = ref 0 and hi = ref (k - 1) and res = ref (-1) in
               while !lo <= !hi do
                 let mid = (!lo + !hi) / 2 in
                 if d.(mid) = v then begin
                   res := mid;
                   lo := !hi + 1
                 end
                 else if d.(mid) < v then lo := mid + 1
                 else hi := mid - 1
               done;
               !res
             in
             Array.iter (fun tgt -> w.(idx_of tgt) <- w.(idx_of tgt) +. 1.0) ts;
             Array.iteri
               (fun i dst ->
                 if not (drains dst) then w.(i) <- 0.0
                 else begin
                   if back b dst then w.(i) <- w.(i) *. w_back;
                   if term dst = Block.Exit then w.(i) <- w.(i) *. w_exit
                 end)
               d;
             let total = Array.fold_left ( +. ) 0.0 w in
             if total > 0.0 then
               Array.iteri (fun i wi -> p.(i) <- wi /. total) w);
      probs.(b) <- p)
    order;
  let p_of u v =
    let d = dsts.(u) in
    let lo = ref 0 and hi = ref (Array.length d - 1) and res = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      if d.(mid) = v then begin
        res := mid;
        lo := !hi + 1
      end
      else if d.(mid) < v then lo := mid + 1
      else hi := mid - 1
    done;
    if !res < 0 then 0.0 else probs.(u).(!res)
  in
  (* ---- 3. cyclic probabilities, innermost first ---- *)
  let larr = Loops.loops loops in
  let nl = Array.length larr in
  let direct = Array.make nl [] in
  for k = Array.length order - 1 downto 0 do
    let b = order.(k) in
    let li = Loops.innermost loops b in
    if li >= 0 then direct.(li) <- b :: direct.(li)
  done;
  let children = Array.make nl [] in
  Array.iteri
    (fun li (l : Loops.loop) ->
      if l.Loops.parent >= 0 then
        children.(l.Loops.parent) <- li :: children.(l.Loops.parent))
    larr;
  let body = Array.make nl [||] in
  for li = 0 to nl - 1 do
    let acc =
      List.fold_left
        (fun acc c -> List.rev_append (Array.to_list body.(c)) acc)
        direct.(li) children.(li)
    in
    let a = Array.of_list acc in
    Array.sort
      (fun a b -> compare (Dom.rpo_number dom a) (Dom.rpo_number dom b))
      a;
    body.(li) <- a
  done;
  let mult = Array.make nl 1.0 in
  let fscratch = Array.make n 0.0 in
  let fstamp = Array.make n (-1) in
  let getf li b = if fstamp.(b) = li then fscratch.(b) else 0.0 in
  for li = 0 to nl - 1 do
    let h = larr.(li).Loops.header in
    Array.iter
      (fun b ->
        let v =
          if b = h then 1.0
          else begin
            let base = ref 0.0 in
            Dom.iter_preds dom b (fun u ->
                if
                  Dom.rpo_number dom u < Dom.rpo_number dom b
                  && Loops.mem loops li u
                then base := !base +. (getf li u *. p_of u b));
            match Loops.header_of loops b with
            | Some lc when lc <> li -> !base *. mult.(lc)
            | _ -> !base
          end
        in
        fscratch.(b) <- v;
        fstamp.(b) <- li)
      body.(li);
    let cp =
      List.fold_left
        (fun acc (t, h') -> acc +. (getf li t *. p_of t h'))
        0.0 larr.(li).Loops.back_edges
    in
    let cp = Float.min (Float.max cp 0.0) cp_cap in
    mult.(li) <- 1.0 /. (1.0 -. cp)
  done;
  (* cap multiplier chains top-down (outer loops have higher indices)
     so the deepest nest cannot push counts past the overflow guard *)
  let chain = Array.make nl 1.0 in
  for li = nl - 1 downto 0 do
    let q =
      match larr.(li).Loops.parent with -1 -> 1.0 | p -> chain.(p)
    in
    if q *. mult.(li) > mult_chain_cap then
      mult.(li) <- Float.max 1.0 (mult_chain_cap /. q);
    chain.(li) <- q *. mult.(li)
  done;
  (* ---- 4. final top-level propagation ---- *)
  let ff = Array.make n 0.0 in
  Array.iter
    (fun b ->
      let base =
        if b = entry then 1.0
        else begin
          let s = ref 0.0 in
          Dom.iter_preds dom b (fun u ->
              if Dom.rpo_number dom u < Dom.rpo_number dom b then
                s := !s +. (ff.(u) *. p_of u b));
          !s
        end
      in
      ff.(b) <-
        (match Loops.header_of loops b with
        | Some li -> base *. mult.(li)
        | None -> base))
    order;
  (* ---- 5. integerization + exact conservation repair ---- *)
  let fmax = Array.fold_left Float.max 1.0 ff in
  (* estimated counts stay a factor of 64 below the profile count limit *)
  let budget = float_of_int Ba_profile.Profile.overflow_guard /. 64.0 in
  let scale =
    Float.max 1.0 (Float.min (float_of_int (max 1 invocations)) (budget /. fmax))
  in
  let counts = Array.make n [||] in
  Array.iter
    (fun b ->
      let k = Array.length dsts.(b) in
      let c = Array.make k 0 in
      counts.(b) <- c;
      let r = int_of_float (Float.round (scale *. ff.(b))) in
      if r > 0 && k > 0 then begin
        let rf = float_of_int r in
        let shares = Array.make k 0.0 in
        let floors = ref 0 in
        for i = 0 to k - 1 do
          if probs.(b).(i) > 0.0 then begin
            shares.(i) <- probs.(b).(i) *. rf;
            c.(i) <- int_of_float (Float.floor shares.(i));
            floors := !floors + c.(i)
          end
        done;
        let rem = r - !floors in
        if rem > 0 then begin
          (* leftover units to the largest fractional parts; ties toward
             the smaller arm index (= smaller destination) *)
          let idx = Array.init k (fun i -> i) in
          Array.sort
            (fun i j ->
              let fi = shares.(i) -. Float.floor shares.(i)
              and fj = shares.(j) -. Float.floor shares.(j) in
              if fi = fj then compare i j else compare fj fi)
            idx;
          let given = ref 0 in
          Array.iter
            (fun i ->
              if !given < rem && probs.(b).(i) > 0.0 then begin
                c.(i) <- c.(i) + 1;
                incr given
              end)
            idx
        end
      end)
    order;
  let inflow = Array.make n 0 in
  Array.iter
    (fun u ->
      Array.iteri
        (fun i dst -> inflow.(dst) <- inflow.(dst) + counts.(u).(i))
        dsts.(u))
    order;
  let feed_parent = Array.make n (-1) in
  feed_parent.(entry) <- -2;
  qh := 0;
  qt := 0;
  queue.(!qt) <- entry;
  incr qt;
  while !qh < !qt do
    let u = queue.(!qh) in
    incr qh;
    Array.iter
      (fun v ->
        if feed_parent.(v) = -1 then begin
          feed_parent.(v) <- u;
          queue.(!qt) <- v;
          incr qt
        end)
      dsts.(u)
  done;
  let add_edge u v d =
    let a = dsts.(u) in
    let lo = ref 0 and hi = ref (Array.length a - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if a.(mid) < v then lo := mid + 1 else hi := mid
    done;
    counts.(u).(!lo) <- counts.(u).(!lo) + d
  in
  (* snapshot the residuals before any repair touches the counts: each
     routed path adds balanced flow through its interior blocks, so the
     snapshot residuals remain the exact per-block corrections *)
  let residual = Array.make n 0 in
  Array.iter
    (fun b ->
      residual.(b) <- inflow.(b) - Array.fold_left ( + ) 0 counts.(b))
    order;
  Array.iter
    (fun b ->
      if term b <> Block.Exit then begin
        let res = residual.(b) in
        if res > 0 then begin
          (* excess inflow: push it to an exit along the drain tree.
             Only draining blocks can carry flow, so the path exists. *)
          let u = ref b in
          while term !u <> Block.Exit do
            let v = drain_next.(!u) in
            add_edge !u v res;
            u := v
          done
        end
        else if res < 0 && b <> entry then begin
          (* deficit: feed it from the entry along the BFS tree
             (the entry is allowed to emit more than it absorbs) *)
          let v = ref b in
          while !v <> entry do
            let u = feed_parent.(!v) in
            add_edge u !v (-res);
            v := u
          done
        end
      end)
    order;
  let rows =
    Array.init n (fun b ->
        let d = dsts.(b) and c = counts.(b) in
        Array.init (Array.length d) (fun i -> (d.(i), c.(i))))
  in
  { profile = Ba_profile.Profile.of_freqs rows; freq = ff; scale }

let proc ?invocations (g : Cfg.t) =
  let dom = Dom.compute g in
  (estimate ?invocations dom (Loops.compute dom)).profile

let program ?invocations (cfgs : Cfg.t array) : Ba_profile.Profile.t =
  { procs = Array.map (fun g -> proc ?invocations g) cfgs; calls = [] }
