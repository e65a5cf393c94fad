(** Independent certification of alignment results.

    [certify] re-verifies a produced layout from first principles,
    deliberately sharing no code with the solver path in {!Ba_align}:
    it rebuilds the DTSP instance itself from
    {!Ba_machine.Model.edge_cost} ({!dtsp_of_sparse}: per block, the
    fall-off cost as the row default and its CFG successors as the only
    deviations) rather than reusing {!Ba_align.Reduction}'s emission,
    and re-derives every property the paper's reduction promises.  The
    dense O(n²) build {!dtsp_of} stays as the reference that instance
    is tested against; the certifier itself uses the sparse build at
    every size.  A certificate attests that:

    - the layout is a permutation of the procedure's blocks with the
      entry first (a Hamiltonian walk of the reduction's cities);
    - the realized layout is semantically faithful to the CFG;
    - the control penalty recomputed from scratch against the machine
      cost model equals the cost the solver reported (when a claimed
      cost is given);
    - the DTSP → symmetric 2-city transformation round-trips: the
      expanded symmetric tour keeps every locked in/out pair adjacent,
      extraction recovers the directed tour, and the symmetric cost
      plus the transformation offset equals the directed cost;
    - the Held–Karp lower bound does not exceed the certified cost.

    Validation counters ([check.certs_checked] / [check.certs_failed])
    flow into the {!Ba_obs.Metrics} registry. *)

open Ba_cfg
open Ba_machine
module Profile = Ba_profile.Profile
module Metrics = Ba_obs.Metrics
module Json = Ba_obs.Json
module Dtsp = Ba_tsp.Dtsp
module Sym = Ba_tsp.Sym
module Held_karp = Ba_tsp.Held_karp

(** Why a layout fails certification. *)
type error =
  | Not_permutation of string
      (** the order does not visit each block exactly once *)
  | Entry_not_first of { entry : int; first : int }
  | Locked_pair_broken of { city : int }
      (** the symmetric tour separates city's in/out pair *)
  | Cost_mismatch of { claimed : int; recomputed : int }
  | Bound_exceeds_cost of { bound : int; cost : int }
  | Bound_unavailable of string
      (** the Held–Karp bound could not be computed exactly *)
  | Unfaithful of string
      (** the realized layout changes the program's transfers *)

let pp_error ppf = function
  | Not_permutation m -> Fmt.pf ppf "not a permutation of the blocks: %s" m
  | Entry_not_first { entry; first } ->
      Fmt.pf ppf "entry block %d not first (layout starts at %d)" entry first
  | Locked_pair_broken { city } ->
      Fmt.pf ppf "locked in/out pair of city %d not adjacent" city
  | Cost_mismatch { claimed; recomputed } ->
      Fmt.pf ppf "claimed cost %d, independent recomputation gives %d" claimed
        recomputed
  | Bound_exceeds_cost { bound; cost } ->
      Fmt.pf ppf "Held-Karp lower bound %d exceeds certified cost %d" bound
        cost
  | Bound_unavailable m -> Fmt.pf ppf "Held-Karp bound unavailable: %s" m
  | Unfaithful m -> Fmt.pf ppf "layout not semantically faithful: %s" m

let error_to_string e = Fmt.str "%a" pp_error e

(** How to obtain the Held–Karp bound for the bound ≤ cost check:
    [Skip] it, trust a [Given] bound computed elsewhere (the bench
    harness already has one per procedure), or [Compute] it here. *)
type hk_mode = Skip | Given of int | Compute of Held_karp.config

(** A per-procedure certificate: every recorded number was recomputed
    here, not copied from the solver. *)
type proc_cert = {
  proc : int;
  name : string;
  n_blocks : int;
  cost : int;  (** independently recomputed control penalty, cycles *)
  claimed : int option;  (** solver-reported cost, when provided *)
  hk_bound : int option;  (** lower bound used for the bound check *)
  sym_checked : bool;  (** locked-pair round-trip was exercised *)
}

type failure = { fproc : int; fname : string; error : error }

(** A whole-program certificate. *)
type t = { procs : proc_cert list; total_cost : int }

(* ------------------------------------------------------------------ *)
(* the independent checks (exposed for adversarial tests)              *)

(** Hamiltonian-walk property: [order] visits each of the [n] blocks
    exactly once, entry first. *)
let check_walk (cfg : Cfg.t) (order : Layout.order) : (unit, error) result =
  let n = Cfg.n_blocks cfg in
  if Array.length order <> n then
    Error
      (Not_permutation
         (Printf.sprintf "%d position(s) for %d block(s)" (Array.length order)
            n))
  else begin
    let seen = Array.make n false in
    let dup = ref None in
    Array.iter
      (fun l ->
        if l < 0 || l >= n then
          (if !dup = None then
             dup := Some (Printf.sprintf "label %d out of range" l))
        else if seen.(l) then (
          if !dup = None then
            dup := Some (Printf.sprintf "label %d placed twice" l))
        else seen.(l) <- true)
      order;
    match !dup with
    | Some m -> Error (Not_permutation m)
    | None ->
        if order.(0) <> cfg.Cfg.entry then
          Error (Entry_not_first { entry = cfg.Cfg.entry; first = order.(0) })
        else Ok ()
  end

(** Control penalty of the layout recomputed from scratch: the sum of
    {!Ba_machine.Model.edge_cost} over consecutive layout positions (the
    walk's edges), last block falling off the end. *)
let recompute_cost (m : Model.t) (cfg : Cfg.t) ~(profile : Profile.proc)
    ~(order : Layout.order) : int =
  let n = Cfg.n_blocks cfg in
  let predicted = Profile.predictions profile ~n_blocks:n in
  let total = ref 0 in
  Array.iteri
    (fun i l ->
      let succ = if i + 1 < n then Some order.(i + 1) else None in
      total :=
        !total
        + Model.edge_cost m (Cfg.block cfg l).Block.term ~succ
            ~predicted:predicted.(l)
            ~freqs:(Profile.block_freqs profile l))
    order;
  !total

(** Rebuild the reduction's DTSP instance directly from the cost model
    (cities 0..n−1 = blocks, city n = dummy; dummy → entry free, other
    dummy edges prohibitive).  Mirrors the paper's construction without
    calling into [Ba_align]. *)
let dtsp_of (m : Model.t) (cfg : Cfg.t) ~(profile : Profile.proc) :
    Dtsp.t * int =
  let n = Cfg.n_blocks cfg in
  let dummy = n in
  let predicted = Profile.predictions profile ~n_blocks:n in
  let block_cost i succ =
    Model.edge_cost m (Cfg.block cfg i).Block.term ~succ
      ~predicted:predicted.(i)
      ~freqs:(Profile.block_freqs profile i)
  in
  let worst = ref 1 in
  for i = 0 to n - 1 do
    let w = ref (block_cost i None) in
    for j = 0 to n - 1 do
      if j <> i then w := max !w (block_cost i (Some j))
    done;
    worst := !worst + !w
  done;
  let forbid = !worst in
  let cost =
    Array.init (n + 1) (fun i ->
        Array.init (n + 1) (fun j ->
            if i = j then 0
            else if i = dummy then if j = cfg.Cfg.entry then 0 else forbid
            else if j = dummy then block_cost i None
            else block_cost i (Some j)))
  in
  (Dtsp.make cost, dummy)

(** The same logical instance as {!dtsp_of}, built sparsely in O(n + E)
    instead of O(n²).  Sound because {!Ba_machine.Model.edge_cost}
    scores a layout successor that is not a CFG successor exactly like
    falling off the end ([succ = None]) under both objectives, so a
    block's row deviates from [block_cost i None] only at its own
    distinct CFG successors (and the free diagonal). *)
let dtsp_of_sparse (m : Model.t) (cfg : Cfg.t) ~(profile : Profile.proc) :
    Dtsp.t * int =
  let n = Cfg.n_blocks cfg in
  let dummy = n in
  let predicted = Profile.predictions profile ~n_blocks:n in
  let block_cost i succ =
    Model.edge_cost m (Cfg.block cfg i).Block.term ~succ
      ~predicted:predicted.(i)
      ~freqs:(Profile.block_freqs profile i)
  in
  let defaults = Array.init n (fun i -> block_cost i None) in
  let succs =
    Array.init n (fun i ->
        match (Cfg.block cfg i).Block.term with
        | Block.Exit | Block.Multiway _ ->
            (* successor-independent terminators: every column equals
               the row default, so there are no deviations to emit — and
               a wide jump table stays O(arms), not O(arms²) *)
            []
        | Block.Goto _ | Block.Branch _ ->
            List.filter (fun j -> j <> i)
              (Block.distinct_successors (Cfg.block cfg i)))
  in
  (* the dense scan's worst-row sum: non-successor columns all equal the
     row default, so the maximum needs only the explicit successors *)
  let worst = ref 1 in
  for i = 0 to n - 1 do
    let w = ref defaults.(i) in
    List.iter (fun j -> w := max !w (block_cost i (Some j))) succs.(i);
    worst := !worst + !w
  done;
  let forbid = !worst in
  let default =
    Array.init (n + 1) (fun i -> if i = dummy then forbid else defaults.(i))
  in
  let rows =
    Array.init (n + 1) (fun i ->
        if i = dummy then [ (cfg.Cfg.entry, 0); (dummy, 0) ]
        else
          (* diagonal is 0 in the dense build; the dummy column equals
             the row default and is dropped by [of_rows] *)
          List.sort compare
            ((i, 0)
            :: List.map (fun j -> (j, block_cost i (Some j))) succs.(i)))
  in
  (Dtsp.of_rows ~n:(n + 1) ~default rows, dummy)

(** Locked-pair integrity of an arbitrary symmetric tour: every in/out
    city pair must be adjacent; on success the directed tour is
    recovered and returned. *)
let check_sym (sym : Sym.t) (stour : int array) : (int array, error) result =
  if not (Sym.check_alternating sym stour) then begin
    (* name the first city whose pair was separated *)
    let nn = Array.length stour in
    let pos = Array.make sym.Sym.nn (-1) in
    Array.iteri (fun i c -> if c >= 0 && c < sym.Sym.nn then pos.(c) <- i) stour;
    let broken = ref 0 in
    (try
       for c = 0 to sym.Sym.n_cities - 1 do
         let pi = pos.(Sym.in_city c) and po = pos.(Sym.out_city c) in
         let adjacent =
           pi >= 0 && po >= 0
           && (abs (pi - po) = 1 || abs (pi - po) = nn - 1)
         in
         if not adjacent then begin
           broken := c;
           raise Exit
         end
       done
     with Exit -> ());
    Error (Locked_pair_broken { city = !broken })
  end
  else
    match Sym.extract sym stour with
    | tour -> Ok tour
    | exception Invalid_argument _ -> Error (Locked_pair_broken { city = -1 })

(* ------------------------------------------------------------------ *)
(* certification                                                       *)

(** Certify one procedure's layout.  [claimed] is the solver-reported
    cost to cross-check; [hk] selects the lower-bound source;
    [sym_check] (default on) exercises the DTSP → STSP round-trip. *)
let proc_cert ?claimed ?(hk = Skip) ?(sym_check = true) ~proc
    (m : Model.t) (cfg : Cfg.t) ~(profile : Profile.proc)
    ~(order : Layout.order) : (proc_cert, error) result =
  Metrics.incr Metrics.Certs_checked;
  let fail e =
    Metrics.incr Metrics.Certs_failed;
    Error e
  in
  let n = Cfg.n_blocks cfg in
  if Array.length profile.Profile.freqs <> n then
    fail
      (Unfaithful
         (Printf.sprintf "profile has %d row(s) for %d block(s)"
            (Array.length profile.Profile.freqs)
            n))
  else
    match check_walk cfg order with
    | Error e -> fail e
    | Ok () -> (
        let cost = recompute_cost m cfg ~profile ~order in
        (* semantic faithfulness, re-realized here *)
        let predicted = Profile.predictions profile ~n_blocks:n in
        let realized =
          Cost.realize m.Model.penalties cfg ~order ~predicted
            ~freqs:(Profile.block_freqs profile)
        in
        match Layout.check_semantics cfg realized with
        | Error m -> fail (Unfaithful m)
        | Ok () -> (
            match claimed with
            | Some c when c <> cost ->
                fail (Cost_mismatch { claimed = c; recomputed = cost })
            | _ -> (
                let dtsp = lazy (dtsp_of_sparse m cfg ~profile) in
                let sym_result =
                  if not sym_check then Ok false
                  else begin
                    let d, dummy = Lazy.force dtsp in
                    let tour = Array.append [| dummy |] order in
                    let dcost = Dtsp.tour_cost d tour in
                    if dcost <> cost then
                      Error
                        (Cost_mismatch { claimed = dcost; recomputed = cost })
                    else begin
                      let sym = Sym.of_dtsp d in
                      let stour = Sym.expand sym tour in
                      match check_sym sym stour with
                      | Error e -> Error e
                      | Ok back ->
                          let scost =
                            Sym.tour_cost sym stour + sym.Sym.offset
                          in
                          if scost <> dcost then
                            Error
                              (Cost_mismatch
                                 { claimed = scost; recomputed = dcost })
                          else if Dtsp.tour_cost d back <> dcost then
                            Error
                              (Cost_mismatch
                                 {
                                   claimed = Dtsp.tour_cost d back;
                                   recomputed = dcost;
                                 })
                          else Ok true
                    end
                  end
                in
                match sym_result with
                | Error e -> fail e
                | Ok sym_checked -> (
                    let hk_bound =
                      match hk with
                      | Skip -> Ok None
                      | Given b -> Ok (Some b)
                      | Compute config -> (
                          let d, _ = Lazy.force dtsp in
                          (* an instance beyond the float-exact range
                             has no trustworthy bound: a failure, never
                             a number *)
                          match
                            Held_karp.directed_bound ~config d
                              ~upper_bound:cost
                          with
                          | b -> Ok (Some b)
                          | exception Invalid_argument m ->
                              Error (Bound_unavailable m))
                    in
                    match hk_bound with
                    | Error e -> fail e
                    | Ok (Some b) when b > cost ->
                        fail (Bound_exceeds_cost { bound = b; cost })
                    | Ok hk_bound ->
                        Ok
                          {
                            proc;
                            name = cfg.Cfg.name;
                            n_blocks = n;
                            cost;
                            claimed;
                            hk_bound;
                            sym_checked;
                          }))))

(** Certify a whole aligned program, procedure by procedure in index
    order; the first failing procedure is reported.  [hk i] supplies
    procedure [i]'s bound source. *)
let program ?(hk = fun _ -> Skip) (m : Model.t) (cfgs : Cfg.t array)
    ~(train : Profile.t) ~(orders : Layout.order array) : (t, failure) result
    =
  let n = Array.length cfgs in
  if Array.length orders <> n || Array.length train.Profile.procs <> n then
    Error
      {
        fproc = -1;
        fname = "<program>";
        error =
          Unfaithful
            (Printf.sprintf
               "shape mismatch: %d cfg(s), %d order(s), %d profile proc(s)" n
               (Array.length orders)
               (Array.length train.Profile.procs));
      }
  else begin
    let rec go i acc total =
      if i = n then Ok { procs = List.rev acc; total_cost = total }
      else
        match
          proc_cert ~hk:(hk i) ~proc:i m cfgs.(i)
            ~profile:train.Profile.procs.(i) ~order:orders.(i)
        with
        | Error error ->
            Error { fproc = i; fname = cfgs.(i).Cfg.name; error }
        | Ok cert -> go (i + 1) (cert :: acc) (total + cert.cost)
    in
    go 0 [] 0
  end

(* ------------------------------------------------------------------ *)
(* rendering                                                           *)


let proc_cert_json (c : proc_cert) : Json.t =
  let opt k f v tl = match v with None -> tl | Some x -> (k, f x) :: tl in
  Json.Obj
    (("proc", Json.Int c.proc)
    :: ("name", Json.String c.name)
    :: ("n_blocks", Json.Int c.n_blocks)
    :: ("cost", Json.Int c.cost)
    :: opt "claimed"
         (fun v -> Json.Int v)
         c.claimed
         (opt "hk_bound"
            (fun v -> Json.Int v)
            c.hk_bound
            [ ("sym_checked", Json.Bool c.sym_checked) ]))

(** Machine-readable certificate emitted by [balign align --certify]
    (schema ["balign-cert-1"], see docs/ANALYSIS.md). *)
let to_json (t : t) : Json.t =
  Json.Obj
    [
      ("schema", Json.String "balign-cert-1");
      ("total_cost", Json.Int t.total_cost);
      ("procs", Json.List (List.map proc_cert_json t.procs));
    ]

let pp_proc_cert ppf (c : proc_cert) =
  Fmt.pf ppf "proc %d (%s): cost %d%a%a%s" c.proc c.name c.cost
    Fmt.(option (fun ppf b -> Fmt.pf ppf ", bound %d" b))
    c.hk_bound
    Fmt.(option (fun ppf v -> Fmt.pf ppf ", claimed %d" v))
    c.claimed
    (if c.sym_checked then "" else " (sym skipped)")
