(** Edge-frequency profiles.  The interface documentation (what profiles
    record and what they drive) lives in [profile.mli]; this file only
    documents implementation details. *)

open Ba_cfg

(** Per-procedure profile: [freqs.(src)] lists [(dst, count)] pairs sorted
    by destination label, with positive counts only. *)
type proc = { freqs : (Block.label * int) array array }

(** Whole-program profile, indexed by procedure id.  [calls] records the
    dynamic call graph: [(caller, callee, count)] triples with positive
    counts, sorted; calls from outside the program (the initial [main]
    invocation) are not included. *)
type t = { procs : proc array; calls : (int * int * int) list }

(** Counts whose product with a per-transfer penalty (tens of cycles)
    approaches [max_int] make the analytic cost model overflow: the
    limit sits a factor of 2^16 below it. *)
let overflow_guard = max_int / 65536

let n_procs t = Array.length t.procs

(** [proc t fid] is the profile of procedure [fid]. *)
let proc t fid = t.procs.(fid)

(** [block_freqs p l] is the per-destination transfer counts of block
    [l] (empty if the block never transferred control). *)
let block_freqs (p : proc) l = p.freqs.(l)

(** [freq p ~src ~dst] is the recorded count of transfers [src → dst]. *)
let freq (p : proc) ~src ~dst =
  Array.fold_left
    (fun acc (d, n) -> if d = dst then acc + n else acc)
    0 p.freqs.(src)

(** [out_count p l] is the total number of transfers out of block [l]. *)
let out_count (p : proc) l =
  Array.fold_left (fun acc (_, n) -> acc + n) 0 p.freqs.(l)

(** [predicted p l] is the statically predicted successor of block [l]:
    the most frequently taken CFG successor during training, ties broken
    towards the smaller label; [None] if the block never transferred
    control. *)
let predicted (p : proc) l =
  let best = ref None in
  Array.iter
    (fun (d, n) ->
      match !best with
      | Some (_, bn) when bn >= n -> ()
      | _ -> best := Some (d, n))
    p.freqs.(l);
  Option.map fst !best

(** [predictions p ~n_blocks] tabulates {!predicted} for all blocks. *)
let predictions (p : proc) ~n_blocks =
  Array.init n_blocks (fun l -> predicted p l)

(** [total_transfers p] sums transfer counts over all blocks. *)
let total_transfers (p : proc) =
  Array.fold_left
    (fun acc row -> Array.fold_left (fun a (_, n) -> a + n) acc row)
    0 p.freqs

(** Program-wide total transfer count. *)
let program_transfers t =
  Array.fold_left (fun acc p -> acc + total_transfers p) 0 t.procs

(** [call_freq t ~caller ~callee] is the recorded dynamic call count. *)
let call_freq t ~caller ~callee =
  List.fold_left
    (fun acc (c, e, n) -> if c = caller && e = callee then acc + n else acc)
    0 t.calls

(** [total_calls t] is the number of recorded intra-program calls. *)
let total_calls t = List.fold_left (fun acc (_, _, n) -> acc + n) 0 t.calls

(** [branch_sites_touched g p] counts static CTI blocks of [g] that
    executed (transferred control) at least once under [p] — the paper's
    Table 1 "Branch Sites Touched" statistic for one procedure. *)
let branch_sites_touched (g : Cfg.t) (p : proc) =
  let n = ref 0 in
  Cfg.iter
    (fun b ->
      if Block.is_cti b && Array.length p.freqs.(b.Block.id) > 0 then incr n)
    g;
  !n

(** [executed_branches g p] counts dynamic transfers out of blocks ending
    in a CTI — the paper's Table 1 "Executed Branch Instructions"
    statistic for one procedure. *)
let executed_branches (g : Cfg.t) (p : proc) =
  let n = ref 0 in
  Cfg.iter
    (fun b ->
      if Block.is_cti b then
        Array.iter (fun (_, c) -> n := !n + c) p.freqs.(b.Block.id))
    g;
  !n

(** [scale k p] multiplies every count by [k] (used by tests and by
    profile mixing).  @raise Invalid_argument if [k < 0]. *)
let scale k (p : proc) =
  if k < 0 then invalid_arg "Profile.scale: negative factor";
  { freqs = Array.map (Array.map (fun (d, n) -> (d, n * k))) p.freqs }

(** [of_freqs rows] builds a per-procedure profile from one raw
    [(dst, count)] row per block, re-establishing the row invariant
    instead of trusting the caller: duplicate destinations are summed,
    non-positive counts dropped, and each row is sorted by destination
    label. *)
let of_freqs (rows : (Block.label * int) array array) =
  let tbl = Hashtbl.create 16 in
  {
    freqs =
      Array.map
        (fun row ->
          Hashtbl.reset tbl;
          Array.iter
            (fun (d, n) ->
              Hashtbl.replace tbl d
                (n + Option.value ~default:0 (Hashtbl.find_opt tbl d)))
            row;
          Hashtbl.fold (fun d n acc -> if n > 0 then (d, n) :: acc else acc) tbl []
          |> List.sort compare |> Array.of_list)
        rows;
  }

(** [merge a b] sums two profiles of the same procedure shape.
    @raise Invalid_argument on shape mismatch. *)
let merge (a : proc) (b : proc) =
  if Array.length a.freqs <> Array.length b.freqs then
    invalid_arg "Profile.merge: different block counts";
  of_freqs
    (Array.init (Array.length a.freqs) (fun l ->
         Array.append a.freqs.(l) b.freqs.(l)))

(** [of_assoc ~n_blocks edges] builds a per-procedure profile from raw
    [(src, dst, count)] triples, summing duplicates and dropping zeros.
    Intended for tests and synthetic workloads. *)
let of_assoc ~n_blocks edges =
  let tbls = Array.init n_blocks (fun _ -> Hashtbl.create 4) in
  List.iter
    (fun (src, dst, n) ->
      if src < 0 || src >= n_blocks then invalid_arg "Profile.of_assoc: bad src";
      let t = tbls.(src) in
      Hashtbl.replace t dst (n + Option.value ~default:0 (Hashtbl.find_opt t dst)))
    edges;
  {
    freqs =
      Array.map
        (fun t ->
          Hashtbl.fold (fun d n acc -> if n > 0 then (d, n) :: acc else acc) t []
          |> List.sort compare |> Array.of_list)
        tbls;
  }

let pp_proc ppf (p : proc) =
  Array.iteri
    (fun src row ->
      if Array.length row > 0 then
        Fmt.pf ppf "@[<h>%d ->%a@]@."
          src
          Fmt.(array ~sep:nop (fun ppf (d, n) -> Fmt.pf ppf " %d:%d" d n))
          row)
    p.freqs
