(** Two-level doubly-linked tour (the classic LKH / Or-tools
    structure; see DESIGN.md §6).

    The tour is cut into ~√n {e segments}, each holding a contiguous
    run of cities with an {e orientation bit} ([rev]): a reversed
    segment serves its cities back to front without touching them.  A
    segment-order array lists the segments along the tour, and every
    city keeps a (segment, physical index) handle, so [pos], [succ] and
    [pred] are O(1).  A cyclic range reversal splits at the two range
    boundaries (O(√n) copying), then reverses the {e run of segments}
    between them — reversing the slice of the order array and toggling
    each orientation bit — without touching a single city, so a 2-opt
    or 3-opt move costs O(√n) instead of the flat representation's
    O(n).

    {b Exact position semantics.}  Unlike the textbook structure, this
    one preserves {e absolute} tour positions: [pos t c] after any
    sequence of [reverse] calls equals the position the flat
    [tour]/[pos] arrays of {!Tour_repr} would report after the same
    calls.  3-Opt's first-improvement scan makes its decisions from
    positions, so preserving them exactly is what makes the two
    representations move-for-move identical (the acceptance bar of the
    differential suite).  Positions are virtualized through a global
    rotation offset [rot] (absolute = internal + [rot] mod n): a range
    that wraps the internal origin is made linear by {e re-rotating}
    the segment order (O(√n)), never by moving cities.

    {b Rebalancing.}  Splits grow the segment count; when it exceeds
    [max_segs] (≈ 2√n) the structure is rebuilt into ~√n equal
    segments — O(n), but amortized O(√n) per move because at most
    three splits happen per reversal.  Rebuilds are counted
    ([rebalances]) and traced as a [two_level.rebalance] span when the
    state was created with an enabled span buffer. *)

type seg = {
  mutable cities : int array;  (** physical storage, exactly [len] wide *)
  mutable len : int;
  mutable rev : bool;  (** serve [cities] back to front *)
  mutable start : int;  (** internal position of the logical first city *)
  mutable idx : int;  (** index in the order array *)
}

type t = {
  n : int;
  order : seg array;  (** [order.(0 .. nsegs-1)], by internal start *)
  mutable nsegs : int;
  mutable rot : int;  (** absolute position = (internal + rot) mod n *)
  seg_of : seg array;  (** city → its segment *)
  pidx : int array;  (** city → physical index in its segment *)
  group : int;  (** target segment length (≈ √n) *)
  max_segs : int;  (** rebuild once [nsegs] exceeds this *)
  mutable splits : int;
  mutable rebalances : int;
  spans : Ba_obs.Span.buf;
}

let n t = t.n
let segments t = t.nsegs
let splits t = t.splits
let rebalances t = t.rebalances

(* ------------------------------------------------------------------ *)
(* construction                                                        *)

(** Fill the structure from [tour] (position → city), resetting the
    rotation; O(n). *)
let rebuild t (tour : int array) =
  let n = t.n in
  let nsegs = (n + t.group - 1) / t.group in
  t.nsegs <- nsegs;
  t.rot <- 0;
  for k = 0 to nsegs - 1 do
    let lo = k * t.group in
    let hi = min n (lo + t.group) in
    let s =
      { cities = Array.sub tour lo (hi - lo); len = hi - lo; rev = false;
        start = lo; idx = k }
    in
    t.order.(k) <- s;
    for p = 0 to s.len - 1 do
      let c = s.cities.(p) in
      t.seg_of.(c) <- s;
      t.pidx.(c) <- p
    done
  done

(** [create ?spans ~tour n] builds a balanced two-level tour over the
    [n]-city tour (copied).  [spans] (default disabled) receives one
    [two_level.rebalance] span per rebuild. *)
let create ?(spans = Ba_obs.Span.null) ~tour n =
  if Array.length tour <> n then invalid_arg "Two_level.create: wrong size";
  let group = max 1 (int_of_float (ceil (sqrt (float_of_int n)))) in
  let base = (n + group - 1) / group in
  let max_segs = (2 * base) + 8 in
  let dummy = { cities = [||]; len = 0; rev = false; start = 0; idx = 0 } in
  let t =
    {
      n;
      order = Array.make (max_segs + 4) dummy;
      nsegs = 0;
      rot = 0;
      seg_of = Array.make n dummy;
      pidx = Array.make n 0;
      group;
      max_segs;
      splits = 0;
      rebalances = 0;
      spans;
    }
  in
  rebuild t tour;
  t

(* ------------------------------------------------------------------ *)
(* O(1) queries                                                        *)

let pos t c =
  let s = t.seg_of.(c) in
  let off = if s.rev then s.len - 1 - t.pidx.(c) else t.pidx.(c) in
  let p = s.start + off + t.rot in
  if p >= t.n then p - t.n else p

(* logical first/last city of a segment *)
let seg_first s = if s.rev then s.cities.(s.len - 1) else s.cities.(0)
let seg_last s = if s.rev then s.cities.(0) else s.cities.(s.len - 1)

(* neighbors in the order array, cyclically ([idx] is in [0, nsegs)) *)
let next_seg t (s : seg) =
  let k = s.idx + 1 in
  t.order.(if k = t.nsegs then 0 else k)

let prev_seg t (s : seg) =
  let k = s.idx - 1 in
  t.order.(if k < 0 then t.nsegs - 1 else k)

let succ t c =
  let s = t.seg_of.(c) in
  let p = t.pidx.(c) in
  if s.rev then
    if p > 0 then s.cities.(p - 1) else seg_first (next_seg t s)
  else if p + 1 < s.len then s.cities.(p + 1)
  else seg_first (next_seg t s)

let pred t c =
  let s = t.seg_of.(c) in
  let p = t.pidx.(c) in
  if s.rev then
    if p + 1 < s.len then s.cities.(p + 1) else seg_last (prev_seg t s)
  else if p > 0 then s.cities.(p - 1)
  else seg_last (prev_seg t s)

(* largest k with order.(k).start <= internal position p *)
let find_seg t p =
  let lo = ref 0 and hi = ref (t.nsegs - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if t.order.(mid).start <= p then lo := mid else hi := mid - 1
  done;
  !lo

let city_at t p =
  let p = p - t.rot in
  let p = if p < 0 then p + t.n else p in
  let s = t.order.(find_seg t p) in
  let off = p - s.start in
  s.cities.(if s.rev then s.len - 1 - off else off)

let to_array t =
  let out = Array.make t.n 0 in
  for k = 0 to t.nsegs - 1 do
    let s = t.order.(k) in
    let base = s.start + t.rot in
    for off = 0 to s.len - 1 do
      let p = base + off in
      let p = if p >= t.n then p - t.n else p in
      out.(p) <- s.cities.(if s.rev then s.len - 1 - off else off)
    done
  done;
  out

(* ------------------------------------------------------------------ *)
(* segment surgery                                                     *)

(** Cut a physical sub-run of [s] out into a fresh segment sharing
    [s]'s orientation; handles of the copied cities are repointed. *)
let carve t (s : seg) ~phys_lo ~phys_len =
  let cities = Array.sub s.cities phys_lo phys_len in
  let piece = { cities; len = phys_len; rev = s.rev; start = 0; idx = 0 } in
  for p = 0 to phys_len - 1 do
    let c = cities.(p) in
    t.seg_of.(c) <- piece;
    t.pidx.(c) <- p
  done;
  piece

(** Ensure a segment boundary at internal position [p] (0 ≤ p ≤ n):
    the segment containing [p] is split so [p] starts a segment.
    No-op when [p] already sits on a boundary (including 0 and n). *)
let split_at t p =
  if p > 0 && p < t.n then begin
    let k = find_seg t p in
    let s = t.order.(k) in
    let q = p - s.start in
    if q > 0 then begin
      (* logical halves [0..q-1] and [q..len-1]; physically the first
         half is the tail of a reversed segment, the head otherwise *)
      let first, second =
        if s.rev then
          (carve t s ~phys_lo:(s.len - q) ~phys_len:q,
           carve t s ~phys_lo:0 ~phys_len:(s.len - q))
        else
          (carve t s ~phys_lo:0 ~phys_len:q,
           carve t s ~phys_lo:q ~phys_len:(s.len - q))
      in
      first.start <- s.start;
      second.start <- p;
      for i = t.nsegs downto k + 2 do
        let m = t.order.(i - 1) in
        m.idx <- i;
        t.order.(i) <- m
      done;
      first.idx <- k;
      second.idx <- k + 1;
      t.order.(k) <- first;
      t.order.(k + 1) <- second;
      t.nsegs <- t.nsegs + 1;
      t.splits <- t.splits + 1
    end
  end

(** Re-rotate so internal position [p] becomes internal 0 (absolute
    positions are unchanged: [rot] absorbs the shift).  O(√n). *)
let rotate_to t p =
  if p > 0 && p < t.n then begin
    split_at t p;
    let k = find_seg t p in
    let tmp = Array.sub t.order 0 t.nsegs in
    let at = ref 0 in
    for i = k to t.nsegs - 1 do
      t.order.(!at) <- tmp.(i);
      incr at
    done;
    for i = 0 to k - 1 do
      t.order.(!at) <- tmp.(i);
      incr at
    done;
    let start = ref 0 in
    for i = 0 to t.nsegs - 1 do
      let s = t.order.(i) in
      s.idx <- i;
      s.start <- !start;
      start := !start + s.len
    done;
    t.rot <- (t.rot + p) mod t.n
  end

let rebalance t =
  Ba_obs.Span.with_span t.spans "two_level.rebalance" (fun () ->
      let tour = to_array t in
      rebuild t tour;
      t.rebalances <- t.rebalances + 1)

(** [reverse t l r] reverses the cyclic {e absolute} position range
    [l..r] (inclusive), exactly like the flat representation's
    [reverse_seg]; O(√n) amortized. *)
let reverse t l r =
  let n = t.n in
  let len = ((r - l + n) mod n) + 1 in
  if len > 1 then
    if len = n then begin
      (* degenerate whole-tour reversal (never issued by the solver):
         realize it directly and rebuild *)
      let a = to_array t in
      let out = Array.make n 0 in
      for off = 0 to n - 1 do
        out.((l + off) mod n) <- a.((((r - off) mod n) + n) mod n)
      done;
      rebuild t out
    end
    else begin
      let li = ((l - t.rot) mod n + n) mod n in
      let ri = ((r - t.rot) mod n + n) mod n in
      if li > ri then rotate_to t li;
      let li = ((l - t.rot) mod n + n) mod n in
      let ri = ((r - t.rot) mod n + n) mod n in
      split_at t li;
      split_at t (ri + 1);
      let k1 = find_seg t li and k2 = find_seg t ri in
      (* reverse the segment run: flip the slice of the order array and
         toggle orientation bits; no city moves *)
      let a = ref k1 and b = ref k2 in
      while !a < !b do
        let sa = t.order.(!a) and sb = t.order.(!b) in
        t.order.(!a) <- sb;
        t.order.(!b) <- sa;
        incr a;
        decr b
      done;
      let start = ref li in
      for i = k1 to k2 do
        let s = t.order.(i) in
        s.rev <- not s.rev;
        s.idx <- i;
        s.start <- !start;
        start := !start + s.len
      done;
      if t.nsegs > t.max_segs then rebalance t
    end

(** [shift t k] moves every city [k] positions back along the tour
    (the city at position [p] ends at [p − k] mod n): the cycle is
    unchanged, only the rotation offset moves; O(1). *)
let shift t k =
  let r = (t.rot - k) mod t.n in
  t.rot <- (if r < 0 then r + t.n else r)

(** Replace the tour wholesale (rebuilds; O(n)). *)
let set_tour t tour =
  if Array.length tour <> t.n then invalid_arg "Two_level.set_tour: wrong size";
  rebuild t tour
