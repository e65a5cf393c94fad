(** Pluggable tour representation for the 3-Opt engine.

    Two implementations answer the same position-based contract:

    - [Array] — the historical flat pair of arrays ([tour] position →
      city, [pos] city → position).  Queries are O(1); a range
      reversal is O(range).  This is the identity anchor: every
      committed small-instance trajectory was produced by it.
    - [Two_level] — the √n-segment structure of {!Two_level}: queries
      O(1), reversals O(√n) amortized, which is what makes 10⁵–10⁶-city
      descents tractable (ROADMAP item 1).

    Both preserve {e exact absolute positions}, and the 3-Opt search
    bases every decision on positions, so the two representations are
    move-for-move identical — the differential property suite pins
    this.  [Auto] (the default everywhere) keeps [Array] for instances
    up to {!two_level_threshold} directed cities — covering every
    committed golden trajectory — and switches to [Two_level] above,
    where the flat reversal cost would dominate; because the
    trajectory is representation-independent the threshold is purely a
    performance choice (DESIGN.md §6).

    The four pure-3-opt reconnections are a composite operation
    ([reconnect]) rather than raw reversal sequences so each
    representation can realize them optimally.  The flat code writes
    the final segment arrangement directly through a scratch buffer
    sized by the {e shorter} segment — the same shorter-side length
    check the 2-opt path already had, fixing the latent O(n) triple
    reversal — and is byte-identical to the reversal sequences it
    replaces (the final window contents are determined by the
    reconnection type alone). *)

type kind = Auto | Array | Two_level

(** Largest directed-instance size (cities, dummy included) [Auto]
    still serves with the flat arrays. *)
let two_level_threshold = 8192

let kind_name = function
  | Auto -> "auto"
  | Array -> "array"
  | Two_level -> "two-level"

type flat = {
  ftour : int array;  (** position → city *)
  fpos : int array;  (** city → position *)
  mutable scratch : int array;  (** reconnection buffer, grown on demand *)
}

type t = F of flat | T of Two_level.t

(** [make kind ~n_cities tour] picks the representation ([n_cities] is
    the {e directed} city count gating [Auto]) and loads the tour
    (copied). *)
let make kind ~n_cities tour =
  let use_two_level =
    match kind with
    | Array -> false
    | Two_level -> true
    | Auto -> n_cities > two_level_threshold
  in
  if use_two_level then
    T (Two_level.create ~tour (Stdlib.Array.length tour))
  else begin
    let n = Stdlib.Array.length tour in
    let fpos = Stdlib.Array.make n (-1) in
    Stdlib.Array.iteri (fun i c -> fpos.(c) <- i) tour;
    F { ftour = Stdlib.Array.copy tour; fpos; scratch = [||] }
  end

let kind_of = function F _ -> Array | T _ -> Two_level

let n = function
  | F f -> Stdlib.Array.length f.ftour
  | T t -> Two_level.n t

let city_at r p = match r with F f -> f.ftour.(p) | T t -> Two_level.city_at t p
let pos r c = match r with F f -> f.fpos.(c) | T t -> Two_level.pos t c

let succ r c =
  match r with
  | F f ->
      let p = f.fpos.(c) + 1 in
      f.ftour.(if p = Stdlib.Array.length f.ftour then 0 else p)
  | T t -> Two_level.succ t c

let pred r c =
  match r with
  | F f ->
      let p = f.fpos.(c) - 1 in
      f.ftour.(if p < 0 then Stdlib.Array.length f.ftour - 1 else p)
  | T t -> Two_level.pred t c

let set_tour r tour =
  match r with
  | F f ->
      Stdlib.Array.blit tour 0 f.ftour 0 (Stdlib.Array.length f.ftour);
      Stdlib.Array.iteri (fun i c -> f.fpos.(c) <- i) f.ftour
  | T t -> Two_level.set_tour t tour

let to_array = function
  | F f -> Stdlib.Array.copy f.ftour
  | T t -> Two_level.to_array t

(* structure statistics: the flat arrays are one trivial segment *)
let segments = function F _ -> 1 | T t -> Two_level.segments t
let splits = function F _ -> 0 | T t -> Two_level.splits t
let rebalances = function F _ -> 0 | T t -> Two_level.rebalances t

(* ------------------------------------------------------------------ *)
(* flat kernels                                                        *)

(** Reverse the cyclic position segment [l..r] (inclusive). *)
let flat_reverse f l r =
  let n = Stdlib.Array.length f.ftour in
  let len = ((r - l + n) mod n) + 1 in
  let i = ref l and j = ref r in
  for _ = 1 to len / 2 do
    let ci = f.ftour.(!i) and cj = f.ftour.(!j) in
    f.ftour.(!i) <- cj;
    f.ftour.(!j) <- ci;
    f.fpos.(cj) <- !i;
    f.fpos.(ci) <- !j;
    i := (!i + 1) mod n;
    j := (!j - 1 + n) mod n
  done

let reverse r l r' =
  match r with F f -> flat_reverse f l r' | T t -> Two_level.reverse t l r'

type reconnection = T3 | T4 | T5 | T6

let flat_scratch f len =
  if Stdlib.Array.length f.scratch < len then
    f.scratch <- Stdlib.Array.make len 0;
  f.scratch

(** Apply a pure 3-opt reconnection with cuts after positions [pi],
    [pi+jj], [pi+kk] on the flat arrays.  With segment 1 = offsets
    [1..jj] and segment 2 = offsets [jj+1..kk] from [pi], the final
    window contents are T3 = [rev s1, rev s2], T4 = [s2, s1], T5 =
    [s2, rev s1], T6 = [rev s2, s1]; they are written directly,
    buffering only the shorter segment, instead of composing up to
    three O(window) reversals — byte-identical, up to ~3× fewer
    writes. *)
let flat_reconnect f ~pi ~jj ~kk ty =
  let n = Stdlib.Array.length f.ftour in
  let cell off = (pi + off) mod n in
  let get off = f.ftour.(cell off) in
  let set off c =
    let p = cell off in
    f.ftour.(p) <- c;
    f.fpos.(c) <- p
  in
  let l1 = jj and l2 = kk - jj in
  let p1 = (pi + 1) mod n in
  let pj = (pi + jj) mod n in
  let pj1 = (pj + 1) mod n in
  let pk = (pi + kk) mod n in
  match ty with
  | T3 ->
      (* both reversals are in place and minimal already *)
      flat_reverse f p1 pj;
      flat_reverse f pj1 pk
  | T4 ->
      if l1 <= l2 then begin
        let buf = flat_scratch f l1 in
        for u = 0 to l1 - 1 do
          buf.(u) <- get (1 + u)
        done;
        for u = 0 to l2 - 1 do
          set (1 + u) (get (jj + 1 + u))
        done;
        for u = 0 to l1 - 1 do
          set (l2 + 1 + u) buf.(u)
        done
      end
      else begin
        let buf = flat_scratch f l2 in
        for u = 0 to l2 - 1 do
          buf.(u) <- get (jj + 1 + u)
        done;
        for u = l1 - 1 downto 0 do
          set (l2 + 1 + u) (get (1 + u))
        done;
        for u = 0 to l2 - 1 do
          set (1 + u) buf.(u)
        done
      end
  | T5 ->
      if l1 <= l2 then begin
        let buf = flat_scratch f l1 in
        for u = 0 to l1 - 1 do
          buf.(u) <- get (1 + u)
        done;
        for u = 0 to l2 - 1 do
          set (1 + u) (get (jj + 1 + u))
        done;
        for u = 0 to l1 - 1 do
          set (l2 + 1 + u) buf.(l1 - 1 - u)
        done
      end
      else begin
        (* s2 shorter: the historical two-reversal path already moves
           only kk + l2 cells, which beats buffering s1 *)
        flat_reverse f pj1 pk;
        flat_reverse f p1 pk
      end
  | T6 ->
      if l2 < l1 then begin
        let buf = flat_scratch f l2 in
        for u = 0 to l2 - 1 do
          buf.(u) <- get (jj + 1 + u)
        done;
        for u = l1 - 1 downto 0 do
          set (l2 + 1 + u) (get (1 + u))
        done;
        for u = 0 to l2 - 1 do
          set (1 + u) buf.(l2 - 1 - u)
        done
      end
      else begin
        flat_reverse f p1 pj;
        flat_reverse f p1 pk
      end

(** [reconnect_reversals ~n ~pi ~jj ~kk ty f] calls [f l r] for each
    position-range reversal of the sequence that realizes the
    reconnection, in order. *)
let reconnect_reversals ~n ~pi ~jj ~kk ty f =
  let pj = (pi + jj) mod n and pk = (pi + kk) mod n in
  let p1 = (pi + 1) mod n and pj1 = (pj + 1) mod n in
  match ty with
  | T3 ->
      f p1 pj;
      f pj1 pk
  | T4 ->
      f p1 pj;
      f pj1 pk;
      f p1 pk
  | T5 ->
      f pj1 pk;
      f p1 pk
  | T6 ->
      f p1 pj;
      f p1 pk

(** Apply a pure 3-opt reconnection with cuts after positions [pi],
    [pi+jj], [pi+kk] (see DESIGN.md §6 for the segment algebra). *)
let reconnect r ~pi ~jj ~kk ty =
  match r with
  | F f -> flat_reconnect f ~pi ~jj ~kk ty
  | T t ->
      (* the reversal sequences act on positions alone, so replaying
         them reproduces the flat window contents exactly *)
      reconnect_reversals ~n:(Two_level.n t) ~pi ~jj ~kk ty
        (Two_level.reverse t)

(** [shift r k] moves every city [k] positions back along the tour
    (position [p] → [p − k] mod n) without changing the cycle: O(1) on
    the two-level structure (its rotation offset), an O(n) copy on the
    flat arrays, which only serve small instances. *)
let shift r k =
  match r with
  | F f ->
      let n = Stdlib.Array.length f.ftour in
      let k = ((k mod n) + n) mod n in
      if k <> 0 then begin
        let old = flat_scratch f n in
        Stdlib.Array.blit f.ftour 0 old 0 n;
        for p = 0 to n - 1 do
          let c = old.(if p + k >= n then p + k - n else p + k) in
          f.ftour.(p) <- c;
          f.fpos.(c) <- p
        done
      end
  | T t -> Two_level.shift t k
