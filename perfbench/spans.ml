(* Monotonic clock and the span recorder of traced runs.

   Every timer in the benchmark reads CLOCK_MONOTONIC through bechamel's
   stub.  In a traced run each call into a layer is wrapped in a span
   (name, start, end, parent, request id); spans stay in memory and are
   written out once the run ends.  With tracing off [with_] is a plain
   call, so untraced runs pay nothing for it. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let now () = float_of_int (now_ns ()) *. 1e-9

(** [f ()] and the seconds it took. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, float_of_int (now_ns () - t0) *. 1e-9)

type span = {
  name : string;
  start : int;
  mutable stop : int;
  parent : int;  (** index of the enclosing span, -1 at the root *)
  req : int;
}

let on = ref false
let request = ref 0
let buf = ref [||]
let count = ref 0
let stack = ref []

let push sp =
  if !count = Array.length !buf then begin
    let bigger = Array.make (max 1024 (2 * !count)) sp in
    Array.blit !buf 0 bigger 0 !count;
    buf := bigger
  end;
  !buf.(!count) <- sp;
  incr count

(** [with_ name f] runs [f ()] inside a span named [name]. *)
let with_ name f =
  if not !on then f ()
  else begin
    let i = !count in
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    push { name; start = now_ns (); stop = 0; parent; req = !request };
    stack := i :: !stack;
    let close () =
      !buf.(i).stop <- now_ns ();
      stack := List.tl !stack
    in
    match f () with
    | r ->
        close ();
        r
    | exception e ->
        close ();
        raise e
  end

(** Per layer, in nanoseconds: total span time (busy), the part of it no
    child span covers (self), and the number of calls. *)
type layer = { mutable busy : int; mutable self : int; mutable calls : int }

let layers () =
  let n = !count in
  let child = Array.make n 0 in
  for i = 0 to n - 1 do
    let s = !buf.(i) in
    if s.parent >= 0 then
      child.(s.parent) <- child.(s.parent) + (s.stop - s.start)
  done;
  let tbl = Hashtbl.create 32 in
  for i = 0 to n - 1 do
    let s = !buf.(i) in
    let l =
      match Hashtbl.find_opt tbl s.name with
      | Some l -> l
      | None ->
          let l = { busy = 0; self = 0; calls = 0 } in
          Hashtbl.add tbl s.name l;
          l
    in
    let d = s.stop - s.start in
    l.busy <- l.busy + d;
    l.self <- l.self + d - child.(i);
    l.calls <- l.calls + 1
  done;
  tbl

(** Write every span as CSV, times relative to the first span. *)
let write_csv path =
  let oc = open_out path in
  output_string oc "id,name,start_ns,end_ns,parent,request\n";
  let t0 = if !count > 0 then !buf.(0).start else 0 in
  for i = 0 to !count - 1 do
    let s = !buf.(i) in
    Printf.fprintf oc "%d,%s,%d,%d,%d,%d\n" i s.name (s.start - t0)
      (s.stop - t0) s.parent s.req
  done;
  close_out oc
