(** Execution-trace events.

    The mini-language interpreter (and any other front end) reports
    execution as a stream of events; the profiler and the pipeline
    simulator consume the same stream.  Events are scoped per procedure
    {e invocation}: a [Block] event always refers to the procedure of the
    innermost open [Enter].  Intraprocedural control transfers are the
    consecutive [Block] events within one invocation; callee blocks in
    between do not break the caller's adjacency (returning into the middle
    of a block is not a layout transfer). *)

type event =
  | Enter of int  (** procedure [fid] is invoked *)
  | Block of int  (** block [bid] of the innermost open procedure executes *)
  | Leave  (** the innermost open procedure returns *)

(** A consumer of trace events. *)
type sink = event -> unit

(** [tee a b] duplicates a stream into two sinks. *)
let tee (a : sink) (b : sink) : sink =
 fun e ->
  a e;
  b e

(** The null sink. *)
let null : sink = fun _ -> ()

(** [count_blocks ()] is a sink counting [Block] events plus an accessor. *)
let count_blocks () =
  let n = ref 0 in
  let sink = function Block _ -> incr n | _ -> () in
  (sink, fun () -> !n)

(** [invocation_walker ~on_block ()] builds a sink that maintains the
    invocation stack and reports every block execution together with the
    previous block of the {e same invocation} ([prev = None] for the first
    block after [Enter]).  This is the canonical way to recover
    intraprocedural control transfers from a trace; the profiler, the
    pipeline simulator and the cycle model are all built on it.

    The walker allocates nothing per event.  The innermost invocation's
    procedure and last block ([no_block] until its first block) sit in
    two int cells; [Enter] saves the caller's pair into two int arrays,
    doubled when a call goes deeper than ever before, and [Leave]
    restores it.  [prev] and [caller] are taken from one shared table of
    [Some i] values, grown when a larger id first appears.

    @raise Invalid_argument on malformed streams ([Block]/[Leave] with no
    open invocation). *)
let invocation_walker ?(on_enter = fun _ -> ()) ?(on_leave = fun _ -> ())
    ?(on_call = fun ~caller:_ ~callee:_ -> ())
    ~(on_block : fid:int -> bid:int -> prev:int option -> unit) () : sink =
  let no_block = min_int in
  let depth = ref 0 and fid = ref 0 and last = ref no_block in
  let fids = ref (Array.make 16 0) and lasts = ref (Array.make 16 no_block) in
  let somes = ref (Array.init 64 Option.some) in
  (* the shared [Some i]; a negative id, which no front end emits, is
     boxed afresh *)
  let some i =
    let s = !somes in
    if i >= 0 && i < Array.length s then Array.unsafe_get s i
    else if i < 0 then Some i
    else begin
      somes :=
        Array.init (max (i + 1) (2 * Array.length s)) (fun j ->
            if j < Array.length s then s.(j) else Some j);
      Array.unsafe_get !somes i
    end
  in
  let grow a fill =
    let n = Array.length a in
    Array.init (2 * n) (fun i -> if i < n then a.(i) else fill)
  in
  fun e ->
    match e with
    | Enter f ->
        let d = !depth in
        if d > 0 then begin
          on_call ~caller:(some !fid) ~callee:f;
          if d > Array.length !fids then begin
            fids := grow !fids 0;
            lasts := grow !lasts no_block
          end;
          !fids.(d - 1) <- !fid;
          !lasts.(d - 1) <- !last
        end
        else on_call ~caller:None ~callee:f;
        fid := f;
        last := no_block;
        depth := d + 1;
        on_enter f
    | Block b ->
        if !depth = 0 then invalid_arg "Trace: Block event outside any procedure";
        let l = !last in
        on_block ~fid:!fid ~bid:b ~prev:(if l = no_block then None else some l);
        last := b
    | Leave ->
        let d = !depth - 1 in
        if d < 0 then invalid_arg "Trace: Leave event without matching Enter";
        let f = !fid in
        if d > 0 then begin
          fid := !fids.(d - 1);
          last := !lasts.(d - 1)
        end;
        depth := d;
        on_leave f

let pp ppf = function
  | Enter f -> Fmt.pf ppf "enter %d" f
  | Block b -> Fmt.pf ppf "block %d" b
  | Leave -> Fmt.string ppf "leave"
