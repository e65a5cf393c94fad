(** Online profiler: folds a trace-event stream into a {!Profile.t}.

    This is the stand-in for the paper's HALT instrumentation: it observes
    the same information (every intraprocedural control transfer) without
    storing the trace.

    Counting allocates nothing per transfer.  [rows.(fid).(src)] holds the
    successors seen so far out of block [src] as [dst; count] pairs, found
    by linear probe and ended by [-1] (a block has at most two successors
    except at a [switch]); a row is doubled when a new successor finds it
    full.  Calls count in a dense [n_procs × n_procs] matrix. *)

open Ba_cfg

type t = {
  rows : int array array array;
      (** [rows.(fid).(src)]: [dst; count] pairs, unused slots [-1] *)
  calls : int array;  (** [calls.(caller * n_procs + callee)] *)
  n_procs : int;
  sink : Trace.sink;
}

(** [bump row dst k] adds one to the count of [dst] in [row], probing
    from pair offset [k] and claiming the first free pair for a new
    destination; returns the row to keep, a doubled copy when [row] was
    full.  Rows have even length, so [k + 1] is in range whenever [k]
    is. *)
let rec bump row dst k =
  let n = Array.length row in
  if k = n then begin
    let grown = Array.make (2 * n) (-1) in
    Array.blit row 0 grown 0 n;
    grown.(n) <- dst;
    grown.(n + 1) <- 1;
    grown
  end
  else
    let d = Array.unsafe_get row k in
    if d = dst then begin
      Array.unsafe_set row (k + 1) (Array.unsafe_get row (k + 1) + 1);
      row
    end
    else if d = -1 then begin
      Array.unsafe_set row k dst;
      Array.unsafe_set row (k + 1) 1;
      row
    end
    else bump row dst (k + 2)

(** [create ~n_blocks] starts a collector for a program whose procedure
    [fid] has [n_blocks.(fid)] basic blocks. *)
let create ~(n_blocks : int array) : t =
  let rows =
    Array.map (fun n -> Array.init n (fun _ -> Array.make 4 (-1))) n_blocks
  in
  let n_procs = Array.length n_blocks in
  let calls = Array.make (n_procs * n_procs) 0 in
  let sink =
    Trace.invocation_walker
      ~on_call:(fun ~caller ~callee ->
        match caller with
        | None -> ()
        | Some c ->
            if c < 0 || c >= n_procs || callee < 0 || callee >= n_procs then
              invalid_arg "Collect: call outside the program";
            let i = (c * n_procs) + callee in
            calls.(i) <- calls.(i) + 1)
      ~on_block:(fun ~fid ~bid ~prev ->
        match prev with
        | None -> ()
        | Some src ->
            if bid < 0 then invalid_arg "Collect: negative block id";
            let proc_rows = rows.(fid) in
            let row = proc_rows.(src) in
            let row' = bump row bid 0 in
            if row' != row then proc_rows.(src) <- row')
      ()
  in
  { rows; calls; n_procs; sink }

(** The event sink to feed the interpreter's trace into. *)
let sink t = t.sink

(** [freeze t] produces the immutable profile collected so far. *)
let freeze t : Profile.t =
  let freqs row =
    let pairs = ref [] in
    for k = (Array.length row / 2) - 1 downto 0 do
      if row.(2 * k) <> -1 then pairs := (row.(2 * k), row.((2 * k) + 1)) :: !pairs
    done;
    List.sort compare !pairs |> Array.of_list
  in
  let calls = ref [] in
  for i = Array.length t.calls - 1 downto 0 do
    let n = t.calls.(i) in
    if n > 0 then calls := (i / t.n_procs, i mod t.n_procs, n) :: !calls
  done;
  {
    Profile.procs =
      Array.map (fun rows -> { Profile.freqs = Array.map freqs rows }) t.rows;
    calls = !calls;
  }

(** [profile_of_run ~n_blocks run] profiles one execution: [run] is given
    a sink and must replay the program into it. *)
let profile_of_run ~n_blocks (run : Trace.sink -> unit) : Profile.t =
  let c = create ~n_blocks in
  run c.sink;
  freeze c
