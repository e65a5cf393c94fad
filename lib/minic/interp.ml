(** Interpreter for the minic IR, emitting trace events.

    This is simultaneously the "instrumented program" and the "hardware"
    of the reproduction: every executed basic block is reported to the
    trace sink, from which the profiler collects edge frequencies and the
    machine model simulates pipelines and caches.  Execution is
    deterministic given the program and input.

    [run] first translates every function into closures, one per
    expression, instruction and terminator, and then executes those: the
    IR is matched once per run instead of once per evaluated node.  The
    trace path allocates nothing per block: [Enter]/[Block] events are
    shared, one per procedure and label, and scalar positions evaluate to
    unboxed ints. *)

exception Runtime_error of string

let err fmt = Printf.ksprintf (fun m -> raise (Runtime_error m)) fmt

type value = Vint of int | Varr of int array

type state = {
  input : int array;
  mutable cursor : int;  (** next input index for [read()] *)
  mutable out : int list;  (** reversed output of [print] *)
  mutable blocks_executed : int;
  limit : int;  (** block-execution budget; guards runaway programs *)
  mutable depth : int;  (** current call depth *)
  max_depth : int;  (** recursion budget; fails fast on runaway recursion *)
  sink : Ba_cfg.Trace.sink;
  enter_events : Ba_cfg.Trace.event array;  (** [Enter fid], one per procedure *)
  block_events : Ba_cfg.Trace.event array;  (** [Block b], one per label *)
}

let as_int = function
  | Vint n -> n
  | Varr _ -> err "expected an integer, got an array"

let as_arr = function
  | Varr a -> a
  | Vint _ -> err "expected an array, got an integer"

let binop op ia ib =
  let bool_ c = if c then 1 else 0 in
  match (op : Ast.binop) with
  | Ast.Add -> ia + ib
  | Ast.Sub -> ia - ib
  | Ast.Mul -> ia * ib
  | Ast.Div -> if ib = 0 then err "division by zero" else ia / ib
  | Ast.Mod -> if ib = 0 then err "modulo by zero" else ia mod ib
  | Ast.Lt -> bool_ (ia < ib)
  | Ast.Le -> bool_ (ia <= ib)
  | Ast.Gt -> bool_ (ia > ib)
  | Ast.Ge -> bool_ (ia >= ib)
  | Ast.Eq -> bool_ (ia = ib)
  | Ast.Ne -> bool_ (ia <> ib)
  | Ast.And -> bool_ (ia <> 0 && ib <> 0)
  | Ast.Or -> bool_ (ia <> 0 || ib <> 0)
  | Ast.Band -> ia land ib
  | Ast.Bor -> ia lor ib
  | Ast.Bxor -> ia lxor ib
  | Ast.Shl ->
      if ib < 0 || ib > 62 then err "shift amount %d out of range" ib
      else ia lsl ib
  | Ast.Shr ->
      if ib < 0 || ib > 62 then err "shift amount %d out of range" ib
      else ia asr ib

let load a idx =
  if idx < 0 || idx >= Array.length a then
    err "array index %d out of bounds (length %d)" idx (Array.length a)
  else a.(idx)

let read st =
  if st.cursor >= Array.length st.input then -1
  else begin
    let v = st.input.(st.cursor) in
    st.cursor <- st.cursor + 1;
    v
  end

let enter st fid =
  st.depth <- st.depth + 1;
  if st.depth > st.max_depth then
    err "call depth limit (%d) exceeded" st.max_depth;
  st.sink st.enter_events.(fid)

(** [case_target cases v d k] is the target of the last case among
    [cases.(0..k)] whose value is [v], or the default [d]. *)
let rec case_target cases v d k =
  if k < 0 then d
  else
    let cv, t = Array.unsafe_get cases k in
    if cv = v then t else case_target cases v d (k - 1)

(* A function's body runs over its frame of local slots. *)
type frame = value array

type term =
  | T_goto of int
  | T_if of (frame -> int) * int * int
  | T_switch of (frame -> int) * (int * int) array * int
  | T_ret of (frame -> value) option

type block = { instrs : (frame -> unit) array; term : term }

(* The translated program: the IR functions and, per function, its body
   run on a filled frame. *)
type code = { funcs : Ir.func array; mutable bodies : (frame -> value) array }

(* Expressions translate two ways.  [value_code] gives a value and
   serves the positions whose result lands in a slot, an argument or a
   return.  [int_code] gives an unboxed int and serves every scalar
   position: conditions, indices, operands, printed and stored values,
   switch scrutinees and array lengths.  Both raise the same
   [Runtime_error] at the same point as evaluating to a value and then
   converting with [as_int]: a binary operator's left operand that may
   hold an array is type-checked only after its right operand has been
   evaluated.  A call reaches its callee through [code.bodies], set once
   every function is translated, so calls may be recursive. *)
let rec value_code st code (e : Ir.expr) : frame -> value =
  match e with
  | Ir.Const n ->
      let v = Vint n in
      fun _ -> v
  | Ir.Local s -> fun l -> l.(s)
  | Ir.Call (fid, args) -> call_code st code fid args
  | Ir.ArrayNew n ->
      let len = int_code st code n in
      fun l ->
        let len = len l in
        if len < 0 then err "array(%d): negative length" len
        else Varr (Array.make len 0)
  | Ir.Load _ | Ir.Unary _ | Ir.Binary _ | Ir.Read | Ir.ArrayLen _ ->
      let c = int_code st code e in
      fun l -> Vint (c l)

and int_code st code (e : Ir.expr) : frame -> int =
  match e with
  | Ir.Const n -> fun _ -> n
  | Ir.Local s -> fun l -> as_int l.(s)
  | Ir.Load (s, Ir.Local t) ->
      fun l ->
        let a = as_arr l.(s) in
        load a (as_int l.(t))
  | Ir.Load (s, i) ->
      let i = int_code st code i in
      fun l ->
        let a = as_arr l.(s) in
        load a (i l)
  | Ir.Unary (Ast.Neg, a) ->
      let a = int_code st code a in
      fun l -> -a l
  | Ir.Unary (Ast.Not, a) ->
      let a = int_code st code a in
      fun l -> if a l = 0 then 1 else 0
  | Ir.Binary (op, Ir.Local s, Ir.Const n) -> fun l -> binop op (as_int l.(s)) n
  | Ir.Binary (op, Ir.Local s, Ir.Local t) ->
      fun l ->
        let va = l.(s) in
        let ib = as_int l.(t) in
        binop op (as_int va) ib
  | Ir.Binary (op, ((Ir.Local _ | Ir.Call _ | Ir.ArrayNew _) as a), b) ->
      let a = value_code st code a and b = int_code st code b in
      fun l ->
        let va = a l in
        let ib = b l in
        binop op (as_int va) ib
  | Ir.Binary (op, a, b) ->
      let a = int_code st code a and b = int_code st code b in
      fun l ->
        let ia = a l in
        binop op ia (b l)
  | Ir.Call _ | Ir.ArrayNew _ ->
      let c = value_code st code e in
      fun l -> as_int (c l)
  | Ir.Read -> fun _ -> read st
  | Ir.ArrayLen s -> fun l -> Array.length (as_arr l.(s))

(* A call evaluates its arguments in the caller's frame straight into
   the callee's; a call that does not fit its callee takes [call], which
   raises as it always did. *)
and call_code st code fid args =
  let args = Array.map (value_code st code) args in
  let funcs = code.funcs and n = Array.length args in
  if
    fid < 0
    || fid >= Array.length funcs
    || n <> funcs.(fid).Ir.n_params
    || n > funcs.(fid).Ir.n_locals
  then fun l -> call st code fid (Array.map (fun a -> a l) args)
  else
    let n_slots = max 1 funcs.(fid).Ir.n_locals in
    fun l ->
      let frame = Array.make n_slots (Vint 0) in
      for i = 0 to n - 1 do
        frame.(i) <- args.(i) l
      done;
      enter st fid;
      code.bodies.(fid) frame

(** [call st code fid args] runs a call whose arguments are already
    values, checking them against the callee's arity. *)
and call st code fid (args : value array) : value =
  let f = code.funcs.(fid) in
  if Array.length args <> f.Ir.n_params then
    err "%s: arity mismatch" f.Ir.name;
  enter st fid;
  let frame = Array.make (max 1 f.Ir.n_locals) (Vint 0) in
  Array.blit args 0 frame 0 (Array.length args);
  code.bodies.(fid) frame

let instr_code st code : Ir.instr -> frame -> unit = function
  | Ir.Set (s, e) ->
      let e = value_code st code e in
      fun l -> l.(s) <- e l
  | Ir.Store (s, i, e) ->
      let i = int_code st code i and e = int_code st code e in
      fun l ->
        let a = as_arr l.(s) in
        let idx = i l in
        if idx < 0 || idx >= Array.length a then
          err "store index %d out of bounds (length %d)" idx (Array.length a)
        else a.(idx) <- e l
  | Ir.Print e ->
      let e = int_code st code e in
      fun l -> st.out <- e l :: st.out
  | Ir.Eval e ->
      let e = value_code st code e in
      fun l -> ignore (e l)

let block_code st code (b : Ir.block) =
  {
    instrs = Array.map (instr_code st code) b.Ir.instrs;
    term =
      (match b.Ir.term with
      | Ir.Goto l -> T_goto l
      | Ir.If (c, t, f) -> T_if (int_code st code c, t, f)
      | Ir.Switch (e, cases, d) -> T_switch (int_code st code e, cases, d)
      | Ir.Ret e -> T_ret (Option.map (value_code st code) e));
  }

(** [run_body st blocks frame] executes one invocation from block 0
    until a [return], reporting each block to the sink. *)
let run_body st (blocks : block array) (frame : frame) =
  let result = ref (Vint 0) in
  let blk = ref 0 and running = ref true in
  while !running do
    st.blocks_executed <- st.blocks_executed + 1;
    if st.blocks_executed > st.limit then
      err "block execution limit (%d) exceeded" st.limit;
    let b = blocks.(!blk) in
    st.sink st.block_events.(!blk);
    let instrs = b.instrs in
    for i = 0 to Array.length instrs - 1 do
      instrs.(i) frame
    done;
    match b.term with
    | T_goto l -> blk := l
    | T_if (c, t, fl) -> blk := if c frame <> 0 then t else fl
    | T_switch (e, cases, d) ->
        let v = e frame in
        blk := case_target cases v d (Array.length cases - 1)
    | T_ret e ->
        (match e with Some e -> result := e frame | None -> ());
        running := false
  done;
  st.sink Ba_cfg.Trace.Leave;
  st.depth <- st.depth - 1;
  !result

type result = {
  output : int list;  (** values printed, in order *)
  return_value : int;
  blocks_executed : int;
  inputs_consumed : int;
}

(** [run ?limit prog ~input ~sink] executes [main()] and returns the
    observable results.  [limit] bounds total block executions (default
    200 million).
    @raise Runtime_error on dynamic errors or budget exhaustion. *)
let run ?(limit = 200_000_000) ?(max_depth = 100_000) (prog : Ir.program)
    ~(input : int array) ~(sink : Ba_cfg.Trace.sink) : result =
  match Ir.find_func prog "main" with
  | None -> err "program has no main()"
  | Some fid ->
      let funcs = prog.Ir.funcs in
      let max_blocks =
        Array.fold_left (fun m f -> max m (Array.length f.Ir.blocks)) 0 funcs
      in
      let st =
        {
          input; cursor = 0; out = []; blocks_executed = 0; limit; depth = 0;
          max_depth; sink;
          enter_events =
            Array.init (Array.length funcs) (fun f -> Ba_cfg.Trace.Enter f);
          block_events = Array.init max_blocks (fun b -> Ba_cfg.Trace.Block b);
        }
      in
      let code = { funcs; bodies = [||] } in
      code.bodies <-
        Array.map
          (fun (f : Ir.func) ->
            let blocks = Array.map (block_code st code) f.Ir.blocks in
            run_body st blocks)
          funcs;
      let v = call st code fid [||] in
      {
        output = List.rev st.out;
        return_value = as_int v;
        blocks_executed = st.blocks_executed;
        inputs_consumed = st.cursor;
      }
