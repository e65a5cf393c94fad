(** Interpreter for the minic IR, emitting trace events — simultaneously
    the instrumented program and the hardware of the reproduction.
    Deterministic given program and input.  Each run translates the
    program into closures once; scalar positions evaluate to unboxed
    ints, and only values stored in slots, passed or returned are
    boxed. *)

exception Runtime_error of string

type value = Vint of int | Varr of int array

type result = {
  output : int list;  (** values printed, in order *)
  return_value : int;
  blocks_executed : int;
  inputs_consumed : int;
}

(** [run ?limit ?max_depth prog ~input ~sink] executes [main()].
    [limit] bounds total block executions (default 200 million);
    [max_depth] bounds call depth (default 100,000 — fails fast on
    runaway recursion).
    @raise Runtime_error on dynamic errors or budget exhaustion. *)
val run :
  ?limit:int ->
  ?max_depth:int ->
  Ir.program ->
  input:int array ->
  sink:Ba_cfg.Trace.sink ->
  result
