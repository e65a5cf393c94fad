(** The process-wide trace: per-task span buffers handed over after
    each join, merged deterministically, exported as Chrome
    [trace_event] JSON (load it in [chrome://tracing] or Perfetto).

    Tracing is off by default; {!set_enabled} is flipped once at
    startup by the CLI when [--trace] is given.  It decides only
    whether joined spans are exported: every task buffer records, since
    stage timings are span totals.  Task buffers arrive
    via {!add_task}, called by the engine {e after} the join in task
    index order — each [run_all] fan-out contributes one contiguous
    block of groups, so the group sequence is a pure function of the
    program's fan-out structure, not of scheduling.  A mutex guards
    the (cold) hand-over path only; span recording itself is lock-free
    (see {!Span}).

    Export maps every task to its own [tid] (one span group per task
    in the viewer, named by a [thread_name] metadata event) and each
    span to a complete ["ph":"X"] event; stage spans nest under their
    task's root span by time containment.  Timestamps are rebased to
    the earliest span so traces start at t=0. *)

type group = { seq : int; task : int; label : string; spans : Span.span array }

let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

let lock = Mutex.create ()
let groups : group list ref = ref []
let next_seq = ref 0

(** [add_task ~label ~task spans] hands one joined task's spans over to
    the trace.  Group order is arrival order, which the engine makes
    deterministic (task index order within each fan-out). *)
let add_task ~label ~task (spans : Span.span array) =
  if Array.length spans > 0 then begin
    Mutex.lock lock;
    let seq = !next_seq in
    next_seq := seq + 1;
    groups := { seq; task; label; spans } :: !groups;
    Mutex.unlock lock
  end

let clear () =
  Mutex.lock lock;
  groups := [];
  next_seq := 0;
  Mutex.unlock lock

(** All groups, in arrival order. *)
let all_groups () =
  Mutex.lock lock;
  let gs = List.rev !groups in
  Mutex.unlock lock;
  gs

(* ---------------- Chrome trace_event export ---------------- *)

let group_name g =
  if g.label = "" then Printf.sprintf "task%d" g.task
  else Printf.sprintf "task%d:%s" g.task g.label

(** The trace as a Chrome [trace_event] JSON document. *)
let to_chrome () : Json.t =
  let gs = all_groups () in
  let t0 =
    List.fold_left
      (fun acc g ->
        Array.fold_left (fun acc s -> Int64.min acc s.Span.start_ns) acc g.spans)
      Int64.max_int gs
  in
  let t0 = if t0 = Int64.max_int then 0L else t0 in
  let events =
    List.concat_map
      (fun g ->
        Json.Obj
          [
            ("name", Json.String "thread_name");
            ("ph", Json.String "M");
            ("pid", Json.Int 0);
            ("tid", Json.Int g.seq);
            ("args", Json.Obj [ ("name", Json.String (group_name g)) ]);
          ]
        :: (Array.to_list g.spans
           |> List.map (fun (s : Span.span) ->
                  Json.Obj
                    [
                      ("name", Json.String s.Span.name);
                      ("cat", Json.String "task");
                      ("ph", Json.String "X");
                      ("ts", Json.Float (Mono.ns_to_us (Int64.sub s.Span.start_ns t0)));
                      ("dur", Json.Float (Mono.ns_to_us (Span.duration_ns s)));
                      ("pid", Json.Int 0);
                      ("tid", Json.Int g.seq);
                      ( "args",
                        Json.Obj
                          [
                            ("task", Json.Int s.Span.task);
                            ("span", Json.Int s.Span.id);
                            ("parent", Json.Int s.Span.parent);
                          ] );
                    ])))
      gs
  in
  Json.Obj
    [
      ("displayTimeUnit", Json.String "ms");
      ("traceEvents", Json.List events);
    ]

(** [write_chrome path] exports the current trace to [path]. *)
let write_chrome path = Json.write_file path (to_chrome ())
