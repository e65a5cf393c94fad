(** Pipe-pair client driver: the server loop runs on a separate domain,
    the test code plays the client. *)

module Server = Ba_serve.Server
module Wire = Ba_serve.Wire

type outcome = (Server.stop_reason, exn) result

(* A finished server loop's result, awaited by [stop]. *)
type promise = { pm : Mutex.t; pc : Condition.t; mutable value : outcome option }

(* Server loops run on worker domains that outlive them: under OCaml
   5.1 every terminated domain leaves major-heap memory behind (about
   1 MB per server in the serve-mixed benchmark, whose RSS then grew
   with every cycle), so a stopped server's worker waits, idle, for the
   next [start], and a new domain is spawned only when none is idle. *)
type worker = {
  wm : Mutex.t;
  wc : Condition.t;
  mutable job : ((unit -> outcome) * promise) option;
}

let idle : worker list ref = ref []
let idle_lock = Mutex.create ()

let rec work w =
  Mutex.lock w.wm;
  while Option.is_none w.job do
    Condition.wait w.wc w.wm
  done;
  let loop, p = Option.get w.job in
  w.job <- None;
  Mutex.unlock w.wm;
  let r = loop () in
  (* back on the idle list before [stop] can return, so a [start]
     right after it reuses this domain *)
  Mutex.protect idle_lock (fun () -> idle := w :: !idle);
  Mutex.protect p.pm (fun () ->
      p.value <- Some r;
      Condition.broadcast p.pc);
  work w

let run_on_worker loop =
  let p = { pm = Mutex.create (); pc = Condition.create (); value = None } in
  let w =
    Mutex.protect idle_lock (fun () ->
        match !idle with
        | w :: rest ->
            idle := rest;
            Some w
        | [] -> None)
  in
  let w =
    match w with
    | Some w -> w
    | None ->
        let w = { wm = Mutex.create (); wc = Condition.create (); job = None } in
        ignore (Domain.spawn (fun () -> work w));
        w
  in
  Mutex.protect w.wm (fun () ->
      w.job <- Some (loop, p);
      Condition.signal w.wc);
  p

let await p =
  Mutex.protect p.pm (fun () ->
      while Option.is_none p.value do
        Condition.wait p.pc p.pm
      done;
      Option.get p.value)

type t = {
  to_server : Unix.file_descr;
  from_server : Unix.file_descr;
  reader : Wire.reader;
  drain_flag : bool Atomic.t;
  finished : promise;
  mutable input_open : bool;
  mutable output_open : bool;
  mutable stopped : outcome option;
}

(* the real entry points (serve_stdin/serve_socket) ignore SIGPIPE; the
   driver calls Server.serve directly, so it reproduces that
   environment itself — otherwise a close_output test would kill the
   whole test process on the server's next write *)
let ignore_sigpipe =
  lazy
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ | Sys_error _ -> ())

let start ?(config = Server.default) () =
  Lazy.force ignore_sigpipe;
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let drain_flag = Atomic.make false in
  let finished =
    run_on_worker (fun () ->
        let result =
          (* the suite's no-crash assertion: any exception escaping the
             loop is captured and failed on, not swallowed *)
          match Server.serve config ~drain:drain_flag ~in_fd:req_r ~out_fd:resp_w with
          | reason -> Ok reason
          | exception e -> Error e
        in
        (try Unix.close req_r with Unix.Unix_error (_, _, _) -> ());
        (try Unix.close resp_w with Unix.Unix_error (_, _, _) -> ());
        result)
  in
  {
    to_server = req_w;
    from_server = resp_r;
    reader = Wire.reader resp_r;
    drain_flag;
    finished;
    input_open = true;
    output_open = true;
    stopped = None;
  }

let send_raw t s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    match Unix.write_substring t.to_server s !off (n - !off) with
    | w -> off := !off + w
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let send t req = send_raw t (Wire.encode_frame (Wire.request_to_string req))
let recv t = Wire.read_frame t.reader

let recv_response t =
  match recv t with
  | Wire.Frame payload -> Some (Wire.response_of_string payload)
  | Wire.Eof | Wire.Truncated | Wire.Drained -> None
  | Wire.Bad_header m -> Some (Error ("bad response framing: " ^ m))
  | Wire.Oversized n ->
      Some (Error (Printf.sprintf "oversized response frame (%d bytes)" n))

let drain t = Atomic.set t.drain_flag true

let close_input t =
  if t.input_open then begin
    t.input_open <- false;
    try Unix.close t.to_server with Unix.Unix_error (_, _, _) -> ()
  end

let close_output t =
  if t.output_open then begin
    t.output_open <- false;
    try Unix.close t.from_server with Unix.Unix_error (_, _, _) -> ()
  end

let stop t =
  match t.stopped with
  | Some r -> r
  | None ->
      close_input t;
      let r = await t.finished in
      close_output t;
      t.stopped <- Some r;
      r
