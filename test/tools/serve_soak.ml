(* serve_soak — replay a long mixed-fault request trace at the serve
   daemon (in-process, over pipes) and assert the crash-only contract:

     - zero crashes: no exception ever escapes the request loop, and
       every segment of the trace ends in a clean stop reason;
     - zero uncertified responses: every [ok] layout is re-certified
       CLIENT-side with Ba_check.Certify against the request's own CFG
       and profile — the suite does not take the server's word for it;
     - every injected protocol fault yields its contracted outcome
       (typed error response, degraded-but-certified layout, or a
       final error followed by a clean end of stream);
     - a repeated identical request is a cache hit with a bit-identical
       layout.

   Stream-ending faults (truncated frame, garbage length header) split
   the trace into segments, each served by a fresh server instance —
   exactly how a crash-only daemon is deployed under a supervisor.

     serve_soak [--requests N] [--out FILE]

   Writes a serve-soak/1 JSON artifact (validated by
   check_trace --serve-soak) and exits 1 on any contract violation.  A
   server that ends the conversation early — a write it refuses
   (EPIPE), or a stream that ends while a response is awaited — ends
   the soak as a crash naming the request id and fault kind; the
   artifact is still written. *)

module Wire = Ba_serve.Wire
module Server = Ba_serve.Server
module Driver = Ba_harness.Serve_driver
module Faults = Ba_harness.Faults
module Synthetic = Ba_harness.Synthetic
module Json = Ba_obs.Json

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("serve_soak: " ^ m);
      exit 1)
    fmt

(* soak-wide limits, mirrored into the fault injector so oversized
   frames stay stream-synchronized and huge CFGs land just over the
   edge *)
let max_frame_bytes = 65536
let max_blocks = 64

let config =
  {
    Server.default with
    Server.cache_capacity = 64;
    max_frame_bytes;
    max_blocks;
    default_deadline_ms = Some 200;
    max_deadline_ms = Some 1000;
  }

let penalties = Ba_machine.Model.alpha21164

(* the valid-request pool: a few synthetic procedures, each with a
   couple of profile variants (variant 0 repeats often = cache hits;
   others exercise drift warm starts) *)
type subject = {
  cfg : Ba_cfg.Cfg.t;
  profiles : Ba_profile.Profile.proc array;
}

let subjects rng =
  Array.init 12 (fun i ->
      let n = 6 + ((i * 5) mod 30) in
      let cfg = Synthetic.cfg rng ~n in
      let profiles =
        Array.init 3 (fun _ ->
            Synthetic.profile rng cfg ~invocations:20 ~max_steps:400)
      in
      { cfg; profiles })

type counts = {
  mutable requests : int;  (** frames (valid or faulty) written *)
  mutable ok : int;
  mutable errors : int;
  mutable faults : int;
  mutable segments : int;
  mutable cache_hits : int;
  mutable warm_starts : int;
  mutable uncertified : int;
  mutable crashes : int;
  mutable repeats_identical : int;
}

let counts =
  {
    requests = 0;
    ok = 0;
    errors = 0;
    faults = 0;
    segments = 0;
    cache_hits = 0;
    warm_starts = 0;
    uncertified = 0;
    crashes = 0;
    repeats_identical = 0;
  }

(** Client-side certification of an ok response. *)
let certified cfg profile order =
  match
    Ba_check.Certify.proc_cert ~hk:Ba_check.Certify.Skip ~sym_check:false
      ~proc:0 penalties cfg ~profile ~order
  with
  | Ok _ -> true
  | Error _ -> false

(** Count an ok response, re-certifying its layout. *)
let check_ok ~what (s : subject) profile (payload : Wire.ok_payload) =
  counts.ok <- counts.ok + 1;
  if payload.Wire.cached then counts.cache_hits <- counts.cache_hits + 1;
  if payload.Wire.warm then counts.warm_starts <- counts.warm_starts + 1;
  if not (certified s.cfg profile payload.Wire.layout) then begin
    counts.uncertified <- counts.uncertified + 1;
    Printf.eprintf "serve_soak: UNCERTIFIED layout for %s (%s)\n%!"
      s.cfg.Ba_cfg.Cfg.name what
  end

(** Count a typed error response, which must carry a documented code. *)
let check_error ~what (error : Wire.client_error) =
  counts.errors <- counts.errors + 1;
  if error.Wire.eexit < 2 || error.Wire.eexit > 10 then
    die "%s: undocumented exit code %d" what error.Wire.eexit

(* the artifact's path ([--out]); empty writes none *)
let out = ref ""

(** Write the artifact and the summary line; exit 1 on a crash or an
    uncertified layout. *)
let finish () =
  let doc =
    Json.Obj
      [
        ("schema", Json.String "serve-soak/1");
        ("requests", Json.Int counts.requests);
        ("ok", Json.Int counts.ok);
        ("errors", Json.Int counts.errors);
        ("faults_injected", Json.Int counts.faults);
        ("segments", Json.Int counts.segments);
        ("cache_hits", Json.Int counts.cache_hits);
        ("warm_starts", Json.Int counts.warm_starts);
        ("repeats_identical", Json.Int counts.repeats_identical);
        ("uncertified", Json.Int counts.uncertified);
        ("crashes", Json.Int counts.crashes);
      ]
  in
  if !out <> "" then Json.write_file !out doc;
  Printf.printf
    "serve-soak: %d requests, %d ok, %d errors, %d faults, %d segments, %d \
     cache hits, %d warm starts, %d uncertified, %d crashes\n"
    counts.requests counts.ok counts.errors counts.faults counts.segments
    counts.cache_hits counts.warm_starts counts.uncertified counts.crashes;
  if counts.uncertified > 0 || counts.crashes > 0 then exit 1

(** The server ended the conversation early: count a crash naming the
    request id and kind ([how] says what the client saw), stop the
    server, and end the soak with exit 1 after writing the artifact. *)
let crash ~id ~kind t how =
  counts.crashes <- counts.crashes + 1;
  Printf.eprintf
    "serve_soak: CRASH: request %d (%s): the server closed the \
     conversation early (%s)\n%!"
    id kind how;
  (match Driver.stop t with
  | Ok _ -> ()
  | Error e ->
      Printf.eprintf "serve_soak: the server raised %s\n%!"
        (Printexc.to_string e));
  counts.segments <- counts.segments + 1;
  finish ();
  exit 1

(** Run one write to the server; a write that fails with EPIPE is a
    {!crash}. *)
let guard_write ~id ~kind t write =
  try write ()
  with Unix.Unix_error (Unix.EPIPE, _, _) ->
    crash ~id ~kind t "EPIPE on write"

let send ~id ~kind t req = guard_write ~id ~kind t (fun () -> Driver.send t req)

let send_raw ~id ~kind t s =
  guard_write ~id ~kind t (fun () -> Driver.send_raw t s)

let expect_ok ~id ~what t (s : subject) profile =
  match Driver.recv_response t with
  | Some (Ok (Wire.C_ok { payload; _ })) ->
      check_ok ~what s profile payload;
      Some payload
  | Some (Ok (Wire.C_error { error; _ })) ->
      die "%s: expected ok, got error %s (%s)" what error.Wire.eclass
        error.Wire.emessage
  | Some (Ok _) -> die "%s: expected ok, got a different status" what
  | Some (Error m) -> die "%s: undecodable response: %s" what m
  | None -> crash ~id ~kind:what t "stream ended before the response"

(** An ok layout or a typed error, whichever comes.  The [expect_]
    readers treat a stream that ends first as a {!crash}. *)
let expect_either ~id ~what t (s : subject) profile =
  match Driver.recv_response t with
  | Some (Ok (Wire.C_ok { payload; _ })) -> check_ok ~what s profile payload
  | Some (Ok (Wire.C_error { error; _ })) -> check_error ~what error
  | Some (Ok _) -> die "%s: expected ok or an error, got a different status" what
  | Some (Error m) -> die "%s: undecodable response: %s" what m
  | None -> crash ~id ~kind:what t "stream ended before the response"

let expect_error ~id ~what t =
  match Driver.recv_response t with
  | Some (Ok (Wire.C_error { error; _ })) -> check_error ~what error
  | Some (Ok (Wire.C_ok _)) -> die "%s: expected a typed error, got ok" what
  | Some (Ok _) -> die "%s: expected a typed error, got a different status" what
  | Some (Error m) -> die "%s: undecodable response: %s" what m
  | None -> crash ~id ~kind:what t "stream ended before the error response"

let align_request ~id (s : subject) variant =
  Wire.Align
    {
      id;
      cfg = s.cfg;
      profile = s.profiles.(variant);
      options = Wire.default_options;
    }

(** End the current segment: the server must stop with a clean reason
    and no escaped exception. *)
let finish_segment t ~expected =
  (match Driver.stop t with
  | Ok reason ->
      let names = function
        | Server.Clean_eof -> "eof"
        | Server.Shutdown_verb -> "shutdown"
        | Server.Drained -> "drained"
        | Server.Stream_corrupt -> "corrupt"
        | Server.Client_gone -> "client-gone"
      in
      if not (List.mem reason expected) then
        die "segment stopped with %s" (names reason)
  | Error e ->
      counts.crashes <- counts.crashes + 1;
      Printf.eprintf "serve_soak: CRASH: %s\n%!" (Printexc.to_string e));
  counts.segments <- counts.segments + 1

let () =
  let n_requests = ref 1000 in
  let rec parse = function
    | [] -> ()
    | "--requests" :: v :: rest ->
        (match int_of_string_opt v with
        | Some n when n > 0 -> n_requests := n
        | _ -> die "--requests wants a positive integer");
        parse rest
    | "--out" :: v :: rest ->
        out := v;
        parse rest
    | a :: _ -> die "unknown argument %s" a
  in
  parse (List.tl (Array.to_list Sys.argv));
  let rng = Random.State.make [| 0x50a4; 7 |] in
  let subjects = subjects rng in
  (* framing-safe faults cycle through this list; stream-ending faults
     are scheduled separately since each one costs a server restart *)
  let safe_faults =
    List.filter
      (fun k -> Faults.protocol_expectation k <> `Ends_stream)
      Faults.all_protocol
  in
  let ending_faults =
    List.filter
      (fun k -> Faults.protocol_expectation k = `Ends_stream)
      Faults.all_protocol
  in
  let t = ref (Driver.start ~config ()) in
  let sent = ref 0 in
  let fault_i = ref 0 and ending_i = ref 0 in
  while !sent < !n_requests do
    let id = !sent in
    incr sent;
    counts.requests <- counts.requests + 1;
    let roll = Random.State.int rng 100 in
    if roll < 55 then begin
      (* valid align on the repeat-heavy variant: cache traffic *)
      let s = subjects.(Random.State.int rng (Array.length subjects)) in
      let req = align_request ~id s 0 in
      send ~id ~kind:"align" !t req;
      let first = expect_ok ~id ~what:"align" !t s s.profiles.(0) in
      (* every 6th: repeat the identical request immediately and demand
         a bit-identical cached layout *)
      if id mod 6 = 0 && !sent < !n_requests then begin
        incr sent;
        counts.requests <- counts.requests + 1;
        send ~id ~kind:"repeat" !t req;
        match (first, expect_ok ~id ~what:"repeat" !t s s.profiles.(0)) with
        | Some a, Some b ->
            if not b.Wire.cached then die "repeat of request %d not cached" id;
            if a.Wire.layout <> b.Wire.layout then
              die "repeat of request %d not bit-identical" id
            else counts.repeats_identical <- counts.repeats_identical + 1
        | _ -> ()
      end
    end
    else if roll < 70 then begin
      (* drifted profile on a known CFG: misses that warm-start *)
      let s = subjects.(Random.State.int rng (Array.length subjects)) in
      let v = 1 + Random.State.int rng 2 in
      send ~id ~kind:"drift" !t (align_request ~id s v);
      ignore (expect_ok ~id ~what:"drift" !t s s.profiles.(v))
    end
    else if roll < 74 then begin
      send ~id ~kind:"stats" !t (Wire.Stats { id });
      match Driver.recv_response !t with
      | Some (Ok (Wire.C_stats _)) -> ()
      | _ -> die "stats: bad response"
    end
    else if roll < 95 then begin
      (* framing-safe protocol fault *)
      let k = List.nth safe_faults (!fault_i mod List.length safe_faults) in
      incr fault_i;
      counts.faults <- counts.faults + 1;
      let s = subjects.(Random.State.int rng (Array.length subjects)) in
      let payload = Wire.request_to_string (align_request ~id s 0) in
      send_raw ~id ~kind:(Faults.protocol_name k) !t
        (Faults.inject_protocol ~max_frame_bytes ~max_blocks ~seed:id k payload);
      match Faults.protocol_expectation k with
      | `Error_response -> expect_error ~id ~what:(Faults.protocol_name k) !t
      | `Ok_response -> ignore (expect_ok ~id ~what:(Faults.protocol_name k) !t s s.profiles.(0))
      | `Error_or_ok_response ->
          expect_either ~id ~what:(Faults.protocol_name k) !t s s.profiles.(0)
      | `Ends_stream -> assert false
    end
    else begin
      (* stream-ending fault: final error response, clean stop, fresh
         server for the next segment *)
      let k = List.nth ending_faults (!ending_i mod List.length ending_faults) in
      incr ending_i;
      counts.faults <- counts.faults + 1;
      let s = subjects.(Random.State.int rng (Array.length subjects)) in
      let payload = Wire.request_to_string (align_request ~id s 0) in
      send_raw ~id ~kind:(Faults.protocol_name k) !t
        (Faults.inject_protocol ~max_frame_bytes ~max_blocks ~seed:id k payload);
      Driver.close_input !t;
      expect_error ~id ~what:(Faults.protocol_name k) !t;
      (match Driver.recv_response !t with
      | None -> ()
      | Some _ -> die "%s: stream did not end" (Faults.protocol_name k));
      finish_segment !t ~expected:[ Server.Stream_corrupt ];
      if !sent < !n_requests then t := Driver.start ~config ()
    end
  done;
  (* last segment leaves through the shutdown verb *)
  send ~id:!sent ~kind:"shutdown" !t (Wire.Shutdown { id = !sent });
  (match Driver.recv_response !t with
  | Some (Ok (Wire.C_shutdown _)) -> ()
  | _ -> die "shutdown: bad response");
  finish_segment !t ~expected:[ Server.Shutdown_verb ];
  finish ();
  if counts.cache_hits = 0 then die "soak produced no cache hits";
  if counts.warm_starts = 0 then die "soak produced no warm starts"
