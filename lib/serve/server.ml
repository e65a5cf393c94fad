(** The request loop: decode → schedule → certify → respond.

    Invariants enforced here (and asserted by the soak suite):
    - every frame gets exactly one response (except after stream
      corruption, where one final unaddressed error is sent);
    - an [ok] response carries a layout that passed an independent
      {!Ba_check.Certify} run {e in this process, against this
      request} — cache hits and warm restarts included;
    - no request input can raise out of the loop. *)

open Ba_cfg
module Profile = Ba_profile.Profile
module Errors = Ba_robust.Errors
module Budget = Ba_robust.Budget
module Metrics = Ba_obs.Metrics
module Json = Ba_obs.Json

let ( let* ) = Result.bind

type config = {
  model : Ba_machine.Model.t;
      (** default cost model for requests without a [model] field *)
  cache_capacity : int;
  cache_file : string option;
  max_frame_bytes : int;
  max_blocks : int;
  default_deadline_ms : int option;
  max_deadline_ms : int option;
  static_profile : bool;
      (** train every request on the structural estimate unless its
          options say ["profile": "collected"] *)
}

let default =
  {
    model = Ba_machine.Model.default;
    cache_capacity = 256;
    cache_file = None;
    max_frame_bytes = 4 * 1024 * 1024;
    max_blocks = 10_000;
    default_deadline_ms = None;
    max_deadline_ms = None;
    static_profile = false;
  }

type stop_reason =
  | Clean_eof
  | Shutdown_verb
  | Drained
  | Stream_corrupt
  | Client_gone

(* ---------------- stats ---------------- *)

let stats_json cache =
  let c k = Json.Int (Metrics.get k) in
  let lat = Metrics.latency () in
  Json.Obj
    [
      ("requests", c Metrics.Serve_requests);
      ("ok", c Metrics.Serve_ok);
      ("errors", c Metrics.Serve_errors);
      ("protocol_errors", c Metrics.Serve_protocol_errors);
      ( "cache",
        Json.Obj
          [
            ("hits", c Metrics.Serve_cache_hits);
            ("misses", c Metrics.Serve_cache_misses);
            ("poisoned", c Metrics.Serve_cache_poisoned);
            ("warm_starts", c Metrics.Serve_warm_starts);
            ("entries", Json.Int (Cache.length cache));
          ] );
      ( "latency_ms",
        Json.Obj
          [
            ("count", Json.Int lat.Metrics.l_count);
            ("mean", Json.Float lat.Metrics.mean_ms);
            ("p50", Json.Float lat.Metrics.p50_ms);
            ("p95", Json.Float lat.Metrics.p95_ms);
            ("max", Json.Float lat.Metrics.max_ms);
          ] );
    ]

(* ---------------- one align request ---------------- *)

(** Independent re-verification of a layout against {e this} request's
    CFG and profile.  This is the certification gate every [ok]
    response passes, and the mechanism that rejects poisoned cache
    entries and 64-bit key collisions: a layout for a different CFG
    cannot survive the walk/faithfulness checks, and a corrupted cost
    fails the from-scratch recomputation. *)
let certify ~model cfg profile order =
  Ba_check.Certify.proc_cert ~hk:Ba_check.Certify.Skip ~sym_check:false ~proc:0
    model cfg ~profile ~order

(** The model one request runs under: its own, or the server's
    default. *)
let request_model config (options : Wire.align_options) =
  Option.value options.Wire.model ~default:config.model

let solve config cache ~key ~warm cfg profile (options : Wire.align_options) :
    (Wire.ok_payload, Errors.t) result =
  let model = request_model config options in
  let requested =
    match options.Wire.deadline_ms with
    | Some _ as d -> d
    | None -> config.default_deadline_ms
  in
  let deadline_ms = Budget.clamp_deadline ?cap:config.max_deadline_ms requested in
  let train = { Profile.procs = [| profile |]; calls = [] } in
  match
    Ba_align.Driver.align_checked ?deadline_ms
      ~fallback:true
      ~warm_start:(fun _ -> warm)
      options.Wire.method_ model [| cfg |] ~train
  with
  | Error e -> Error e
  | Ok report -> (
      let order = report.Ba_align.Driver.aligned.Ba_align.Driver.orders.(0) in
      (* never respond with an uncertified layout — not even one the
         checked driver just produced *)
      match certify ~model cfg profile order with
      | Error e ->
          Error
            (Errors.Invalid_layout
               {
                 proc = Some 0;
                 name = Some cfg.Cfg.name;
                 reason = Ba_check.Certify.error_to_string e;
               })
      | Ok cert ->
          Cache.add cache key order cert.Ba_check.Certify.cost;
          Metrics.set_gauge Metrics.Serve_cache_entries (Cache.length cache);
          Ok
            {
              Wire.layout = order;
              cost = cert.Ba_check.Certify.cost;
              cached = false;
              warm = warm <> None;
              fallbacks = List.length report.Ba_align.Driver.fallbacks;
            })

(** Whether one request trains on the structural estimate: its own
    option wins, the server default otherwise. *)
let wants_static config (options : Wire.align_options) =
  match options.Wire.profile_mode with
  | Some `Static -> true
  | Some `Collected -> false
  | None -> config.static_profile

let handle_align config cache cfg profile options :
    (Wire.ok_payload, Errors.t) result =
  let model = request_model config options in
  (* static mode replaces the profile BEFORE the cache key is computed,
     so cached layouts are keyed (and hit-time re-certified) against
     the very profile they were trained on.  The estimator needs a
     traversable CFG; an unsound one gets the typed error the lint
     gate would have raised. *)
  let* profile =
    if not (wants_static config options) then Ok profile
    else
      match Cfg.validate cfg with
      | Ok () -> Ok (Ba_analysis.Estimate.proc cfg)
      | Error reason ->
          Error
            (Errors.Invalid_cfg
               { proc = Some 0; name = Some cfg.Cfg.name; reason })
  in
  let key = Cache.key_of cfg profile ~model in
  match Cache.find cache key with
  | Some (order, cost) -> (
      (* hit-time re-certification: the cache (and any persisted
         snapshot it was loaded from) is untrusted *)
      match certify ~model cfg profile order with
      | Ok cert ->
          Metrics.incr Metrics.Serve_cache_hits;
          ignore cost;
          Ok
            {
              Wire.layout = order;
              cost = cert.Ba_check.Certify.cost;
              cached = true;
              warm = false;
              fallbacks = 0;
            }
      | Error _ ->
          (* poisoned (or a key collision): evict and solve fresh *)
          Metrics.incr Metrics.Serve_cache_poisoned;
          Cache.remove cache key;
          Metrics.incr Metrics.Serve_cache_misses;
          let warm = None in
          solve config cache ~key ~warm cfg profile options)
  | None ->
      Metrics.incr Metrics.Serve_cache_misses;
      (* same CFG seen under another profile? seed the solver with its
         layout: incremental re-alignment after profile drift *)
      let warm = Cache.drift_hint cache key in
      if warm <> None then Metrics.incr Metrics.Serve_warm_starts;
      solve config cache ~key ~warm cfg profile options

(* ---------------- the loop ---------------- *)

(* [Error _] means the client went away before reading (EPIPE — the
   entry points ignore SIGPIPE — or a closed fd): that ends this
   conversation, never the server, and no further write is attempted
   on the dead descriptor. *)
let respond out_fd response =
  Wire.write_frame out_fd (Wire.response_to_string response)

let persist config cache =
  match config.cache_file with
  | None -> ()
  | Some path -> (
      match Cache.save cache path with
      | Ok () -> ()
      | Error e -> Fmt.epr "balign serve: cache not saved: %a@." Errors.pp e)

let serve config ~drain ~in_fd ~out_fd : stop_reason =
  let cache =
    match config.cache_file with
    | Some path when Sys.file_exists path -> (
        match Cache.load ~capacity:config.cache_capacity path with
        | Ok c -> c
        | Error e ->
            Fmt.epr "balign serve: cold start, cache not loaded: %a@." Errors.pp e;
            Cache.create ~capacity:config.cache_capacity)
    | _ -> Cache.create ~capacity:config.cache_capacity
  in
  Metrics.set_gauge Metrics.Serve_cache_entries (Cache.length cache);
  let reader = Wire.reader ~max_frame_bytes:config.max_frame_bytes in_fd in
  let stop () = Atomic.get drain in
  let protocol_error ?id e =
    Metrics.incr Metrics.Serve_protocol_errors;
    respond out_fd (Wire.Error_response { id; error = e })
  in
  (* a payload that fails request decoding may still carry a usable id;
     echo it so the client can correlate the error *)
  let salvage_id payload =
    match Json.parse payload with
    | Ok doc -> (
        match Json.member "id" doc with Some (Json.Int i) -> Some i | _ -> None)
    | Error _ | (exception _) -> None
  in
  (* answer, or end the conversation if the client is gone *)
  let send response next =
    match respond out_fd response with Ok () -> next | Error _ -> `Client_gone
  in
  let handle_frame payload : [ `Continue | `Shutdown | `Client_gone ] =
    Metrics.set_gauge Metrics.Serve_in_flight 1;
    Metrics.incr Metrics.Serve_requests;
    let t0 = Ba_obs.Mono.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        (* observed on every path, including the ones that end the
           conversation — the gauge must never stick at 1 *)
        Metrics.observe_latency_ms (Ba_obs.Mono.since_s t0 *. 1000.);
        Metrics.set_gauge Metrics.Serve_in_flight 0)
      (fun () ->
        (* the per-request exception barrier: whatever a request does —
           decode, solve, certify — it answers with a frame, never with
           a crash *)
        match
          Result.join
            (Errors.catch ~where:"serve-decode" (fun () ->
                 Wire.request_of_string ~max_blocks:config.max_blocks payload))
        with
        | Error e ->
            Metrics.incr Metrics.Serve_protocol_errors;
            Metrics.incr Metrics.Serve_errors;
            send
              (Wire.Error_response { id = salvage_id payload; error = e })
              `Continue
        | Ok (Wire.Stats { id }) ->
            send (Wire.Stats_response { id; stats = stats_json cache }) `Continue
        | Ok (Wire.Shutdown { id }) ->
            (* shut down whether or not the client stayed for the ack *)
            let (_ : (unit, string) result) =
              respond out_fd (Wire.Shutdown_ack { id })
            in
            `Shutdown
        | Ok (Wire.Align { id; cfg; profile; options }) -> (
            match
              match
                Errors.catch ~where:"serve" (fun () ->
                    handle_align config cache cfg profile options)
              with
              | Ok r -> r
              | Error e -> Error e
            with
            | Ok payload ->
                Metrics.incr Metrics.Serve_ok;
                send (Wire.Ok_layout { id; payload }) `Continue
            | Error e ->
                Metrics.incr Metrics.Serve_errors;
                send (Wire.Error_response { id = Some id; error = e }) `Continue))
  in
  let rec loop () =
    Metrics.set_gauge Metrics.Serve_queue_depth (Wire.buffered_frames reader);
    match Wire.read_frame ~stop reader with
    | Wire.Frame payload -> (
        match handle_frame payload with
        | `Continue -> loop ()
        | `Shutdown -> Shutdown_verb
        | `Client_gone -> Client_gone)
    | Wire.Eof -> Clean_eof
    | Wire.Drained -> Drained
    | Wire.Oversized len -> (
        match
          protocol_error
            (Errors.Parse_error
               {
                 stage = "frame";
                 message =
                   Printf.sprintf "frame of %d bytes exceeds the limit of %d"
                     len config.max_frame_bytes;
               })
        with
        | Ok () -> loop ()
        | Error _ -> Client_gone)
    | Wire.Truncated ->
        let (_ : (unit, string) result) =
          protocol_error
            (Errors.Parse_error
               { stage = "frame"; message = "stream ended mid-frame" })
        in
        Stream_corrupt
    | Wire.Bad_header m ->
        let (_ : (unit, string) result) =
          protocol_error (Errors.Parse_error { stage = "frame"; message = m })
        in
        Stream_corrupt
  in
  let reason =
    match loop () with
    | r -> r
    | exception e ->
        (* last-ditch barrier; nothing below is expected to raise, and
           the final write cannot raise again — a dead out_fd is an
           ignored [Error], not a second exception *)
        let (_ : (unit, string) result) =
          protocol_error (Errors.of_exn ~where:"serve-loop" e)
        in
        Stream_corrupt
  in
  Metrics.set_gauge Metrics.Serve_queue_depth 0;
  persist config cache;
  reason

(* ---------------- entry points ---------------- *)

(* With SIGPIPE at its default disposition, a client that disconnects
   before reading its response would kill the whole daemon at the next
   write — the opposite of crash-only.  Ignoring it turns that write
   into an EPIPE that Wire.write_frame reports as [Error], which ends
   one conversation (Client_gone) and nothing else. *)
let with_sigpipe_ignored f =
  match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | old -> Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe old) f
  | exception Invalid_argument _ | exception Sys_error _ ->
      (* no SIGPIPE on this platform: nothing to ignore *)
      f ()

let with_sigterm drain f =
  match
    Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> Atomic.set drain true))
  with
  | old -> Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigterm old) f
  | exception Invalid_argument _ | exception Sys_error _ ->
      (* no signal support (exotic platform): serve without drain *)
      f ()

let serve_stdin config =
  let drain = Atomic.make false in
  with_sigpipe_ignored (fun () ->
      with_sigterm drain (fun () ->
          ignore (serve config ~drain ~in_fd:Unix.stdin ~out_fd:Unix.stdout);
          0))

let serve_socket config ~path =
  let drain = Atomic.make false in
  match
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    if Sys.file_exists path then Unix.unlink path;
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 8;
    fd
  with
  | exception Unix.Unix_error (err, _, _) ->
      let e =
        Errors.Io_error { path; reason = Unix.error_message err }
      in
      Fmt.epr "balign serve: %a@." Errors.pp e;
      Errors.exit_code e
  | listen_fd ->
      with_sigpipe_ignored @@ fun () ->
      with_sigterm drain (fun () ->
          let rec accept_loop () =
            if Atomic.get drain then ()
            else
              match Unix.accept listen_fd with
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
              | exception Unix.Unix_error (_, _, _) -> ()
              | conn, _ -> (
                  let reason =
                    Fun.protect
                      ~finally:(fun () ->
                        try Unix.close conn with Unix.Unix_error (_, _, _) -> ())
                      (fun () ->
                        serve config ~drain ~in_fd:conn ~out_fd:conn)
                  in
                  match reason with
                  | Shutdown_verb | Drained -> ()
                  (* one client hanging up (Client_gone) does not end
                     the daemon: serve the next connection *)
                  | Clean_eof | Stream_corrupt | Client_gone -> accept_loop ())
          in
          accept_loop ();
          (try Unix.close listen_fd with Unix.Unix_error (_, _, _) -> ());
          (try Unix.unlink path with Unix.Unix_error (_, _, _) | Sys_error _ -> ());
          0)
