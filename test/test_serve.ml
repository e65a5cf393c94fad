(** Serve-layer tests: wire framing and codecs (including QCheck
    round-trips), the certified layout cache, and the end-to-end daemon
    over the in-process pipe driver. *)

open Ba_cfg
module Wire = Ba_serve.Wire
module Cache = Ba_serve.Cache
module Server = Ba_serve.Server
module Driver = Ba_harness.Serve_driver
module Profile = Ba_profile.Profile
module Synthetic = Ba_harness.Synthetic
module Errors = Ba_robust.Errors

(* ---------------- framing helpers ---------------- *)

(** Feed raw bytes to a reader through a pipe and collect events until
    the stream terminates. *)
let events_of_bytes ?max_frame_bytes bytes =
  let r, w = Unix.pipe ~cloexec:true () in
  let n = String.length bytes in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring w bytes !off (n - !off)
  done;
  Unix.close w;
  let reader = Wire.reader ?max_frame_bytes r in
  let rec collect acc =
    match Wire.read_frame reader with
    | Wire.Frame p -> collect (Wire.Frame p :: acc)
    | Wire.Oversized l -> collect (Wire.Oversized l :: acc)
    | (Wire.Eof | Wire.Truncated | Wire.Bad_header _ | Wire.Drained) as e ->
        List.rev (e :: acc)
  in
  let events = collect [] in
  Unix.close r;
  events

let test_frame_round_trip () =
  let payloads = [ ""; "x"; "{\"id\":1}"; String.make 1000 'p'; "a\nb\nc" ] in
  let bytes = String.concat "" (List.map Wire.encode_frame payloads) in
  let expected = List.map (fun p -> Wire.Frame p) payloads @ [ Wire.Eof ] in
  Alcotest.(check bool) "all frames back" true (events_of_bytes bytes = expected)

let test_frame_faults () =
  (match events_of_bytes "12\ntoo short" with
  | [ Wire.Truncated ] -> ()
  | _ -> Alcotest.fail "truncated not detected");
  (match events_of_bytes "nonsense\nrest" with
  | [ Wire.Bad_header _ ] -> ()
  | _ -> Alcotest.fail "bad header not detected");
  (* a huge declared length must not balloon memory and must leave the
     stream synchronized for the next frame *)
  let big = 5000 in
  let bytes =
    Printf.sprintf "%d\n%s\n" big (String.make big 'x') ^ Wire.encode_frame "ok"
  in
  match events_of_bytes ~max_frame_bytes:1024 bytes with
  | [ Wire.Oversized 5000; Wire.Frame "ok"; Wire.Eof ] -> ()
  | _ -> Alcotest.fail "oversized frame not skipped cleanly"

(* a pipe caps pre-written bytes at its capacity, so the big-frame test
   feeds the reader from a file: reads arrive in fd-sized chunks and the
   internal buffer must grow and compact across many refills *)
let events_of_file ?max_frame_bytes bytes =
  let path = Filename.temp_file "balign-wire" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      output_string oc bytes;
      close_out oc;
      let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
        (fun () ->
          let reader = Wire.reader ?max_frame_bytes fd in
          let rec collect acc =
            match Wire.read_frame reader with
            | (Wire.Frame _ | Wire.Oversized _) as e -> collect (e :: acc)
            | (Wire.Eof | Wire.Truncated | Wire.Bad_header _ | Wire.Drained) as e
              ->
                List.rev (e :: acc)
          in
          collect []))

let test_frame_large () =
  (* 1 MiB of bytes, newlines included, split across two frames *)
  let big = String.init 1_000_000 (fun i -> Char.chr (i mod 251)) in
  let bytes =
    Wire.encode_frame big ^ Wire.encode_frame "tail" ^ Wire.encode_frame big
  in
  match events_of_file bytes with
  | [ Wire.Frame a; Wire.Frame "tail"; Wire.Frame b; Wire.Eof ] ->
      Alcotest.(check bool) "first big frame intact" true (a = big);
      Alcotest.(check bool) "second big frame intact" true (b = big)
  | _ -> Alcotest.fail "large frames did not round-trip"

let test_frame_qcheck =
  (* arbitrary bytes, newlines and all: framing must never depend on
     payload content *)
  QCheck2.Test.make ~count:200 ~name:"frame encode/decode round-trips"
    QCheck2.Gen.(small_list (string_size (0 -- 200)))
    (fun payloads ->
      let bytes = String.concat "" (List.map Wire.encode_frame payloads) in
      events_of_bytes bytes
      = List.map (fun p -> Wire.Frame p) payloads @ [ Wire.Eof ])

(* ---------------- request codec ---------------- *)

(** Random already-normalized CFG + profile + options (the round-trip
    anchor: encoding starts from a valid in-memory request). *)
let request_gen =
  QCheck2.Gen.(
    let* seed = int_bound 100_000 in
    let rng = Random.State.make [| 0x3a11; seed |] in
    let n = 2 + Random.State.int rng 11 in
    let cfg = Synthetic.cfg rng ~n in
    let profile = Synthetic.profile rng cfg ~invocations:5 ~max_steps:60 in
    let deadline_ms =
      if Random.State.bool rng then Some (Random.State.int rng 1000) else None
    in
    let method_ =
      match Random.State.int rng 4 with
      | 0 -> Ba_align.Driver.Original
      | 1 -> Ba_align.Driver.Greedy
      | 2 -> Ba_align.Driver.Calder
      | _ -> Ba_align.Driver.Tsp Ba_align.Tsp_align.default
    in
    let model =
      match Random.State.int rng 4 with
      | 0 -> None
      | 1 -> Some Ba_machine.Model.alpha21164
      | 2 -> Some Ba_machine.Model.deep_pipeline
      | _ -> Some (Ba_machine.Model.ext_tsp ~window:512 ())
    in
    let id = Random.State.int rng 1_000_000 in
    let profile_mode =
      match Random.State.int rng 3 with
      | 0 -> None
      | 1 -> Some `Collected
      | _ -> Some `Static
    in
    return
      (Wire.Align
         { id; cfg; profile; options = { deadline_ms; method_; model; profile_mode } }))

let test_request_qcheck =
  QCheck2.Test.make ~count:200 ~name:"request encode/decode round-trips"
    request_gen (fun req ->
      match Wire.request_of_string (Wire.request_to_string req) with
      | Ok req' -> req = req'
      | Error _ -> false)

let test_request_decode_errors () =
  let expect what s pred =
    match Wire.request_of_string s with
    | Ok _ -> Alcotest.failf "%s accepted" what
    | Error e ->
        if not (pred e) then
          Alcotest.failf "%s: wrong error %s" what (Errors.to_string e)
  in
  expect "garbage" "@nope" (function Errors.Parse_error _ -> true | _ -> false);
  expect "missing id" {|{"verb":"stats"}|} (function
    | Errors.Parse_error _ -> true
    | _ -> false);
  expect "unknown verb" {|{"id":1,"verb":"frobnicate"}|} (function
    | Errors.Usage _ -> true
    | _ -> false);
  expect "missing cfg" {|{"id":1,"verb":"align"}|} (function
    | Errors.Parse_error _ -> true
    | _ -> false);
  expect "bad entry"
    {|{"id":1,"verb":"align","cfg":{"name":"f","entry":5,"blocks":[{"size":1,"term":{"kind":"exit"}}]},"profile":[[]]}|}
    (function Errors.Invalid_cfg _ -> true | _ -> false);
  expect "profile shape"
    {|{"id":1,"verb":"align","cfg":{"name":"f","entry":0,"blocks":[{"size":1,"term":{"kind":"exit"}}]},"profile":[[],[]]}|}
    (function Errors.Profile_mismatch _ -> true | _ -> false)

(* the block-count limit fires during decode, before anything big is
   built *)
let test_request_decode_errors_limited () =
  match
    Wire.request_of_string ~max_blocks:4
      {|{"id":1,"verb":"align","cfg":{"name":"f","entry":0,"blocks":[{"size":1,"term":{"kind":"exit"}},{"size":1,"term":{"kind":"exit"}},{"size":1,"term":{"kind":"exit"}},{"size":1,"term":{"kind":"exit"}},{"size":1,"term":{"kind":"exit"}}]},"profile":[[],[],[],[],[]]}|}
  with
  | Error (Errors.Invalid_cfg _) -> ()
  | Ok _ -> Alcotest.fail "oversized CFG accepted"
  | Error e -> Alcotest.failf "wrong error: %s" (Errors.to_string e)

(* Two bad blocks or two bad profile rows: the decoder reports the last
   one, as the right fold it once was did.  The messages were taken
   from the list-fold decoder and are pinned byte for byte. *)
let test_request_decode_error_precedence () =
  List.iter
    (fun (what, s, want) ->
      match Wire.request_of_string s with
      | Ok _ -> Alcotest.failf "%s accepted" what
      | Error e -> Alcotest.(check string) what want (Errors.to_string e))
    [
      ( "bad size in block 1, no term in block 3",
        {|{"id":1,"verb":"align","cfg":{"name":"f","entry":0,"blocks":[{"size":1,"term":{"kind":"goto","to":1}},{"size":"x","term":{"kind":"goto","to":2}},{"size":1,"term":{"kind":"goto","to":3}},{"size":1},{"size":1,"term":{"kind":"exit"}}]},"profile":[[],[],[],[],[]]}|},
        {|request: missing field "term"|} );
      ( "unknown kind in block 0, bad target in block 2",
        {|{"id":2,"verb":"align","cfg":{"name":"g","entry":0,"blocks":[{"size":1,"term":{"kind":"jump","to":1}},{"size":2,"term":{"kind":"goto","to":2}},{"size":1,"term":{"kind":"multiway","targets":[0,"a",3]}},{"size":-4,"term":{"kind":"exit"}}]},"profile":[[],[],[],[]]}|},
        "request: multiway target is not an integer" );
      ( "bad entry in row 0, row 2 not a list",
        {|{"id":3,"verb":"align","cfg":{"name":"h","entry":0,"blocks":[{"size":1,"term":{"kind":"branch","t":1,"f":2}},{"size":1,"term":{"kind":"goto","to":2}},{"size":1,"term":{"kind":"exit"}}]},"profile":[[[1,4],[2]],[[2,4]],5]}|},
        "request: profile row 2 is not a list" );
      ( "bad entries in rows 1 and 2",
        {|{"id":4,"verb":"align","cfg":{"name":"h","entry":0,"blocks":[{"size":1,"term":{"kind":"branch","t":1,"f":2}},{"size":1,"term":{"kind":"goto","to":2}},{"size":1,"term":{"kind":"exit"}}]},"profile":[[[1,4],[2,1]],[[2,"x"]],[[0,1,2],{"d":1}]]}|},
        "request: profile entry in row 2 is not [dst, count]" );
      ( "negative size in block 0, no arm in block 1",
        {|{"id":5,"verb":"align","cfg":{"name":"k","entry":0,"blocks":[{"size":-1,"term":{"kind":"goto","to":1}},{"size":1,"term":{"kind":"branch","t":0}},{"size":1,"term":{"kind":"exit"}}]},"profile":[[],[],[]]}|},
        {|request: missing field "f"|} );
      ( "negative size decodes, then fails the block check",
        {|{"id":6,"verb":"align","cfg":{"name":"k","entry":0,"blocks":[{"size":-1,"term":{"kind":"goto","to":1}},{"size":1,"term":{"kind":"goto","to":2}},{"size":1,"term":{"kind":"exit"}}]},"profile":[[],[],[]]}|},
        "invalid CFG (k): Block.make: negative size" );
    ]

(* every bundled procedure under its first data set, and each Scale
   family at 128 blocks under several profile scales *)
let bundled_requests =
  lazy
    (let procs =
       List.concat_map
         (fun (w : Ba_workloads.Workload.t) ->
           let compiled = Ba_workloads.Workload.compile w in
           let ds = List.hd (Ba_workloads.Workload.dataset_list w) in
           let profile =
             Ba_minic.Compile.profile compiled ~input:ds.Ba_workloads.Workload.input
           in
           Array.to_list
             (Array.mapi
                (fun fid cfg -> (cfg, Profile.proc profile fid))
                compiled.Ba_minic.Compile.cfgs))
         Ba_workloads.Workload_apps.everything
     in
     let scale =
       List.concat_map
         (fun fam ->
           List.map
             (fun invocations ->
               Ba_workloads.Scale.instance fam ~n:128 ~invocations)
             [ 1; 500; 4096 ])
         Ba_workloads.Scale.all
     in
     List.mapi
       (fun id (cfg, profile) ->
         Wire.Align { id; cfg; profile; options = Wire.default_options })
       (procs @ scale))

let test_request_round_trip_bundled () =
  List.iter
    (fun req ->
      match Wire.request_of_string (Wire.request_to_string req) with
      | Ok req' ->
          if req <> req' then
            Alcotest.failf "request %d changed in a round trip" (Wire.request_id req)
      | Error e ->
          Alcotest.failf "request %d rejected: %s" (Wire.request_id req)
            (Errors.to_string e))
    (Lazy.force bundled_requests)

let test_response_round_trip () =
  let payload =
    { Wire.layout = [| 0; 2; 1 |]; cost = 42; cached = true; warm = false;
      fallbacks = 1 }
  in
  (match
     Wire.response_of_string
       (Wire.response_to_string (Wire.Ok_layout { id = 7; payload }))
   with
  | Ok (Wire.C_ok { id = 7; payload = p }) ->
      Alcotest.(check bool) "payload preserved" true (p = payload)
  | _ -> Alcotest.fail "ok response did not round-trip");
  let e = Errors.Invalid_cfg { proc = None; name = Some "f"; reason = "r" } in
  match
    Wire.response_of_string
      (Wire.response_to_string (Wire.Error_response { id = Some 3; error = e }))
  with
  | Ok (Wire.C_error { id = Some 3; error }) ->
      Alcotest.(check string) "class" "invalid-cfg" error.Wire.eclass;
      Alcotest.(check int) "exit code" 5 error.Wire.eexit
  | _ -> Alcotest.fail "error response did not round-trip"

(* ---------------- cache ---------------- *)

let key i =
  {
    Cache.cfg_hash = Int64.of_int i;
    profile_hash = Int64.of_int (i * 7);
    model_hash = Cache.model_sketch Ba_machine.Model.default;
  }

let test_cache_lru () =
  let c = Cache.create ~capacity:2 in
  Cache.add c (key 1) [| 0; 1 |] 10;
  Cache.add c (key 2) [| 1; 0 |] 20;
  ignore (Cache.find c (key 1));
  (* 2 is now least-recently-used and must be the victim *)
  Cache.add c (key 3) [| 0 |] 30;
  Alcotest.(check int) "capacity kept" 2 (Cache.length c);
  Alcotest.(check bool) "lru evicted" true (Cache.find c (key 2) = None);
  Alcotest.(check bool) "recent kept" true (Cache.find c (key 1) <> None)

let test_cache_copies () =
  let c = Cache.create ~capacity:4 in
  let order = [| 0; 1; 2 |] in
  Cache.add c (key 1) order 5;
  order.(0) <- 99;
  (match Cache.find c (key 1) with
  | Some (o, 5) ->
      Alcotest.(check int) "stored copy" 0 o.(0);
      o.(1) <- 99;
      let o2, _ = Option.get (Cache.find c (key 1)) in
      Alcotest.(check int) "returned copy" 1 o2.(1)
  | _ -> Alcotest.fail "entry lost")

let test_cache_drift_hint () =
  let c = Cache.create ~capacity:4 in
  let mh = Cache.model_sketch Ba_machine.Model.default in
  let k1 = { Cache.cfg_hash = 5L; profile_hash = 1L; model_hash = mh } in
  let k2 = { Cache.cfg_hash = 5L; profile_hash = 2L; model_hash = mh } in
  Cache.add c k1 [| 0; 1 |] 1;
  Cache.add c k2 [| 1; 0 |] 2;
  (match Cache.drift_hint c k2 with
  | Some o -> Alcotest.(check bool) "most recent layout" true (o = [| 1; 0 |])
  | None -> Alcotest.fail "no drift hint");
  Cache.remove c k2;
  (match Cache.drift_hint c k2 with
  | Some o -> Alcotest.(check bool) "repointed to survivor" true (o = [| 0; 1 |])
  | None -> Alcotest.fail "drift hint lost with a survivor present");
  (* a different model never sees this CFG's layouts *)
  let k_other =
    { k1 with Cache.model_hash = Cache.model_sketch Ba_machine.Model.deep_pipeline }
  in
  Alcotest.(check bool) "per-model index" true (Cache.drift_hint c k_other = None);
  Cache.remove c k1;
  Alcotest.(check bool) "empty: no hint" true (Cache.drift_hint c k1 = None)

let test_cache_persistence () =
  let path = Filename.temp_file "balign-cache" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let c = Cache.create ~capacity:8 in
      Cache.add c (key 1) [| 0; 1; 2 |] 11;
      Cache.add c (key 2) [| 2; 1; 0 |] 22;
      (match Cache.save c path with
      | Ok () -> ()
      | Error e -> Alcotest.failf "save failed: %s" (Errors.to_string e));
      match Cache.load ~capacity:8 path with
      | Error e -> Alcotest.failf "load failed: %s" (Errors.to_string e)
      | Ok c' ->
          Alcotest.(check int) "entries back" 2 (Cache.length c');
          (match Cache.find c' (key 1) with
          | Some (o, 11) ->
              Alcotest.(check bool) "layout back" true (o = [| 0; 1; 2 |])
          | _ -> Alcotest.fail "entry 1 lost");
          (* malformed snapshots are typed errors, not crashes *)
          let oc = open_out path in
          output_string oc "{\"schema\":\"balign-cache-1\",\"entries\":[{}]}";
          close_out oc;
          (match Cache.load ~capacity:8 path with
          | Error (Errors.Io_error _) -> ()
          | Error e -> Alcotest.failf "wrong error: %s" (Errors.to_string e)
          | Ok _ -> Alcotest.fail "malformed snapshot accepted");
          let oc = open_out path in
          output_string oc "not json";
          close_out oc;
          match Cache.load ~capacity:8 path with
          | Error (Errors.Io_error _) -> ()
          | Error e -> Alcotest.failf "wrong error: %s" (Errors.to_string e)
          | Ok _ -> Alcotest.fail "garbage accepted")

(* ---------------- end to end ---------------- *)

let subject seed =
  let rng = Random.State.make [| 0x5e7e; seed |] in
  let cfg = Synthetic.cfg rng ~n:16 in
  let profile = Synthetic.profile rng cfg ~invocations:10 ~max_steps:200 in
  (cfg, profile)

let align_req ~id cfg profile =
  Wire.Align { id; cfg; profile; options = Wire.default_options }

let recv_ok t what =
  match Driver.recv_response t with
  | Some (Ok (Wire.C_ok { payload; _ })) -> payload
  | Some (Ok (Wire.C_error { error; _ })) ->
      Alcotest.failf "%s: error %s (%s)" what error.Wire.eclass error.Wire.emessage
  | _ -> Alcotest.failf "%s: no ok response" what

let stop_clean t what expected =
  match Driver.stop t with
  | Ok r when List.mem r expected -> ()
  | Ok _ -> Alcotest.failf "%s: unexpected stop reason" what
  | Error e -> Alcotest.failf "%s: server crashed: %s" what (Printexc.to_string e)

let test_server_cache_hit_identical () =
  let cfg, profile = subject 1 in
  let t = Driver.start () in
  Driver.send t (align_req ~id:1 cfg profile);
  let first = recv_ok t "first" in
  Alcotest.(check bool) "first is a miss" false first.Wire.cached;
  Driver.send t (align_req ~id:2 cfg profile);
  let second = recv_ok t "second" in
  Alcotest.(check bool) "second is a hit" true second.Wire.cached;
  Alcotest.(check bool) "bit-identical layout" true
    (first.Wire.layout = second.Wire.layout);
  Alcotest.(check int) "same certified cost" first.Wire.cost second.Wire.cost;
  stop_clean t "eof" [ Server.Clean_eof ]

let test_server_warm_start_on_drift () =
  let cfg, profile = subject 2 in
  let rng = Random.State.make [| 0xd41f7 |] in
  let drifted = Synthetic.profile rng cfg ~invocations:10 ~max_steps:200 in
  let t = Driver.start () in
  Driver.send t (align_req ~id:1 cfg profile);
  ignore (recv_ok t "first");
  Driver.send t (align_req ~id:2 cfg drifted);
  let second = recv_ok t "drift" in
  Alcotest.(check bool) "drift is a miss" false second.Wire.cached;
  Alcotest.(check bool) "drift warm-starts" true second.Wire.warm;
  stop_clean t "eof" [ Server.Clean_eof ]

let test_server_survives_fault_storm () =
  let cfg, profile = subject 3 in
  let t = Driver.start () in
  let payload = Wire.request_to_string (align_req ~id:9 cfg profile) in
  (* every framing-safe fault kind in a row, then a valid request must
     still be served *)
  List.iter
    (fun k ->
      match Ba_harness.Faults.protocol_expectation k with
      | `Ends_stream -> ()
      | `Error_response | `Ok_response -> (
          Driver.send_raw t
            (Ba_harness.Faults.inject_protocol ~max_frame_bytes:(4 * 1024 * 1024)
               ~max_blocks:10_000 ~seed:1 k payload);
          match Driver.recv_response t with
          | Some (Ok (Wire.C_error _)) | Some (Ok (Wire.C_ok _)) -> ()
          | _ -> Alcotest.failf "%s: no response" (Ba_harness.Faults.protocol_name k)))
    Ba_harness.Faults.all_protocol;
  Driver.send t (align_req ~id:10 cfg profile);
  ignore (recv_ok t "after the storm");
  stop_clean t "eof" [ Server.Clean_eof ]

let test_server_shutdown_verb () =
  let t = Driver.start () in
  Driver.send t (Wire.Shutdown { id = 1 });
  (match Driver.recv_response t with
  | Some (Ok (Wire.C_shutdown { id = 1 })) -> ()
  | _ -> Alcotest.fail "no shutdown ack");
  stop_clean t "shutdown" [ Server.Shutdown_verb ]

let test_server_drain () =
  let cfg, profile = subject 4 in
  let t = Driver.start () in
  Driver.send t (align_req ~id:1 cfg profile);
  ignore (recv_ok t "before drain");
  (* flip the drain flag (the in-process stand-in for SIGTERM), then
     offer one more request.  The flag is only polled before blocking
     reads, so depending on the interleaving the server either answers
     the buffered frame first or stops straight away — but it must stop
     with Drained either way, never hang on the pipe and never die
     mid-request (the deterministic SIGTERM path is test/serve.t's) *)
  Driver.drain t;
  Driver.send t (align_req ~id:2 cfg profile);
  (match Driver.recv_response t with
  | Some (Ok (Wire.C_ok _)) | None -> ()
  | Some (Ok _) -> Alcotest.fail "unexpected response during drain"
  | Some (Error m) -> Alcotest.failf "undecodable response: %s" m);
  stop_clean t "drain" [ Server.Drained ]

let test_server_client_gone () =
  (* the client hangs up before reading its response: the write fails
     with EPIPE (SIGPIPE ignored) and must end only this conversation —
     the loop returns Client_gone instead of the process dying *)
  let cfg, profile = subject 6 in
  let t = Driver.start () in
  Driver.close_output t;
  Driver.send t (align_req ~id:1 cfg profile);
  stop_clean t "client gone" [ Server.Client_gone ]

(* A deadline sent over the wire is turned into a monotonic instant: an
   instant one degrades along the fallback chain, and one too far out to
   represent (1e13 ms) saturates rather than wrapping into the past. *)
let test_server_deadline_extremes () =
  let t = Driver.start () in
  let request ~id deadline_ms =
    (* a fresh subject per request, so neither answer is a cache hit *)
    let cfg, profile = subject (6 + id) in
    Driver.send t
      (Wire.Align
         {
           id;
           cfg;
           profile;
           options = { Wire.default_options with Wire.deadline_ms = Some deadline_ms };
         });
    recv_ok t (Printf.sprintf "deadline %d ms" deadline_ms)
  in
  let instant = request ~id:1 0 in
  Alcotest.(check bool) "0 ms is a miss" false instant.Wire.cached;
  Alcotest.(check bool) "0 ms degrades" true (instant.Wire.fallbacks > 0);
  let huge = request ~id:2 10_000_000_000_000 in
  Alcotest.(check bool) "1e13 ms is a miss" false huge.Wire.cached;
  Alcotest.(check int) "1e13 ms never degrades" 0 huge.Wire.fallbacks;
  stop_clean t "eof" [ Server.Clean_eof ]

let test_server_poisoned_cache_rejected () =
  let cfg, profile = subject 5 in
  let path = Filename.temp_file "balign-poison" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (* persist a poisoned entry under the exact key of the request:
         a "layout" that is not even a permutation *)
      let c = Cache.create ~capacity:8 in
      let k = Cache.key_of cfg profile ~model:Ba_machine.Model.default in
      Cache.add c k (Array.make (Cfg.n_blocks cfg) 0) 1;
      (match Cache.save c path with
      | Ok () -> ()
      | Error e -> Alcotest.failf "save failed: %s" (Errors.to_string e));
      let config = { Server.default with Server.cache_file = Some path } in
      let t = Driver.start ~config ()
      in
      Driver.send t (align_req ~id:1 cfg profile);
      let p = recv_ok t "poisoned" in
      (* the poisoned layout must not be served: certification rejects
         it, the entry is evicted, and a fresh solve answers *)
      Alcotest.(check bool) "not served from cache" false p.Wire.cached;
      Alcotest.(check bool) "layout is a real permutation" true
        (Layout.is_valid cfg p.Wire.layout);
      stop_clean t "eof" [ Server.Clean_eof ])

let () =
  Alcotest.run "serve"
    [
      ( "wire",
        [
          Alcotest.test_case "frame round trip" `Quick test_frame_round_trip;
          Alcotest.test_case "frame faults" `Quick test_frame_faults;
          Alcotest.test_case "large frames across many reads" `Quick
            test_frame_large;
          QCheck_alcotest.to_alcotest test_frame_qcheck;
          QCheck_alcotest.to_alcotest test_request_qcheck;
          Alcotest.test_case "decode errors are typed" `Quick
            test_request_decode_errors;
          Alcotest.test_case "max_blocks limit" `Quick
            test_request_decode_errors_limited;
          Alcotest.test_case "decode error precedence pinned" `Quick
            test_request_decode_error_precedence;
          Alcotest.test_case "bundled and Scale requests round-trip" `Quick
            test_request_round_trip_bundled;
          Alcotest.test_case "response round trip" `Quick test_response_round_trip;
        ] );
      ( "cache",
        [
          Alcotest.test_case "lru eviction" `Quick test_cache_lru;
          Alcotest.test_case "defensive copies" `Quick test_cache_copies;
          Alcotest.test_case "drift hint" `Quick test_cache_drift_hint;
          Alcotest.test_case "persistence round trip" `Quick
            test_cache_persistence;
        ] );
      ( "server",
        [
          Alcotest.test_case "identical request is a bit-identical hit" `Quick
            test_server_cache_hit_identical;
          Alcotest.test_case "profile drift warm-starts" `Quick
            test_server_warm_start_on_drift;
          Alcotest.test_case "fault storm survived" `Quick
            test_server_survives_fault_storm;
          Alcotest.test_case "shutdown verb" `Quick test_server_shutdown_verb;
          Alcotest.test_case "drain stops cleanly, never mid-request" `Quick
            test_server_drain;
          Alcotest.test_case "client hangs up before reading" `Quick
            test_server_client_gone;
          Alcotest.test_case "deadline extremes over the wire" `Quick
            test_server_deadline_extremes;
          Alcotest.test_case "poisoned cache entry rejected" `Quick
            test_server_poisoned_cache_rejected;
        ] );
    ]
