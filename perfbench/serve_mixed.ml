(* serve-mixed: a closed loop of one client in lockstep with the serve
   daemon (Serve_driver: the server on its own domain, over pipes), a
   fresh server per cycle.  Each cycle sends four request classes in
   turn:

   - cold: every paper-suite procedure under its first data set;
   - hit: the same requests again, eight rounds (cache hits,
     re-certified);
   - drift: the second data set's profile (misses that warm-start);
   - deadline: each Scale family at 128 blocks under several profile
     variants, with a 50 ms deadline (budget cut-offs and fallbacks).

   The seed picks the variants and the request order; the order is
   fixed for the run, so every cycle must serve the same layouts.  Every response is re-certified client-side.
   Compiling, profiling and generating the requests is set-up.

   The traced run times the Wire calls on the client's own frames,
   replays the cold solves through the layer calls (Replay, checked
   against the shipped solver and against the served layout) and the
   fallback aligners of the deadline class, and reads the server's
   cache counters through the stats verb. *)

module Wire = Ba_serve.Wire
module Server = Ba_serve.Server
module Sd = Ba_harness.Serve_driver
module Scale = Ba_workloads.Scale
module Profile = Ba_profile.Profile
module Layout = Ba_cfg.Layout
module Driver = Ba_align.Driver
module Tsp_align = Ba_align.Tsp_align
module Certify = Ba_check.Certify
module Json = Ba_obs.Json

let model = Ba_machine.Model.default
let span = Spans.with_
let deadline_ms = 50
let variants = 4

(* a hit costs well under a millisecond, so the hit class is repeated
   to give its throughput enough samples per cycle *)
let hit_rounds = 8

type kind = Cold | Hit | Drift | Deadline

type request = {
  kind : kind;
  subject : int;  (** which cold request a hit repeats *)
  cfg : Ba_cfg.Cfg.t;
  profile : Profile.proc;
  blocks : int;
  original : int;  (** cost of the identity layout under [profile] *)
}

let request kind subject cfg profile =
  {
    kind;
    subject;
    cfg;
    profile;
    blocks = Ba_cfg.Cfg.n_blocks cfg;
    original =
      Certify.recompute_cost model cfg ~profile ~order:(Layout.identity cfg);
  }

let shuffle = Report.shuffle

(** The run's request sequence, one cycle long.  Cold requests carry
    the first data set's profile and drift requests the second's, so
    the solver work of a cycle does not depend on the seed. *)
let requests ~seed =
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let procs =
    List.concat_map
      (fun (p : Paper_suite.program) ->
        let profiles = List.map snd p.Paper_suite.profiles in
        Array.to_list
          (Array.mapi
             (fun fid cfg ->
               match List.map (fun t -> Profile.proc t fid) profiles with
               | [ a; b ] -> (cfg, a, b)
               | _ -> invalid_arg "serve-mixed: two data sets expected")
             p.Paper_suite.compiled.Ba_minic.Compile.cfgs))
      (Paper_suite.compile_suite ())
    |> Array.of_list |> shuffle rng
  in
  let cold = Array.mapi (fun i (cfg, a, _) -> request Cold i cfg a) procs in
  let hits =
    Array.concat
      (List.init hit_rounds (fun _ ->
           shuffle rng (Array.map (fun r -> { r with kind = Hit }) cold)))
  in
  let drift =
    shuffle rng (Array.mapi (fun i (cfg, _, b) -> request Drift i cfg b) procs)
  in
  let deadline =
    List.concat_map
      (fun fam ->
        List.init variants (fun _ ->
            let cfg, profile =
              Scale.instance fam ~n:128
                ~invocations:(1 + Random.State.int rng 4096)
            in
            request Deadline 0 cfg profile))
      Scale.all
    |> Array.of_list |> shuffle rng
  in
  Array.concat [ cold; hits; drift; deadline ]

let options kind =
  match kind with
  | Deadline -> { Wire.default_options with deadline_ms = Some deadline_ms }
  | Cold | Hit | Drift -> Wire.default_options

(** Per-run tallies. *)
type acc = {
  mutable attempted : int;
  mutable failed : int;
  mutable hit_ms : float list;
  mutable miss_ms : float list;
  mutable deadline_ms_ : float list;
  hits : Report.rate;  (** blocks answered from the cache *)
  aligned : Report.rate;  (** blocks laid out afresh, deadline class included *)
  mutable words : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable warm_starts : int;
  mutable frame_bytes : int;
  mutable frames : int;
  mutable encode_s : float;
  mutable decode_s : float;
  mutable first : (int * int * int) option;
}

let fail acc what =
  acc.failed <- acc.failed + 1;
  Printf.eprintf "perfbench: serve-mixed: %s\n%!" what

let counter stats path =
  List.fold_left
    (fun v k -> Option.bind v (Json.member k))
    (Some stats) path
  |> Fun.flip Option.bind Json.to_number
  |> Option.fold ~none:0 ~some:int_of_float

(** The server's own solve of a cold miss, replayed client-side: the
    replay must match both the shipped solver and the served layout. *)
let replay_cold acc (r : request) served =
  let inst =
    span "reduction.build" (fun () ->
        Ba_align.Reduction.build model r.cfg ~profile:r.profile)
  in
  acc.words <-
    acc.words
    + span "guard.words" (fun () ->
          Obj.reachable_words (Obj.repr inst.Ba_align.Reduction.dtsp));
  (* a one-procedure align_checked: task 0 of the default method seed *)
  let rng =
    Ba_engine.Task.seed_rng
      ~seed:(Driver.method_seed (Driver.Tsp Tsp_align.default))
      ~id:0
  in
  let order, ok = Replay.guarded Tsp_align.default ~rng inst in
  if not ok then fail acc "replay differs from Iterated.solve";
  if order <> served then fail acc "replay differs from the served layout"

let cycle ~trace acc t (reqs : request array) cold_layouts =
  let cost = ref 0 and original = ref 0 and checksum = ref 0 in
  Array.iteri
    (fun id (r : request) ->
      acc.attempted <- acc.attempted + 1;
      Spans.request := id;
      let t0 = Spans.now_ns () in
      let frame =
        span "wire.encode" (fun () ->
            Wire.encode_frame
              (Wire.request_to_string
                 (Wire.Align
                    {
                      id;
                      cfg = r.cfg;
                      profile = r.profile;
                      options = options r.kind;
                    })))
      in
      let t1 = Spans.now_ns () in
      let event =
        span "serve.wait" (fun () ->
            Sd.send_raw t frame;
            Sd.recv t)
      in
      let t2 = Spans.now_ns () in
      let response =
        match event with
        | Wire.Frame payload ->
            span "wire.decode" (fun () -> Wire.response_of_string payload)
        | _ -> Error "no response frame"
      in
      let t3 = Spans.now_ns () in
      let ms = float_of_int (t3 - t0) *. 1e-6 in
      acc.encode_s <- acc.encode_s +. (float_of_int (t1 - t0) *. 1e-9);
      acc.decode_s <- acc.decode_s +. (float_of_int (t3 - t2) *. 1e-9);
      acc.frame_bytes <- acc.frame_bytes + String.length frame;
      acc.frames <- acc.frames + 1;
      match response with
      | Ok (Wire.C_ok { id = rid; payload }) when rid = id -> (
          let layout = payload.Wire.layout in
          (match r.kind with
          | Deadline ->
              acc.deadline_ms_ <- ms :: acc.deadline_ms_;
              Report.add acc.aligned ~blocks:r.blocks ~secs:(ms *. 1e-3);
              if trace then
                span "chain.fallback" (fun () ->
                    ignore (Driver.align_proc Driver.Calder model r.cfg ~profile:r.profile);
                    ignore (Driver.align_proc Driver.Greedy model r.cfg ~profile:r.profile))
          | Cold | Hit | Drift ->
              if payload.Wire.cached then begin
                acc.hit_ms <- ms :: acc.hit_ms;
                Report.add acc.hits ~blocks:r.blocks ~secs:(ms *. 1e-3)
              end
              else begin
                acc.miss_ms <- ms :: acc.miss_ms;
                Report.add acc.aligned ~blocks:r.blocks ~secs:(ms *. 1e-3)
              end;
              if r.kind <> Hit then begin
                cost := !cost + payload.Wire.cost;
                original := !original + r.original;
                checksum := Report.checksum_into !checksum layout
              end);
          (match r.kind with
          | Cold ->
              cold_layouts.(r.subject) <- layout;
              if trace && not payload.Wire.cached then replay_cold acc r layout
          | Hit ->
              if not payload.Wire.cached then fail acc "a repeated request missed the cache";
              if layout <> cold_layouts.(r.subject) then
                fail acc "a cache hit returned another layout"
          | Drift | Deadline -> ());
          match
            span "certify.check" (fun () ->
                Certify.proc_cert ~hk:Certify.Skip ~sym_check:false ~proc:0
                  model r.cfg ~profile:r.profile ~order:layout)
          with
          | Ok c when c.Certify.cost = payload.Wire.cost -> ()
          | Ok _ -> fail acc "served cost differs from the certified one"
          | Error e -> fail acc ("uncertified layout: " ^ Certify.error_to_string e))
      | Ok (Wire.C_error { error; _ }) ->
          fail acc
            (Printf.sprintf "error response %s: %s" error.Wire.eclass
               error.Wire.emessage)
      | Ok _ -> fail acc "unexpected response"
      | Error m -> fail acc m)
    reqs;
  (!cost, !original, !checksum)

let finish acc t ~id =
  span "serve.lifecycle" (fun () ->
      Sd.send t (Wire.Stats { id });
      (match Sd.recv_response t with
      | Some (Ok (Wire.C_stats { stats; _ })) ->
          (* the counters are process-wide, so the last reading holds
             the totals of every cycle so far *)
          let hits = counter stats [ "cache"; "hits" ]
          and misses = counter stats [ "cache"; "misses" ]
          and warm = counter stats [ "cache"; "warm_starts" ] in
          acc.cache_hits <- hits;
          acc.cache_misses <- misses;
          acc.warm_starts <- warm
      | _ -> fail acc "stats: bad response");
      Sd.send t (Wire.Shutdown { id = id + 1 });
      (match Sd.recv_response t with
      | Some (Ok (Wire.C_shutdown _)) -> ()
      | _ -> fail acc "shutdown: bad response");
      match Sd.stop t with
      | Ok Server.Shutdown_verb -> ()
      | Ok _ -> fail acc "server stopped for another reason"
      | Error e -> fail acc ("server crashed: " ^ Printexc.to_string e))

let run ~seed ~seconds ~trace : Report.result =
  let config = { Server.default with Server.cache_capacity = 1024 } in
  let (reqs, server), setup_s =
    Report.setup_median
      ~repeats:(if trace then 1 else 3)
      ~dispose:(fun (_, t) -> ignore (Sd.stop t))
      (fun () ->
        let reqs = requests ~seed in
        (reqs, span "serve.lifecycle" (fun () -> Sd.start ~config ())))
  in
  let acc =
    {
      attempted = 0;
      failed = 0;
      hit_ms = [];
      miss_ms = [];
      deadline_ms_ = [];
      hits = Report.rate ();
      aligned = Report.rate ();
      words = 0;
      cache_hits = 0;
      cache_misses = 0;
      warm_starts = 0;
      frame_bytes = 0;
      frames = 0;
      encode_s = 0.;
      decode_s = 0.;
      first = None;
    }
  in
  let n_cold =
    Array.fold_left (fun n r -> if r.kind = Cold then n + 1 else n) 0 reqs
  in
  let cold_layouts = Array.make n_cold [||] in
  let server = ref (Some server) in
  let pass _ =
    span "pass" (fun () ->
        let t =
          match !server with
          | Some t ->
              server := None;
              t
          | None -> span "serve.lifecycle" (fun () -> Sd.start ~config ())
        in
        let fp = cycle ~trace acc t reqs cold_layouts in
        finish acc t ~id:(Array.length reqs);
        Report.end_pass acc.aligned;
        Report.end_pass acc.hits;
        match acc.first with
        | None -> acc.first <- Some fp
        | Some f -> if f <> fp then fail acc "a repeated cycle served other layouts")
  in
  let passes, wall_s = Report.measure ~seconds pass in
  let cost, original, checksum = Option.get acc.first in
  let penalty_ratio = float_of_int cost /. float_of_int original in
  let overshoot = List.map (fun ms -> ms -. float_of_int deadline_ms) acc.deadline_ms_ in
  let frac a b = float_of_int a /. float_of_int (max 1 b) in
  let latency =
    [
      ("hit_p50_ms", Report.percentile 0.5 acc.hit_ms);
      ("hit_p90_ms", Report.percentile 0.9 acc.hit_ms);
      ("miss_p50_ms", Report.percentile 0.5 acc.miss_ms);
      ("miss_p90_ms", Report.percentile 0.9 acc.miss_ms);
      ("deadline_p50_ms", Report.percentile 0.5 acc.deadline_ms_);
      ("deadline_p90_ms", Report.percentile 0.9 acc.deadline_ms_);
      ("budget_overshoot_p50_ms", Report.percentile 0.5 overshoot);
    ]
  in
  let serve_layers =
    [
      ("wire.encode_s", Json.Float (acc.encode_s /. float_of_int passes));
      ("wire.decode_s", Json.Float (acc.decode_s /. float_of_int passes));
      ("wire.frame_bytes", Json.Float (frac acc.frame_bytes acc.frames));
      ("cache.hit_frac", Json.Float (frac acc.cache_hits (acc.cache_hits + acc.cache_misses)));
      ("cache.warm_frac", Json.Float (frac acc.warm_starts acc.cache_misses));
    ]
  in
  let metrics, detail =
    if trace then Report.layer_metrics ~passes ~words:acc.words
    else
      ( [
          Report.m "setup_s" "s" setup_s;
          Report.m "peak_rss_mb" "MB" (Report.peak_rss_mb ());
          Report.m "align_blocks_per_s" "blocks/s" (Report.median_rate acc.aligned);
          Report.m "verify_blocks_per_s" "blocks/s" (Report.median_rate acc.hits);
          Report.m "penalty_ratio" "ratio" penalty_ratio;
        ],
        [] )
  in
  {
    Report.attempted = acc.attempted;
    failed = acc.failed;
    metrics;
    detail =
      ("latency", Json.Obj latency)
      :: ("serve_layers", Json.Obj serve_layers)
      :: ( "quality",
           Json.Obj
             [
               ("penalty_ratio", Json.Float penalty_ratio);
               ("tour_checksum", Json.Int checksum);
               ("requests_per_cycle", Json.Int (Array.length reqs));
               ("cycles", Json.Int passes);
               ("wall_s", Json.Float wall_s);
             ] )
      :: detail;
  }
