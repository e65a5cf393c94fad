(** Fault injection for the robustness suite.

    Takes a valid alignment scenario (CFGs + whole-program profile, or a
    minic source text) and applies one of a catalogue of seeded,
    deterministic mutations: dropping profile edges, corrupting counts,
    dangling labels, permuting rows, truncating procedures, forging
    broken CFGs, chopping up sources.  The test driver asserts that every
    injected fault yields either a typed error or a successful degraded
    alignment — never an uncaught exception and never a semantically
    unfaithful layout.

    Each fault kind declares what the pipeline must do with it:
    [`Must_error] faults break an invariant that validation is required
    to catch; [`Must_succeed] faults leave the scenario valid (the
    pipeline has no excuse to fail); [`Either] faults may or may not
    land on an invariant depending on the seed. *)

open Ba_cfg
module Profile = Ba_profile.Profile

(** A complete alignment scenario. *)
type scenario = { cfgs : Cfg.t array; profile : Profile.t }

(** Faults on CFGs and profiles.  The catalogue is the robustness
    contract: every kind is exercised by the fault suite. *)
type kind =
  | Drop_profile_edge  (** forget one recorded transfer (still valid) *)
  | Zero_count  (** a recorded count of 0 *)
  | Negative_count  (** a recorded count below 0 *)
  | Dangling_label  (** a destination label outside the CFG *)
  | Non_edge  (** a destination that is no CFG successor of its source *)
  | Permute_rows  (** rotate the per-block rows of one procedure *)
  | Truncate_procs  (** profile for fewer procedures than the program *)
  | Extra_proc  (** profile for more procedures than the program *)
  | Truncate_blocks  (** one procedure's profile loses its tail blocks *)
  | Corrupt_call_graph  (** a dynamic call naming a missing procedure *)
  | Cfg_bad_successor  (** a block jumping outside the procedure *)
  | Cfg_bad_entry  (** entry label out of range *)
  | Cfg_degenerate_branch  (** a forged conditional with equal arms *)
  | Cfg_scrambled_ids  (** block array no longer indexed by id *)

let all =
  [
    Drop_profile_edge; Zero_count; Negative_count; Dangling_label; Non_edge;
    Permute_rows; Truncate_procs; Extra_proc; Truncate_blocks;
    Corrupt_call_graph; Cfg_bad_successor; Cfg_bad_entry;
    Cfg_degenerate_branch; Cfg_scrambled_ids;
  ]

let name = function
  | Drop_profile_edge -> "drop-profile-edge"
  | Zero_count -> "zero-count"
  | Negative_count -> "negative-count"
  | Dangling_label -> "dangling-label"
  | Non_edge -> "non-edge"
  | Permute_rows -> "permute-rows"
  | Truncate_procs -> "truncate-procs"
  | Extra_proc -> "extra-proc"
  | Truncate_blocks -> "truncate-blocks"
  | Corrupt_call_graph -> "corrupt-call-graph"
  | Cfg_bad_successor -> "cfg-bad-successor"
  | Cfg_bad_entry -> "cfg-bad-entry"
  | Cfg_degenerate_branch -> "cfg-degenerate-branch"
  | Cfg_scrambled_ids -> "cfg-scrambled-ids"

(** What the pipeline is required to do with a fault of this kind. *)
let expectation = function
  | Drop_profile_edge -> `Must_succeed
  | Zero_count | Negative_count | Dangling_label | Non_edge | Truncate_procs
  | Extra_proc | Truncate_blocks | Corrupt_call_graph | Cfg_bad_successor
  | Cfg_bad_entry | Cfg_degenerate_branch | Cfg_scrambled_ids ->
      `Must_error
  | Permute_rows -> `Either

(* ------------------------------------------------------------------ *)

let copy_proc (p : Profile.proc) : Profile.proc =
  { Profile.freqs = Array.map Array.copy p.Profile.freqs }

let copy_profile (t : Profile.t) : Profile.t =
  { Profile.procs = Array.map copy_proc t.Profile.procs; calls = t.Profile.calls }

(** Deterministically pick a procedure with a non-empty row, if any:
    [(fid, src)] of the row. *)
let pick_row rng (t : Profile.t) =
  let candidates = ref [] in
  Array.iteri
    (fun fid p ->
      Array.iteri
        (fun src row -> if Array.length row > 0 then candidates := (fid, src) :: !candidates)
        p.Profile.freqs)
    t.Profile.procs;
  match !candidates with
  | [] -> None
  | cs ->
      let cs = List.rev cs in
      Some (List.nth cs (Random.State.int rng (List.length cs)))

(** Overwrite entry [idx] of row [(fid, src)] with [f old_dst old_count]. *)
let mutate_entry (t : Profile.t) ~fid ~src ~idx f =
  let p = t.Profile.procs.(fid) in
  let d, n = p.Profile.freqs.(src).(idx) in
  p.Profile.freqs.(src).(idx) <- f d n

(** Corrupt one recorded count (or, on an empty profile, forge a row so
    the fault is present regardless). *)
let corrupt_count rng (s : scenario) f : scenario =
  let profile = copy_profile s.profile in
  (match pick_row rng profile with
  | Some (fid, src) ->
      let row = profile.Profile.procs.(fid).Profile.freqs.(src) in
      mutate_entry profile ~fid ~src
        ~idx:(Random.State.int rng (Array.length row))
        (fun d n -> (d, f n))
  | None ->
      (* empty profile: plant a corrupted entry at the entry block *)
      profile.Profile.procs.(0).Profile.freqs.(0) <- [| (0, f 1) |]);
  { s with profile }

let inject ~seed (k : kind) (s : scenario) : scenario =
  let rng = Random.State.make [| seed; Hashtbl.hash (name k) |] in
  let pick_cfg () = Random.State.int rng (Array.length s.cfgs) in
  match k with
  | Drop_profile_edge -> (
      let profile = copy_profile s.profile in
      match pick_row rng profile with
      | None -> { s with profile }
      | Some (fid, src) ->
          let p = profile.Profile.procs.(fid) in
          let row = p.Profile.freqs.(src) in
          let idx = Random.State.int rng (Array.length row) in
          p.Profile.freqs.(src) <-
            Array.of_list
              (List.filteri (fun i _ -> i <> idx) (Array.to_list row));
          { s with profile })
  | Zero_count -> corrupt_count rng s (fun _ -> 0)
  | Negative_count -> corrupt_count rng s (fun n -> -n - 1)
  | Dangling_label ->
      let profile = copy_profile s.profile in
      (match pick_row rng profile with
      | Some (fid, src) ->
          let row = profile.Profile.procs.(fid).Profile.freqs.(src) in
          let nb = Cfg.n_blocks s.cfgs.(fid) in
          mutate_entry profile ~fid ~src
            ~idx:(Random.State.int rng (Array.length row))
            (fun _ n -> (nb + 3, n))
      | None ->
          profile.Profile.procs.(0).Profile.freqs.(0) <-
            [| (Cfg.n_blocks s.cfgs.(0) + 3, 1) |]);
      { s with profile }
  | Non_edge ->
      (* record a transfer out of a block to a label that is not among
         its successors; exit blocks (no successors) make this easy *)
      let profile = copy_profile s.profile in
      let fid = pick_cfg () in
      let g = s.cfgs.(fid) in
      let nb = Cfg.n_blocks g in
      let found = ref None in
      for src = 0 to nb - 1 do
        for dst = 0 to nb - 1 do
          if
            !found = None
            && not (Block.has_successor (Cfg.block g src) dst)
          then found := Some (src, dst)
        done
      done;
      (match !found with
      | Some (src, dst) ->
          let p = profile.Profile.procs.(fid) in
          p.Profile.freqs.(src) <-
            Array.append p.Profile.freqs.(src) [| (dst, 7) |]
      | None ->
          (* complete CFG (no non-edge exists): dangle instead *)
          profile.Profile.procs.(fid).Profile.freqs.(0) <- [| (nb + 1, 7) |]);
      { s with profile }
  | Permute_rows ->
      let profile = copy_profile s.profile in
      let fid = pick_cfg () in
      let p = profile.Profile.procs.(fid) in
      let nb = Array.length p.Profile.freqs in
      let rotated =
        Array.init nb (fun i -> p.Profile.freqs.((i + 1) mod nb))
      in
      profile.Profile.procs.(fid) <- { Profile.freqs = rotated };
      { s with profile }
  | Truncate_procs ->
      let procs = s.profile.Profile.procs in
      let keep = max 0 (Array.length procs - 1) in
      {
        s with
        profile =
          { s.profile with Profile.procs = Array.sub procs 0 keep };
      }
  | Extra_proc ->
      let extra = { Profile.freqs = [| [||] |] } in
      {
        s with
        profile =
          {
            s.profile with
            Profile.procs = Array.append s.profile.Profile.procs [| extra |];
          };
      }
  | Truncate_blocks ->
      let profile = copy_profile s.profile in
      let fid = pick_cfg () in
      let p = profile.Profile.procs.(fid) in
      let nb = Array.length p.Profile.freqs in
      profile.Profile.procs.(fid) <-
        { Profile.freqs = Array.sub p.Profile.freqs 0 (max 0 (nb - 1)) };
      { s with profile }
  | Corrupt_call_graph ->
      let n_procs = Array.length s.profile.Profile.procs in
      {
        s with
        profile =
          {
            s.profile with
            Profile.calls = (n_procs + 1, 0, 5) :: s.profile.Profile.calls;
          };
      }
  | Cfg_bad_successor ->
      let fid = pick_cfg () in
      let g = s.cfgs.(fid) in
      let blocks = Array.copy g.Cfg.blocks in
      (* forge the record directly: Cfg.make would refuse to build this *)
      blocks.(0) <-
        {
          blocks.(0) with
          Block.term = Block.Goto (Cfg.n_blocks g + 2);
        };
      let cfgs = Array.copy s.cfgs in
      cfgs.(fid) <- { g with Cfg.blocks };
      { s with cfgs }
  | Cfg_bad_entry ->
      let fid = pick_cfg () in
      let cfgs = Array.copy s.cfgs in
      cfgs.(fid) <- { s.cfgs.(fid) with Cfg.entry = -2 };
      { s with cfgs }
  | Cfg_degenerate_branch ->
      let fid = pick_cfg () in
      let g = s.cfgs.(fid) in
      let blocks = Array.copy g.Cfg.blocks in
      let t = min 1 (Cfg.n_blocks g - 1) in
      blocks.(0) <- { blocks.(0) with Block.term = Block.Branch { t; f = t } };
      let cfgs = Array.copy s.cfgs in
      cfgs.(fid) <- { g with Cfg.blocks };
      { s with cfgs }
  | Cfg_scrambled_ids ->
      let fid = pick_cfg () in
      let g = s.cfgs.(fid) in
      let blocks = Array.copy g.Cfg.blocks in
      if Array.length blocks >= 2 then begin
        let b0 = blocks.(0) in
        blocks.(0) <- blocks.(1);
        blocks.(1) <- b0
      end;
      let cfgs = Array.copy s.cfgs in
      cfgs.(fid) <- { g with Cfg.blocks };
      { s with cfgs }

(* ------------------------------------------------------------------ *)

(** Faults on minic source text, for the front-end leg of the suite.
    Both may happen to leave the program compilable — the contract is
    only "typed error or success, never an exception". *)
type source_kind =
  | Truncate_source  (** chop the text at a seeded offset *)
  | Corrupt_chars  (** overwrite a few characters with junk *)

let all_source = [ Truncate_source; Corrupt_chars ]

let source_name = function
  | Truncate_source -> "truncate-source"
  | Corrupt_chars -> "corrupt-chars"

let inject_source ~seed (k : source_kind) (src : string) : string =
  let rng = Random.State.make [| seed; Hashtbl.hash (source_name k) |] in
  let len = String.length src in
  if len = 0 then src
  else
    match k with
    | Truncate_source -> String.sub src 0 (Random.State.int rng len)
    | Corrupt_chars ->
        let b = Bytes.of_string src in
        let junk = [| '?'; '@'; '#'; '\000'; '}' |] in
        for _ = 1 to 3 do
          Bytes.set b (Random.State.int rng len)
            junk.(Random.State.int rng (Array.length junk))
        done;
        Bytes.to_string b

(* ------------------------------------------------------------------ *)

(** Protocol faults: corrupt the framed bytes of one valid request.
    See the interface for the per-kind daemon contract. *)

module Wire = Ba_serve.Wire
module Json = Ba_obs.Json

type protocol_kind =
  | Truncated_frame
  | Garbage_json
  | Bad_length_header
  | Oversized_frame
  | Missing_field
  | Wrong_type
  | Unknown_verb
  | Unknown_model
  | Negative_deadline
  | Huge_cfg
  | Unicode_escapes

let all_protocol =
  [
    Truncated_frame; Garbage_json; Bad_length_header; Oversized_frame;
    Missing_field; Wrong_type; Unknown_verb; Unknown_model; Negative_deadline;
    Huge_cfg; Unicode_escapes;
  ]

let protocol_name = function
  | Truncated_frame -> "truncated-frame"
  | Garbage_json -> "garbage-json"
  | Bad_length_header -> "bad-length-header"
  | Oversized_frame -> "oversized-frame"
  | Missing_field -> "missing-field"
  | Wrong_type -> "wrong-type"
  | Unknown_verb -> "unknown-verb"
  | Unknown_model -> "unknown-model"
  | Negative_deadline -> "negative-deadline"
  | Huge_cfg -> "huge-cfg"
  | Unicode_escapes -> "unicode-escapes"

let protocol_expectation = function
  | Truncated_frame | Bad_length_header -> `Ends_stream
  | Garbage_json | Oversized_frame | Missing_field | Wrong_type | Unknown_verb
  | Unknown_model | Huge_cfg ->
      `Error_response
  | Negative_deadline -> `Ok_response
  | Unicode_escapes -> `Error_or_ok_response

(** Rewrite one top-level field of a request payload (parse, replace,
    re-emit canonically); falls back to the original payload if it was
    not an object — the fault then degenerates to a different typed
    error, which still satisfies the contract. *)
let rewrite payload f =
  match Json.parse payload with
  | Ok (Json.Obj fields) -> Json.to_string (Json.Obj (f fields))
  | Ok _ | Error _ -> payload

let inject_protocol ?(max_frame_bytes = 4 * 1024 * 1024) ?(max_blocks = 256)
    ~seed (k : protocol_kind) (payload : string) : string =
  let rng = Random.State.make [| seed; Hashtbl.hash (protocol_name k) |] in
  match k with
  | Truncated_frame ->
      let frame = Wire.encode_frame payload in
      (* keep the full header so the server commits to reading a body,
         then cut somewhere inside the payload *)
      let header = String.index frame '\n' + 1 in
      let keep = header + Random.State.int rng (String.length payload) in
      String.sub frame 0 keep
  | Garbage_json ->
      (* correct framing around bytes that cannot parse as JSON *)
      Wire.encode_frame ("@" ^ payload)
  | Bad_length_header -> "not-a-length\n" ^ payload ^ "\n"
  | Oversized_frame ->
      (* declare one byte over the limit and actually send that many
         padding bytes, so the skip leaves the stream synchronized *)
      let len = max_frame_bytes + 1 in
      Printf.sprintf "%d\n%s\n" len (String.make len 'x')
  | Missing_field ->
      Wire.encode_frame
        (rewrite payload (List.filter (fun (k, _) -> k <> "cfg")))
  | Wrong_type ->
      Wire.encode_frame
        (rewrite payload (fun fields ->
             List.map
               (fun (k, v) ->
                 if k = "cfg" then (k, Json.String "not a cfg") else (k, v))
               fields))
  | Unknown_verb ->
      Wire.encode_frame
        (rewrite payload (fun fields ->
             List.map
               (fun (k, v) ->
                 if k = "verb" then (k, Json.String "frobnicate") else (k, v))
               fields))
  | Unknown_model ->
      Wire.encode_frame
        (rewrite payload (fun fields ->
             ("options", Json.Obj [ ("model", Json.String "vliw-9000") ])
             :: List.filter (fun (k, _) -> k <> "options") fields))
  | Negative_deadline ->
      Wire.encode_frame
        (rewrite payload (fun fields ->
             ("options", Json.Obj [ ("deadline_ms", Json.Int (-100)) ])
             :: List.filter (fun (k, _) -> k <> "options") fields))
  | Unicode_escapes ->
      (* raw escape text, which a canonical re-emission would decode:
         three-byte characters and a surrogate pair in an extra field
         (a valid request), the same with a lone surrogate (a parse
         error), or an escaped verb (an unknown verb) *)
      let wide = {|"\u0800\u4000\uffff\ud83d\ude00|} in
      let field, drop =
        match Random.State.int rng 3 with
        | 0 -> ({|"note":|} ^ wide ^ {|"|}, "")
        | 1 -> ({|"note":|} ^ wide ^ {|\ud800"|}, "")
        | _ -> ({|"verb":"\u4000"|}, "verb")
      in
      let rest = rewrite payload (List.filter (fun (k, _) -> k <> drop)) in
      Wire.encode_frame
        ("{" ^ field ^ "," ^ String.sub rest 1 (String.length rest - 1))
  | Huge_cfg ->
      let blocks =
        List.init (max_blocks + 1) (fun _ ->
            Json.Obj
              [
                ("size", Json.Int 1);
                ("term", Json.Obj [ ("kind", Json.String "exit") ]);
              ])
      in
      let cfg =
        Json.Obj
          [
            ("name", Json.String "huge");
            ("entry", Json.Int 0);
            ("blocks", Json.List blocks);
          ]
      in
      Wire.encode_frame
        (rewrite payload (fun fields ->
             List.map (fun (k, v) -> if k = "cfg" then (k, cfg) else (k, v)) fields))
