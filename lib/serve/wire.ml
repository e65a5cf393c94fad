(** Length-prefixed JSON framing and the align request/response codecs.

    The framing layer is deliberately paranoid: the byte stream is
    attacker-controlled (the fault suite replays truncated, garbage and
    oversized frames at it), so nothing here raises on malformed input
    — every failure mode is a constructor of {!event} or a typed
    {!Ba_robust.Errors.t}.  Oversized frames are skipped without ever
    buffering their payload, so a hostile length header cannot balloon
    the server's memory. *)

open Ba_cfg
module Profile = Ba_profile.Profile
module Errors = Ba_robust.Errors
module Json = Ba_obs.Json

(* ---------------- framing ---------------- *)

let encode_frame payload =
  Printf.sprintf "%d\n%s\n" (String.length payload) payload

(* A failed write means the peer is gone — EPIPE (the server entry
   points ignore SIGPIPE so a hung-up client surfaces here instead of
   killing the process) or a closed descriptor.  Report it; never
   raise: the caller ends the conversation, nothing else. *)
let write_frame fd payload =
  let s = encode_frame payload in
  let n = String.length s in
  let rec go off =
    if off >= n then Ok ()
    else
      match Unix.write_substring fd s off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error (err, _, _) -> Error (Unix.error_message err)
  in
  go 0

type reader = {
  fd : Unix.file_descr;
  max_frame_bytes : int;
  mutable buf : Bytes.t;  (** grows on demand; valid data is [pos, len) *)
  mutable pos : int;  (** start of the unconsumed bytes *)
  mutable len : int;  (** end of the valid bytes (exclusive) *)
  mutable to_skip : int;  (** oversized-payload bytes still to discard *)
}

let reader ?(max_frame_bytes = 4 * 1024 * 1024) fd =
  { fd; max_frame_bytes; buf = Bytes.create 65536; pos = 0; len = 0; to_skip = 0 }

(* the length header is a short decimal line; anything longer than this
   without a newline cannot be a valid header *)
let max_header_len = 20

type event =
  | Frame of string
  | Eof
  | Truncated
  | Bad_header of string
  | Oversized of int
  | Drained

(** What the buffer alone yields, without touching the fd.  Byte counts
    are relative to the start of the unconsumed region. *)
type parsed =
  | P_frame of string * int  (** payload, total bytes consumed *)
  | P_need_more
  | P_bad of string
  | P_oversized of int * int  (** declared length, header bytes consumed *)

(* first '\n' in [buf.[pos, len)]; the header is at most
   [max_header_len] bytes so the scan is O(1) per attempt *)
let index_nl buf pos len =
  let rec go i =
    if i >= len then None
    else if Bytes.get buf i = '\n' then Some i
    else go (i + 1)
  in
  go pos

let parse_buffer ~max_frame_bytes buf pos len =
  let avail = len - pos in
  match index_nl buf pos len with
  | None ->
      if avail > max_header_len then
        P_bad "length header is not a short decimal line"
      else P_need_more
  | Some nl -> (
      let header = Bytes.sub_string buf pos (nl - pos) in
      let ok_digits =
        header <> "" && String.for_all (fun c -> c >= '0' && c <= '9') header
        && String.length header <= 18
      in
      match if ok_digits then int_of_string_opt header else None with
      | None -> P_bad (Printf.sprintf "bad length header %S" header)
      | Some flen ->
          if flen > max_frame_bytes then P_oversized (flen, nl - pos + 1)
          else begin
            (* header + '\n' + payload + '\n' *)
            let total = nl - pos + 1 + flen + 1 in
            if avail < total then P_need_more
            else if Bytes.get buf (pos + total - 1) <> '\n' then
              P_bad "missing frame separator after payload"
            else P_frame (Bytes.sub_string buf (nl + 1) flen, total)
          end)

let consume r n =
  r.pos <- r.pos + n;
  if r.pos = r.len then begin
    r.pos <- 0;
    r.len <- 0
  end

(** One blocking read into the buffer: [`Got], [`Eof], or [`Stopped]
    when [stop] turned true (checked before the read and after every
    [EINTR]).  Reads land directly in [buf]; when it is full the
    consumed prefix is compacted away, else it doubles — amortized O(1)
    per byte, so a max-size frame arriving in small reads costs O(n),
    not O(n²).  Memory stays bounded: headers are capped at
    [max_header_len] and over-limit payloads are skipped unbuffered, so
    the buffer never exceeds ~2× (max_frame_bytes + framing). *)
let refill ~stop r =
  let rec go () =
    if stop () then `Stopped
    else begin
      if r.len = Bytes.length r.buf then
        if r.pos > 0 then begin
          Bytes.blit r.buf r.pos r.buf 0 (r.len - r.pos);
          r.len <- r.len - r.pos;
          r.pos <- 0
        end
        else begin
          let bigger = Bytes.create (2 * Bytes.length r.buf) in
          Bytes.blit r.buf 0 bigger 0 r.len;
          r.buf <- bigger
        end;
      match Unix.read r.fd r.buf r.len (Bytes.length r.buf - r.len) with
      | 0 -> `Eof
      | n ->
          r.len <- r.len + n;
          `Got
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error (_, _, _) -> `Eof
    end
  in
  go ()

let read_frame ?(stop = fun () -> false) r =
  let rec drop_skipped () =
    (* discard the tail of an oversized frame, separator included *)
    if r.to_skip > 0 then begin
      let have = r.len - r.pos in
      if have > 0 then begin
        let n = min have r.to_skip in
        consume r n;
        r.to_skip <- r.to_skip - n;
        drop_skipped ()
      end
      else
        match refill ~stop r with
        | `Got -> drop_skipped ()
        | `Eof -> `Eof
        | `Stopped -> `Stopped
    end
    else `Done
  in
  let empty r = r.len = r.pos in
  let rec next () =
    match parse_buffer ~max_frame_bytes:r.max_frame_bytes r.buf r.pos r.len with
    | P_frame (payload, total) ->
        consume r total;
        Frame payload
    | P_bad m -> Bad_header m
    | P_oversized (len, header) ->
        consume r header;
        r.to_skip <- len + 1;
        (match drop_skipped () with
        | `Done | `Stopped ->
            (* even when stopping we report the oversized frame first;
               the next call will drain/exit *)
            Oversized len
        | `Eof ->
            r.to_skip <- 0;
            Oversized len)
    | P_need_more -> (
        match refill ~stop r with
        | `Got -> next ()
        | `Stopped -> Drained
        | `Eof -> if empty r then Eof else Truncated)
  in
  match drop_skipped () with
  | `Done -> next ()
  | `Stopped -> Drained
  | `Eof -> if empty r then Eof else Truncated

let buffered_frames r =
  let rec count pos acc =
    match parse_buffer ~max_frame_bytes:r.max_frame_bytes r.buf pos r.len with
    | P_frame (_, total) -> count (pos + total) (acc + 1)
    | _ -> acc
  in
  let start = r.pos + r.to_skip in
  if start >= r.len then 0 else count start 0

(* ---------------- requests ---------------- *)

type align_options = {
  deadline_ms : int option;
  method_ : Ba_align.Driver.method_;
  model : Ba_machine.Model.t option;
      (** [None] = the server's configured default model *)
  profile_mode : [ `Collected | `Static ] option;
      (** [`Static] trains on the structural estimate instead of the
          request's profile; [None] = the server's configured default *)
}

let default_options =
  {
    deadline_ms = None;
    method_ = Ba_align.Driver.Tsp Ba_align.Tsp_align.default;
    model = None;
    profile_mode = None;
  }

type request =
  | Align of {
      id : int;
      cfg : Cfg.t;
      profile : Profile.proc;
      options : align_options;
    }
  | Stats of { id : int }
  | Shutdown of { id : int }

let request_id = function
  | Align { id; _ } | Stats { id } | Shutdown { id } -> id

let perr fmt =
  Printf.ksprintf
    (fun message -> Error (Errors.Parse_error { stage = "request"; message }))
    fmt

let ( let* ) r f = Result.bind r f

(* an integral number below 1e15 in magnitude; an [Int] is checked
   without the float round trip *)
let to_int = function
  | Json.Int i ->
      if i > -1_000_000_000_000_000 && i < 1_000_000_000_000_000 then Some i
      else None
  | v -> (
      match Json.to_number v with
      | Some f when Float.is_integer f && Float.abs f < 1e15 ->
          Some (int_of_float f)
      | _ -> None)

let field name doc =
  match Json.member name doc with
  | Some v -> Ok v
  | None -> perr "missing field %S" name

let int_field name doc =
  let* v = field name doc in
  match to_int v with Some i -> Ok i | None -> perr "field %S is not an integer" name

let str_field name doc =
  let* v = field name doc in
  match Json.to_str v with
  | Some s -> Ok s
  | None -> perr "field %S is not a string" name

let list_field name doc =
  let* v = field name doc in
  match Json.to_list v with
  | Some l -> Ok l
  | None -> perr "field %S is not a list" name

(* -------- CFG codec -------- *)

let term_to_json : Block.terminator -> Json.t = function
  | Block.Exit -> Json.Obj [ ("kind", Json.String "exit") ]
  | Block.Goto l -> Json.Obj [ ("kind", Json.String "goto"); ("to", Json.Int l) ]
  | Block.Branch { t; f } ->
      Json.Obj [ ("kind", Json.String "branch"); ("t", Json.Int t); ("f", Json.Int f) ]
  | Block.Multiway ts ->
      Json.Obj
        [
          ("kind", Json.String "multiway");
          ("targets", Json.List (Array.to_list (Array.map (fun l -> Json.Int l) ts)));
        ]

(* [fill_ints a i l] writes the integers of [l] into [a] from index
   [i]; false as soon as an element is not one *)
let rec fill_ints a i = function
  | [] -> true
  | v :: vs -> (
      match to_int v with
      | Some x ->
          a.(i) <- x;
          fill_ints a (i + 1) vs
      | None -> false)

let term_of_json v =
  let* kind = str_field "kind" v in
  match kind with
  | "exit" -> Ok Block.Exit
  | "goto" ->
      let* l = int_field "to" v in
      Ok (Block.Goto l)
  | "branch" ->
      let* t = int_field "t" v in
      let* f = int_field "f" v in
      Ok (Block.Branch { t; f })
  | "multiway" ->
      let* ts = list_field "targets" v in
      let targets = Array.make (List.length ts) 0 in
      if fill_ints targets 0 ts then Ok (Block.Multiway targets)
      else perr "multiway target is not an integer"
  | k -> perr "unknown terminator kind %S" k

let cfg_to_json (g : Cfg.t) : Json.t =
  Json.Obj
    [
      ("name", Json.String g.Cfg.name);
      ("entry", Json.Int g.Cfg.entry);
      ( "blocks",
        Json.List
          (Array.to_list
             (Array.map
                (fun b ->
                  Json.Obj
                    [
                      ("size", Json.Int b.Block.size);
                      ("term", term_to_json b.Block.term);
                    ])
                g.Cfg.blocks)) );
    ]

(* [decode_all f l] runs [f i v] on every element of [l], in order, and
   returns the error of the last element that fails: the precedence of
   the right fold over a list of results these decoders once were *)
let decode_all f l =
  let rec go i err = function
    | [] -> err
    | v :: vs -> go (i + 1) (match f i v with Ok () -> err | e -> e) vs
  in
  go 0 (Ok ()) l

let cfg_of_json ~max_blocks v =
  let* name = str_field "name" v in
  let* entry = int_field "entry" v in
  let* blocks = list_field "blocks" v in
  let n = List.length blocks in
  if n > max_blocks then
    Error
      (Errors.Invalid_cfg
         {
           proc = None;
           name = Some name;
           reason = Printf.sprintf "%d blocks exceeds the limit of %d" n max_blocks;
         })
  else
    let sizes = Array.make n 0 and terms = Array.make n Block.Exit in
    let block i b =
      let* size = int_field "size" b in
      let* t = field "term" b in
      let* term = term_of_json t in
      sizes.(i) <- size;
      terms.(i) <- term;
      Ok ()
    in
    let* () = decode_all block blocks in
    (* Block.make / Cfg.make validate shapes and raise Invalid_argument;
       route that into the typed pipeline rather than letting it escape *)
    match
      Cfg.make ~name ~entry
        (Array.init n (fun id -> Block.make ~id ~size:sizes.(id) terms.(id)))
    with
    | g -> Ok g
    | exception Invalid_argument reason ->
        Error (Errors.Invalid_cfg { proc = None; name = Some name; reason })

(* -------- profile codec -------- *)

let profile_to_json (p : Profile.proc) : Json.t =
  Json.List
    (Array.to_list
       (Array.map
          (fun row ->
            Json.List
              (Array.to_list
                 (Array.map
                    (fun (dst, count) -> Json.List [ Json.Int dst; Json.Int count ])
                    row)))
          p.Profile.freqs))

let profile_of_json ~n_blocks v =
  match Json.to_list v with
  | None -> perr "profile is not a list"
  | Some rows ->
      if List.length rows <> n_blocks then
        Error
          (Errors.Profile_mismatch
             {
               proc = None;
               expected = n_blocks;
               got = List.length rows;
               what = "profile rows";
             })
      else
        let freqs = Array.make n_blocks [||] in
        let row src v =
          let bad () = perr "profile entry in row %d is not [dst, count]" src in
          match Json.to_list v with
          | None -> perr "profile row %d is not a list" src
          | Some pairs ->
              let r = Array.make (List.length pairs) (0, 0) in
              let rec fill i = function
                | [] ->
                    freqs.(src) <- r;
                    Ok ()
                | Json.List [ d; c ] :: pairs -> (
                    match (to_int d, to_int c) with
                    | Some dst, Some count ->
                        r.(i) <- (dst, count);
                        fill (i + 1) pairs
                    | _ -> bad ())
                | _ -> bad ()
              in
              fill 0 pairs
        in
        let* () = decode_all row rows in
        (* of_freqs tolerates duplicates and zeros; anything genuinely
           invalid (dangling labels, negative counts) is left for the
           lint gate, which reports it as a typed profile error *)
        Ok (Profile.of_freqs freqs)

(* -------- options / request -------- *)

let options_of_json = function
  | None -> Ok default_options
  | Some v ->
      let* deadline_ms =
        match Json.member "deadline_ms" v with
        | None -> Ok None
        | Some d -> (
            match to_int d with
            | Some ms -> Ok (Some ms)
            | None -> perr "deadline_ms is not an integer")
      in
      let* method_ =
        match Json.member "method" v with
        | None -> Ok default_options.method_
        | Some m -> (
            match Json.to_str m with
            | Some s -> (
                match Ba_align.Driver.method_of_string s with
                | Some m -> Ok m
                | None -> Error (Errors.Usage (Printf.sprintf "unknown method %S" s)))
            | None -> perr "method is not a string")
      in
      let* model =
        match Json.member "model" v with
        | None -> Ok None
        | Some m -> (
            match Json.to_str m with
            | None -> perr "model is not a string"
            | Some s -> (
                match Ba_machine.Model.find s with
                | Some model -> Ok (Some model)
                | None ->
                    Error
                      (Errors.Unknown_model
                         { requested = s; known = Ba_machine.Model.known })))
      in
      let* profile_mode =
        match Json.member "profile" v with
        | None -> Ok None
        | Some p -> (
            match Json.to_str p with
            | Some "collected" -> Ok (Some `Collected)
            | Some "static" -> Ok (Some `Static)
            | Some s ->
                Error
                  (Errors.Usage
                     (Printf.sprintf
                        "unknown profile mode %S (collected | static)" s))
            | None -> perr "profile is not a string")
      in
      Ok { deadline_ms; method_; model; profile_mode }

let method_string = Ba_align.Driver.method_name

let options_to_json (o : align_options) : Json.t =
  Json.Obj
    (List.filter_map Fun.id
       [
         Option.map (fun ms -> ("deadline_ms", Json.Int ms)) o.deadline_ms;
         Some ("method", Json.String (method_string o.method_));
         Option.map
           (fun m -> ("model", Json.String (Ba_machine.Model.to_string m)))
           o.model;
         Option.map
           (fun pm ->
             ( "profile",
               Json.String
                 (match pm with `Collected -> "collected" | `Static -> "static")
             ))
           o.profile_mode;
       ])

let request_of_string ?(max_blocks = 100_000) s =
  match Json.parse s with
  | Error m -> Error (Errors.Parse_error { stage = "frame-json"; message = m })
  | Ok doc -> (
      let* id = int_field "id" doc in
      let* verb = str_field "verb" doc in
      match verb with
      | "stats" -> Ok (Stats { id })
      | "shutdown" -> Ok (Shutdown { id })
      | "align" ->
          let* cfg_json = field "cfg" doc in
          let* cfg = cfg_of_json ~max_blocks cfg_json in
          let* prof_json = field "profile" doc in
          let* profile = profile_of_json ~n_blocks:(Cfg.n_blocks cfg) prof_json in
          let* options = options_of_json (Json.member "options" doc) in
          Ok (Align { id; cfg; profile; options })
      | v -> Error (Errors.Usage (Printf.sprintf "unknown verb %S" v)))

let request_to_string = function
  | Stats { id } ->
      Json.to_string
        (Json.Obj [ ("id", Json.Int id); ("verb", Json.String "stats") ])
  | Shutdown { id } ->
      Json.to_string
        (Json.Obj [ ("id", Json.Int id); ("verb", Json.String "shutdown") ])
  | Align { id; cfg; profile; options } ->
      Json.to_string
        (Json.Obj
           [
             ("id", Json.Int id);
             ("verb", Json.String "align");
             ("cfg", cfg_to_json cfg);
             ("profile", profile_to_json profile);
             ("options", options_to_json options);
           ])

(* ---------------- responses ---------------- *)

let error_class : Errors.t -> string = function
  | Errors.Parse_error _ -> "parse-error"
  | Errors.Invalid_input _ -> "invalid-input"
  | Errors.Invalid_cfg _ -> "invalid-cfg"
  | Errors.Invalid_profile _ -> "invalid-profile"
  | Errors.Profile_mismatch _ -> "profile-mismatch"
  | Errors.Solver_timeout _ -> "solver-timeout"
  | Errors.Invalid_layout _ -> "invalid-layout"
  | Errors.Io_error _ -> "io-error"
  | Errors.Unknown_model _ -> "unknown-model"
  | Errors.Usage _ -> "usage"
  | Errors.Internal _ -> "internal"

type ok_payload = {
  layout : Layout.order;
  cost : int;
  cached : bool;
  warm : bool;
  fallbacks : int;
}

type response =
  | Ok_layout of { id : int; payload : ok_payload }
  | Error_response of { id : int option; error : Errors.t }
  | Stats_response of { id : int; stats : Json.t }
  | Shutdown_ack of { id : int }

let response_to_string = function
  | Ok_layout { id; payload = p } ->
      Json.to_string
        (Json.Obj
           [
             ("id", Json.Int id);
             ("status", Json.String "ok");
             ( "layout",
               Json.List (Array.to_list (Array.map (fun l -> Json.Int l) p.layout))
             );
             ("cost", Json.Int p.cost);
             ("cached", Json.Bool p.cached);
             ("warm", Json.Bool p.warm);
             ("fallbacks", Json.Int p.fallbacks);
           ])
  | Error_response { id; error } ->
      Json.to_string
        (Json.Obj
           [
             ("id", match id with Some i -> Json.Int i | None -> Json.Null);
             ("status", Json.String "error");
             ( "error",
               Json.Obj
                 [
                   ("class", Json.String (error_class error));
                   ("exit_code", Json.Int (Errors.exit_code error));
                   ("message", Json.String (Errors.to_string error));
                 ] );
           ])
  | Stats_response { id; stats } ->
      Json.to_string
        (Json.Obj
           [
             ("id", Json.Int id);
             ("status", Json.String "stats");
             ("stats", stats);
           ])
  | Shutdown_ack { id } ->
      Json.to_string
        (Json.Obj [ ("id", Json.Int id); ("status", Json.String "shutdown") ])

(* the client-side decoder rebuilds a structural view of the response;
   typed errors travel as their wire triple (class/exit/message) —
   the client never reconstructs the server's Errors.t *)
type client_error = { eclass : string; eexit : int; emessage : string }

type client_response =
  | C_ok of { id : int; payload : ok_payload }
  | C_error of { id : int option; error : client_error }
  | C_stats of { id : int; stats : Json.t }
  | C_shutdown of { id : int }

let response_of_string s =
  let ( let* ) = Result.bind in
  let fail m = Error m in
  match Json.parse s with
  | Error m -> fail ("invalid JSON: " ^ m)
  | Ok doc -> (
      let* status =
        match Json.member "status" doc with
        | Some v -> (
            match Json.to_str v with
            | Some s -> Ok s
            | None -> fail "status is not a string")
        | None -> fail "missing status"
      in
      let int_of name =
        match Json.member name doc with
        | Some v -> (
            match to_int v with Some i -> Ok i | None -> fail (name ^ " not an int"))
        | None -> fail ("missing " ^ name)
      in
      match status with
      | "shutdown" ->
          let* id = int_of "id" in
          Ok (C_shutdown { id })
      | "stats" ->
          let* id = int_of "id" in
          let* stats =
            match Json.member "stats" doc with
            | Some v -> Ok v
            | None -> fail "missing stats"
          in
          Ok (C_stats { id; stats })
      | "ok" ->
          let* id = int_of "id" in
          let* layout =
            match Json.member "layout" doc with
            | Some v -> (
                match Json.to_list v with
                | Some l -> (
                    match
                      List.map (fun x -> Option.get (to_int x)) l
                    with
                    | l -> Ok (Array.of_list l)
                    | exception _ -> fail "layout entry not an int")
                | None -> fail "layout not a list")
            | None -> fail "missing layout"
          in
          let* cost = int_of "cost" in
          let bool_of name =
            match Json.member name doc with
            | Some (Json.Bool b) -> Ok b
            | _ -> fail (name ^ " not a bool")
          in
          let* cached = bool_of "cached" in
          let* warm = bool_of "warm" in
          let* fallbacks = int_of "fallbacks" in
          Ok (C_ok { id; payload = { layout; cost; cached; warm; fallbacks } })
      | "error" ->
          let id =
            match Json.member "id" doc with
            | Some (Json.Int i) -> Some i
            | _ -> None
          in
          let* e =
            match Json.member "error" doc with
            | Some e -> Ok e
            | None -> fail "missing error"
          in
          let* eclass =
            match Option.bind (Json.member "class" e) Json.to_str with
            | Some s -> Ok s
            | None -> fail "missing error class"
          in
          let* eexit =
            match Option.bind (Json.member "exit_code" e) to_int with
            | Some i -> Ok i
            | None -> fail "missing error exit_code"
          in
          let* emessage =
            match Option.bind (Json.member "message" e) Json.to_str with
            | Some s -> Ok s
            | None -> fail "missing error message"
          in
          Ok (C_error { id; error = { eclass; eexit; emessage } })
      | s -> fail (Printf.sprintf "unknown status %S" s))
