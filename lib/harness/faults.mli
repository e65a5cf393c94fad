(** Seeded, deterministic fault injection for the robustness suite: take
    a valid alignment scenario and break it in one catalogued way.  The
    fault suite asserts that every injected fault yields either a typed
    error or a successful (possibly degraded) alignment — never an
    uncaught exception. *)

open Ba_cfg
module Profile = Ba_profile.Profile

(** A complete alignment scenario. *)
type scenario = { cfgs : Cfg.t array; profile : Profile.t }

(** Faults on CFGs and profiles. *)
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

(** Every scenario fault kind, in a fixed order. *)
val all : kind list

val name : kind -> string

(** What the pipeline is required to do with a fault of this kind:
    [`Must_error] faults break an invariant validation must catch,
    [`Must_succeed] faults leave the scenario valid, [`Either] faults
    may or may not land on an invariant depending on the seed. *)
val expectation : kind -> [ `Must_error | `Must_succeed | `Either ]

(** [inject ~seed k s] is [s] with one fault of kind [k] applied.  The
    input scenario is not mutated.  Deterministic in [(seed, k)]. *)
val inject : seed:int -> kind -> scenario -> scenario

(** Faults on minic source text (front-end leg). *)
type source_kind =
  | Truncate_source  (** chop the text at a seeded offset *)
  | Corrupt_chars  (** overwrite a few characters with junk *)

val all_source : source_kind list
val source_name : source_kind -> string

(** [inject_source ~seed k src] corrupts the source text.  The result
    may or may not still compile; the contract is only "typed error or
    success, never an exception". *)
val inject_source : seed:int -> source_kind -> string -> string

(** {1 Protocol faults (the serve daemon's wire format)}

    Faults on framed request bytes, replayed at [balign serve] by the
    soak driver.  Each takes the JSON payload of one {e valid} request
    and returns the (possibly corrupt) bytes to write.  The daemon's
    contract: every fault yields a typed error response or a degraded
    but certified layout — never a crash, never an uncertified
    layout. *)

type protocol_kind =
  | Truncated_frame  (** frame cut mid-payload (= mid-request disconnect) *)
  | Garbage_json  (** valid framing, unparsable payload *)
  | Bad_length_header  (** the length line is not a decimal number *)
  | Oversized_frame  (** declared length over the server's frame limit *)
  | Missing_field  (** align request with its [cfg] removed *)
  | Wrong_type  (** [cfg] replaced by a string *)
  | Unknown_verb  (** verb nobody implements *)
  | Unknown_model  (** options naming a model not in the registry *)
  | Negative_deadline  (** clamped to 0: degraded but certified *)
  | Huge_cfg  (** more blocks than the server accepts *)
  | Unicode_escapes
      (** [\u] escapes at or above [0x800] and a surrogate pair in an
          extra field, the same with a lone surrogate, or an escaped
          verb: a valid response or a typed error, never the end of the
          conversation *)

val all_protocol : protocol_kind list
val protocol_name : protocol_kind -> string

(** What the daemon must do with the fault: reply with a typed error
    and keep serving ([`Error_response]), reply [ok] with a certified
    (possibly degraded) layout ([`Ok_response]), do either of the two,
    as the seed picks the fault's variant ([`Error_or_ok_response]), or
    reply with a final error and end the conversation cleanly
    ([`Ends_stream]). *)
val protocol_expectation :
  protocol_kind ->
  [ `Error_response | `Ok_response | `Error_or_ok_response | `Ends_stream ]

(** [inject_protocol ~seed k payload] is the byte string to write for a
    fault of kind [k].  [max_frame_bytes] / [max_blocks] must match the
    serving config so [Oversized_frame] stays stream-synchronized and
    [Huge_cfg] lands just over the CFG limit.  Deterministic in
    [(seed, k)]. *)
val inject_protocol :
  ?max_frame_bytes:int ->
  ?max_blocks:int ->
  seed:int ->
  protocol_kind ->
  string ->
  string
