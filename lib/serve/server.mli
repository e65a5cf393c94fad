(** The crash-only alignment daemon behind [balign serve].

    One request loop over a {!Wire.reader}: each align request (one
    procedure) runs inline through [Driver.align_checked] and is
    answered with a layout that passed {!Ba_check.Certify} — or with a
    typed {!Ba_robust.Errors.t}.  There is no third outcome: a request
    can never crash the server (per-request exception barrier,
    size-limited decoding, deadline clamping onto the anytime budget
    with the deterministic fallback chain), and an uncertified layout
    is never written to the wire.

    Exit discipline (crash-only): the daemon exits 0 on clean EOF, on
    the [shutdown] verb, and on a SIGTERM drain (buffered complete
    frames are answered, then the cache is persisted and the process
    leaves).  Stream corruption (truncated frame, garbage length
    header) terminates the conversation with one final error response
    and a clean exit — restart is the recovery path, and the persisted
    cache makes restarts warm.  See docs/SERVING.md. *)

type config = {
  model : Ba_machine.Model.t;
      (** default cost model for requests that carry no [model] field *)
  cache_capacity : int;  (** LRU entries (≥ 1) *)
  cache_file : string option;
      (** load at start (missing file = cold start), save on exit *)
  max_frame_bytes : int;  (** frames above this are skipped, typed error *)
  max_blocks : int;  (** CFGs above this are rejected, typed error *)
  default_deadline_ms : int option;  (** per-request budget when unspecified *)
  max_deadline_ms : int option;  (** clamp on client-requested budgets *)
  static_profile : bool;
      (** train every request on the {!Ba_analysis.Estimate} structural
          estimate instead of its submitted profile (a request can
          still opt out with ["profile": "collected"]) *)
}

val default : config

(** Why the request loop stopped (all of them exit 0). *)
type stop_reason =
  | Clean_eof  (** input closed at a frame boundary *)
  | Shutdown_verb  (** a client asked for [shutdown] *)
  | Drained  (** SIGTERM: buffered requests answered, then quit *)
  | Stream_corrupt  (** unrecoverable framing; error response sent *)
  | Client_gone
      (** a response write failed (EPIPE / closed fd): the client hung
          up before reading.  Ends this conversation only — in socket
          mode the daemon accepts the next connection *)

(** [serve config ~drain ~in_fd ~out_fd] runs the loop until a stop
    condition; never raises.  [drain], when flipped to [true] (e.g. by
    a signal handler), stops the loop after the already-buffered
    frames are answered. *)
val serve :
  config ->
  drain:bool Atomic.t ->
  in_fd:Unix.file_descr ->
  out_fd:Unix.file_descr ->
  stop_reason

(** [serve_stdin config] installs a SIGTERM drain handler, ignores
    SIGPIPE (a reader that hangs up must not kill the daemon), and
    serves stdin → stdout; returns the process exit code (0). *)
val serve_stdin : config -> int

(** [serve_socket config ~path] binds a Unix-domain socket and serves
    accepted connections sequentially until a [shutdown] verb or
    SIGTERM; returns the exit code (0, or 9 when the socket cannot be
    bound).  SIGPIPE is ignored for the daemon's lifetime: a client
    that disconnects mid-conversation costs its own connection
    ({!Client_gone}), never the accept loop. *)
val serve_socket : config -> path:string -> int
