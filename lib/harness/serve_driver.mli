(** In-process client driver for the serve daemon: runs
    {!Ba_serve.Server.serve} on another domain over a pair of pipes and
    exposes the client end — the harness the fault suite and the soak
    replay drive mixed good/bad traffic through.  A stopped server's
    domain stays alive, idle, and runs the next server started.

    Keep traffic in request/response lockstep ({!send} then {!recv}):
    the transport is a pipe with finite capacity, so writing unbounded
    traffic without reading responses can deadlock both sides. *)

type t

(** [start ?config ()] runs the server loop on an idle server domain,
    or on a new one if none is idle.  The returned handle owns both
    pipe ends. *)
val start : ?config:Ba_serve.Server.config -> unit -> t

(** Write raw bytes (possibly a corrupt frame) to the server's input. *)
val send_raw : t -> string -> unit

(** Frame and send one well-formed request. *)
val send : t -> Ba_serve.Wire.request -> unit

(** Next framed event from the server's output. *)
val recv : t -> Ba_serve.Wire.event

(** Next response, decoded; [None] once the server closed its output. *)
val recv_response : t -> (Ba_serve.Wire.client_response, string) result option

(** Flip the server's drain flag — the in-process equivalent of
    SIGTERM (the real signal path is exercised by test/serve.t). *)
val drain : t -> unit

(** Close the client→server direction (EOF / mid-request disconnect). *)
val close_input : t -> unit

(** Close the server→client direction: the client stops reading, so
    the server's next response write fails with EPIPE (SIGPIPE is
    ignored process-wide by {!start}, matching the real entry points)
    and the loop must stop with [Client_gone] — not crash. *)
val close_output : t -> unit

(** Wait for the server loop to end (closing the input first if still
    open) and return its stop reason.  [Error] carries an exception that escaped
    the loop — the soak suite asserts this never happens. *)
val stop : t -> (Ba_serve.Server.stop_reason, exn) result
