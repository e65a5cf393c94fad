(** The typed error taxonomy of the whole pipeline.

    Every stage — front end, profiling, validation, reduction, solving,
    realization — reports failures as values of {!t} instead of calling
    [exit], [failwith] or raising ad-hoc exceptions.  Each constructor
    carries enough context (procedure ids, offending labels, budgets) for
    a caller to render a precise diagnostic or decide on a fallback.  The
    mapping to process exit codes used by [bin/balign] lives here too so
    that docs/ROBUSTNESS.md has a single source of truth. *)

type t =
  | Parse_error of { stage : string; message : string }
      (** front-end failure; [stage] is one of lexer/parser/check/lower *)
  | Invalid_input of { tokens : (int * string) list }
      (** non-integer workload input tokens as [(byte offset, token)],
          every offender reported *)
  | Invalid_cfg of { proc : int option; name : string option; reason : string }
      (** a CFG violates its structural invariants *)
  | Invalid_profile of {
      proc : int option;
      src : int option;
      dst : int option;
      reason : string;
    }  (** a profile entry is malformed (dangling label, bad count, …) *)
  | Profile_mismatch of {
      proc : int option;
      expected : int;
      got : int;
      what : string;
    }  (** profile shape disagrees with the program (proc/block counts) *)
  | Solver_timeout of {
      proc : int option;
      elapsed_ms : float;
      deadline_ms : int option;
    }  (** the TSP solver exhausted its wall-clock budget *)
  | Invalid_layout of { proc : int option; name : string option; reason : string }
      (** a realized layout failed the semantic faithfulness check *)
  | Io_error of { path : string; reason : string }
  | Unknown_model of { requested : string; known : string list }
      (** a model name (CLI flag or serve request field) is not in the
          {!Ba_machine.Model} registry *)
  | Usage of string  (** mutually exclusive flags and similar CLI misuse *)
  | Internal of { where : string; reason : string }
      (** an unexpected exception, converted rather than propagated *)

exception Error of t

let pp ppf = function
  | Parse_error { stage; message } -> Fmt.pf ppf "%s: %s" stage message
  | Invalid_input { tokens } ->
      Fmt.pf ppf "invalid input token%s %a"
        (if List.length tokens > 1 then "s" else "")
        Fmt.(
          list ~sep:comma (fun ppf (off, tok) ->
              Fmt.pf ppf "%S at offset %d" tok off))
        tokens
  | Invalid_cfg { proc; name; reason } ->
      Fmt.pf ppf "invalid CFG%a%a: %s"
        Fmt.(option (fun ppf p -> Fmt.pf ppf " in procedure %d" p))
        proc
        Fmt.(option (fun ppf n -> Fmt.pf ppf " (%s)" n))
        name reason
  | Invalid_profile { proc; src; dst; reason } ->
      Fmt.pf ppf "invalid profile%a%a: %s"
        Fmt.(option (fun ppf p -> Fmt.pf ppf " in procedure %d" p))
        proc
        Fmt.(
          option (fun ppf s ->
              Fmt.pf ppf ", edge %d%a" s
                (option (fun ppf d -> Fmt.pf ppf "->%d" d))
                dst))
        (match src with None -> None | Some s -> Some s)
        reason
  | Profile_mismatch { proc; expected; got; what } ->
      Fmt.pf ppf "profile mismatch%a: expected %d %s, got %d"
        Fmt.(option (fun ppf p -> Fmt.pf ppf " in procedure %d" p))
        proc expected what got
  | Solver_timeout { proc; elapsed_ms; deadline_ms } ->
      Fmt.pf ppf "solver budget exhausted%a after %.1f ms%a"
        Fmt.(option (fun ppf p -> Fmt.pf ppf " in procedure %d" p))
        proc elapsed_ms
        Fmt.(option (fun ppf d -> Fmt.pf ppf " (deadline %d ms)" d))
        deadline_ms
  | Invalid_layout { proc; name; reason } ->
      Fmt.pf ppf "unfaithful layout%a%a: %s"
        Fmt.(option (fun ppf p -> Fmt.pf ppf " in procedure %d" p))
        proc
        Fmt.(option (fun ppf n -> Fmt.pf ppf " (%s)" n))
        name reason
  | Io_error { path; reason } -> Fmt.pf ppf "%s: %s" path reason
  | Unknown_model { requested; known } ->
      (* non-breaking separator: this message travels in single-line
         wire payloads *)
      Fmt.pf ppf "unknown model %S (known: %s)" requested
        (String.concat ", " known)
  | Usage m -> Fmt.pf ppf "usage: %s" m
  | Internal { where; reason } -> Fmt.pf ppf "internal error in %s: %s" where reason

let to_string e = Fmt.str "%a" pp e

(** Documented process exit codes (see docs/ROBUSTNESS.md).  0 is
    success; 1 is reserved for untyped failures; 2 for CLI misuse;
    124/125 belong to Cmdliner. *)
let exit_code = function
  | Usage _ | Unknown_model _ -> 2
  | Parse_error _ -> 3
  | Invalid_input _ -> 4
  | Invalid_cfg _ -> 5
  | Invalid_profile _ | Profile_mismatch _ -> 6
  | Solver_timeout _ -> 7
  | Invalid_layout _ -> 8
  | Io_error _ -> 9
  | Internal _ -> 10

(** [of_exn where exn] converts an escaped exception into a typed error
    without losing the message. *)
let of_exn ~where = function
  | Error e -> e
  | Invalid_argument m | Failure m -> Internal { where; reason = m }
  | Sys_error m -> Io_error { path = where; reason = m }
  | e -> Internal { where; reason = Printexc.to_string e }

(** [catch ~where f] runs [f ()], converting any escaped exception into
    [Error (of_exn ~where exn)]. *)
let catch ~where f =
  match f () with
  | v -> Ok v
  | exception Stack_overflow ->
      Result.Error (Internal { where; reason = "stack overflow" })
  | exception e -> Result.Error (of_exn ~where e)
