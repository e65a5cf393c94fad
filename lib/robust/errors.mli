(** Typed errors for the whole pipeline: every stage reports failures as
    values of {!t} (with procedure ids and context) instead of calling
    [exit]/[failwith].  Includes the documented exit-code mapping used by
    the CLI (see docs/ROBUSTNESS.md). *)

type t =
  | Parse_error of { stage : string; message : string }
      (** front-end failure; [stage] is one of lexer/parser/check/lower *)
  | Invalid_input of { tokens : (int * string) list }
      (** non-integer input tokens as [(byte offset, token)]; all of them *)
  | Invalid_cfg of { proc : int option; name : string option; reason : string }
  | Invalid_profile of {
      proc : int option;
      src : int option;
      dst : int option;
      reason : string;
    }
  | Profile_mismatch of {
      proc : int option;
      expected : int;
      got : int;
      what : string;
    }
  | Solver_timeout of {
      proc : int option;
      elapsed_ms : float;
      deadline_ms : int option;
    }
  | Invalid_layout of { proc : int option; name : string option; reason : string }
  | Io_error of { path : string; reason : string }
  | Unknown_model of { requested : string; known : string list }
      (** a model name not in the {!Ba_machine.Model} registry; shares
          the CLI-misuse exit code *)
  | Usage of string
  | Internal of { where : string; reason : string }

exception Error of t

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Documented process exit code of an error (docs/ROBUSTNESS.md). *)
val exit_code : t -> int

(** Convert an escaped exception into a typed error. *)
val of_exn : where:string -> exn -> t

(** Run a thunk, converting any escaped exception to [Error _]. *)
val catch : where:string -> (unit -> 'a) -> ('a, t) result
