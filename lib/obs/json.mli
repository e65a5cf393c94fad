(** Minimal dependency-free JSON: canonical emission for the
    observability artifacts and the serve wire protocol, plus a strict
    parser.  Floats emit as ["%.6f"]; non-finite floats emit [null].

    {b Contract.}  The parser is a single pass over the input with fast
    paths for escape-free strings and plain integers ([-?[0-9]{1,18}]);
    escapes, floats, longer numbers and malformed input take the
    original byte-at-a-time readers.  It returns the same tree and the
    same ["at byte N: ..."] error string as those readers alone.  A
    [\u] escape takes exactly four hex digits and decodes to one to
    three bytes of UTF-8; a surrogate pair written as two escapes
    decodes to four.  A lone surrogate or a malformed escape is the
    error ["bad \u escape"] at the first escape's digits, never an
    exception.  The emitter writes the same bytes as the original
    closure-walking one.  [test/test_json.ml] checks all three against
    the originals, kept as an oracle in [test/util/json_oracle.ml].

    {b Re-entrancy.}  The module holds no mutable state at module level:
    each [parse] owns its cursor and each [to_string] its buffer, so
    any number of domains may parse and emit at once. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** Compact canonical rendering (insertion-ordered keys). *)
val to_string : t -> string

(** [write_file path v] writes [to_string v] plus a trailing newline. *)
val write_file : string -> t -> unit

(** Strict parse of a complete JSON document. *)
val parse : string -> (t, string) result

(** [member k v] is the value of field [k] when [v] is an object. *)
val member : string -> t -> t option

val to_list : t -> t list option

(** Numeric payload of an [Int] or [Float]. *)
val to_number : t -> float option

val to_str : t -> string option
