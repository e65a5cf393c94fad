(** A minimal JSON tree: enough to emit the observability artifacts
    (Chrome traces, metric snapshots, bench trajectories), to parse
    them back for validation in tests, and to carry the serve wire
    protocol — no external dependency.

    Emission is canonical: object keys keep insertion order, floats
    print as ["%.6f"], strings are escaped per RFC 8259.  The parser
    accepts exactly the JSON subset any conforming writer produces
    (no comments, no trailing commas); numbers with a fraction or
    exponent come back as [Float], bare integers as [Int]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---------------- emission ---------------- *)

(* Strings without a byte to escape are copied whole, integers are
   written digit by digit, and lists and objects are walked by plain
   recursion: no closure and no intermediate string per value. *)

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let rec first_escape s i =
  if i >= String.length s || needs_escape (String.unsafe_get s i) then i
  else first_escape s (i + 1)

let escape_char b = function
  | '"' -> Buffer.add_string b "\\\""
  | '\\' -> Buffer.add_string b "\\\\"
  | '\n' -> Buffer.add_string b "\\n"
  | '\r' -> Buffer.add_string b "\\r"
  | '\t' -> Buffer.add_string b "\\t"
  | c when Char.code c < 0x20 ->
      Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
  | c -> Buffer.add_char b c

let escape_string b s =
  Buffer.add_char b '"';
  let clean = first_escape s 0 in
  Buffer.add_substring b s 0 clean;
  for i = clean to String.length s - 1 do
    escape_char b (String.unsafe_get s i)
  done;
  Buffer.add_char b '"'

(* [string_of_int i] into [b], most significant digit first; the
   recursion runs on [-|i|] so that [min_int] needs no special case *)
let rec add_digits b m =
  if m <= -10 then add_digits b (m / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (m mod 10)))

let add_int b i =
  if i < 0 then begin
    Buffer.add_char b '-';
    add_digits b i
  end
  else add_digits b (-i)

let rec emit b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int i -> add_int b i
  | Float f ->
      if not (Float.is_finite f) then Buffer.add_string b "null"
      else Buffer.add_string b (Printf.sprintf "%.6f" f)
  | String s -> escape_string b s
  | List [] -> Buffer.add_string b "[]"
  | List (v :: vs) ->
      Buffer.add_char b '[';
      emit b v;
      emit_items b vs;
      Buffer.add_char b ']'
  | Obj [] -> Buffer.add_string b "{}"
  | Obj ((k, v) :: kvs) ->
      Buffer.add_char b '{';
      emit_field b k v;
      emit_fields b kvs;
      Buffer.add_char b '}'

and emit_items b = function
  | [] -> ()
  | v :: vs ->
      Buffer.add_char b ',';
      emit b v;
      emit_items b vs

and emit_field b k v =
  escape_string b k;
  Buffer.add_char b ':';
  emit b v

and emit_fields b = function
  | [] -> ()
  | (k, v) :: kvs ->
      Buffer.add_char b ',';
      emit_field b k v;
      emit_fields b kvs

let to_string (v : t) : string =
  let b = Buffer.create 1024 in
  emit b v;
  Buffer.contents b

let write_file path (v : t) =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string v);
      output_char oc '\n')

(* ---------------- parsing ---------------- *)

(* A single-pass cursor: every byte is read with [String.unsafe_get]
   under an explicit [pos < len] check.  The common shapes take a fast
   path — a string without an escape is one [String.sub], a plain
   integer ([-?[0-9]{1,18}], always in range) is converted in place —
   and everything else (escapes, floats, longer numbers, malformed
   input) goes through the original byte-at-a-time readers below, so
   every tree and every ["at byte N: ..."] error is the one they have
   always produced. *)

exception Parse_error of string

type cursor = { src : string; mutable pos : int }

let fail cur msg =
  raise (Parse_error (Printf.sprintf "at byte %d: %s" cur.pos msg))

let advance cur = cur.pos <- cur.pos + 1

(* [at cur c]: the next byte exists and is [c] *)
let at cur c =
  cur.pos < String.length cur.src && String.unsafe_get cur.src cur.pos = c

let skip_ws cur =
  let s = cur.src in
  while
    cur.pos < String.length s
    &&
    match String.unsafe_get s cur.pos with
    | ' ' | '\t' | '\n' | '\r' -> true
    | _ -> false
  do
    advance cur
  done

let expect cur c =
  if at cur c then advance cur
  else if cur.pos < String.length cur.src then
    fail cur (Printf.sprintf "expected %c, found %c" c cur.src.[cur.pos])
  else fail cur (Printf.sprintf "expected %c, found end of input" c)

let rec matches s pos lit i =
  i >= String.length lit
  || String.unsafe_get s (pos + i) = String.unsafe_get lit i
     && matches s pos lit (i + 1)

let parse_literal cur lit value =
  if
    cur.pos + String.length lit <= String.length cur.src
    && matches cur.src cur.pos lit 0
  then begin
    cur.pos <- cur.pos + String.length lit;
    value
  end
  else fail cur (Printf.sprintf "expected %s" lit)

(* ---- the original readers: escapes, non-plain numbers, errors ---- *)

let peek cur = if cur.pos < String.length cur.src then Some cur.src.[cur.pos] else None

let parse_string_body cur =
  expect cur '"';
  let b = Buffer.create 16 in
  let rec loop () =
    match peek cur with
    | None -> fail cur "unterminated string"
    | Some '"' -> advance cur
    | Some '\\' -> (
        advance cur;
        match peek cur with
        | Some '"' -> advance cur; Buffer.add_char b '"'; loop ()
        | Some '\\' -> advance cur; Buffer.add_char b '\\'; loop ()
        | Some '/' -> advance cur; Buffer.add_char b '/'; loop ()
        | Some 'n' -> advance cur; Buffer.add_char b '\n'; loop ()
        | Some 'r' -> advance cur; Buffer.add_char b '\r'; loop ()
        | Some 't' -> advance cur; Buffer.add_char b '\t'; loop ()
        | Some 'b' -> advance cur; Buffer.add_char b '\b'; loop ()
        | Some 'f' -> advance cur; Buffer.add_char b '\012'; loop ()
        | Some 'u' ->
            advance cur;
            if cur.pos + 4 > String.length cur.src then fail cur "bad \\u escape";
            let hex = String.sub cur.src cur.pos 4 in
            let code =
              try int_of_string ("0x" ^ hex)
              with _ -> fail cur "bad \\u escape"
            in
            cur.pos <- cur.pos + 4;
            (* decode as UTF-8; the emitter only produces < 0x20 *)
            if code < 0x80 then Buffer.add_char b (Char.chr code)
            else begin
              Buffer.add_char b (Char.chr (0xc0 lor (code lsr 6)));
              Buffer.add_char b (Char.chr (0x80 lor (code land 0x3f)))
            end;
            loop ()
        | _ -> fail cur "bad escape")
    | Some c ->
        advance cur;
        Buffer.add_char b c;
        loop ()
  in
  loop ();
  Buffer.contents b

let is_num_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

let parse_number_body cur =
  let start = cur.pos in
  while (match peek cur with Some c -> is_num_char c | None -> false) do
    advance cur
  done;
  let s = String.sub cur.src start (cur.pos - start) in
  if String.contains s '.' || String.contains s 'e' || String.contains s 'E'
  then
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> fail cur (Printf.sprintf "bad number %s" s)
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> fail cur (Printf.sprintf "bad number %s" s)

(* ---- fast paths ---- *)

(* the first ['"'] or ['\\'] at or after [i], or the end of [s] *)
let rec string_stop s i =
  if i >= String.length s then i
  else
    match String.unsafe_get s i with
    | '"' | '\\' -> i
    | _ -> string_stop s (i + 1)

let parse_string cur =
  let s = cur.src in
  if at cur '"' then begin
    let start = cur.pos + 1 in
    let stop = string_stop s start in
    if stop < String.length s && String.unsafe_get s stop = '"' then begin
      cur.pos <- stop + 1;
      String.sub s start (stop - start)
    end
    else parse_string_body cur
  end
  else parse_string_body cur

(* at a ['-'] or a digit *)
let parse_number cur =
  let s = cur.src in
  let len = String.length s in
  let neg = String.unsafe_get s cur.pos = '-' in
  let first = if neg then cur.pos + 1 else cur.pos in
  let i = ref first and n = ref 0 in
  while
    !i < len
    && !i - first < 18
    && match String.unsafe_get s !i with '0' .. '9' -> true | _ -> false
  do
    n := (10 * !n) + (Char.code (String.unsafe_get s !i) - 48);
    incr i
  done;
  if !i > first && not (!i < len && is_num_char (String.unsafe_get s !i))
  then begin
    cur.pos <- !i;
    Int (if neg then - !n else !n)
  end
  else parse_number_body cur

let rec parse_value cur =
  skip_ws cur;
  if cur.pos >= String.length cur.src then fail cur "unexpected end of input";
  match String.unsafe_get cur.src cur.pos with
  | 'n' -> parse_literal cur "null" Null
  | 't' -> parse_literal cur "true" (Bool true)
  | 'f' -> parse_literal cur "false" (Bool false)
  | '"' -> String (parse_string cur)
  | '[' ->
      advance cur;
      skip_ws cur;
      if at cur ']' then begin
        advance cur;
        List []
      end
      else List (parse_items cur)
  | '{' ->
      advance cur;
      skip_ws cur;
      if at cur '}' then begin
        advance cur;
        Obj []
      end
      else Obj (parse_fields cur)
  | '-' | '0' .. '9' -> parse_number cur
  | c -> fail cur (Printf.sprintf "unexpected character %c" c)

(* the elements of a non-empty list, through its closing bracket *)
and[@tail_mod_cons] parse_items cur =
  let v = parse_value cur in
  skip_ws cur;
  if at cur ',' then begin
    advance cur;
    v :: parse_items cur
  end
  else begin
    expect cur ']';
    [ v ]
  end

(* the fields of a non-empty object, through its closing brace *)
and[@tail_mod_cons] parse_fields cur =
  skip_ws cur;
  let k = parse_string cur in
  skip_ws cur;
  expect cur ':';
  let v = parse_value cur in
  skip_ws cur;
  if at cur ',' then begin
    advance cur;
    (k, v) :: parse_fields cur
  end
  else begin
    expect cur '}';
    [ (k, v) ]
  end

let parse (s : string) : (t, string) result =
  let cur = { src = s; pos = 0 } in
  match
    let v = parse_value cur in
    skip_ws cur;
    if cur.pos <> String.length s then fail cur "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error m -> Error m

(* ---------------- accessors ---------------- *)

let rec assoc key = function
  | [] -> None
  | (k, v) :: kvs -> if String.equal k key then Some v else assoc key kvs

let member key = function Obj kvs -> assoc key kvs | _ -> None

let to_list = function List l -> Some l | _ -> None

let to_number = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

let to_str = function String s -> Some s | _ -> None
