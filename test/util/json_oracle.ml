(** The JSON emitter and parser as they stood before the single-pass
    cursor, kept as the oracle of the differential test: the shipped
    {!Ba_obs.Json} must return the same tree, the same error string and
    the same bytes on every input.  The one change since is the shared
    [\u] decoder, which encodes up to four UTF-8 bytes, combines
    surrogate pairs and rejects lone surrogates and non-hex digits. *)

type t = Ba_obs.Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---------------- emission ---------------- *)

let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec emit b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
      if not (Float.is_finite f) then Buffer.add_string b "null"
      else Buffer.add_string b (Printf.sprintf "%.6f" f)
  | String s -> escape_string b s
  | List l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          emit b v)
        l;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          escape_string b k;
          Buffer.add_char b ':';
          emit b v)
        kvs;
      Buffer.add_char b '}'

let to_string (v : t) : string =
  let b = Buffer.create 1024 in
  emit b v;
  Buffer.contents b

(* ---------------- parsing ---------------- *)

exception Parse_error of string

type cursor = { src : string; mutable pos : int }

let fail cur msg =
  raise (Parse_error (Printf.sprintf "at byte %d: %s" cur.pos msg))

let peek cur = if cur.pos < String.length cur.src then Some cur.src.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let skip_ws cur =
  while
    match peek cur with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance cur;
        true
    | _ -> false
  do
    ()
  done

let expect cur c =
  match peek cur with
  | Some c' when c' = c -> advance cur
  | Some c' -> fail cur (Printf.sprintf "expected %c, found %c" c c')
  | None -> fail cur (Printf.sprintf "expected %c, found end of input" c)

let parse_literal cur lit value =
  if
    cur.pos + String.length lit <= String.length cur.src
    && String.sub cur.src cur.pos (String.length lit) = lit
  then begin
    cur.pos <- cur.pos + String.length lit;
    value
  end
  else fail cur (Printf.sprintf "expected %s" lit)

(* One [\u] escape, [cur] just past its [u]: four hex digits, or a
   surrogate pair written as two escapes, added to [b] as UTF-8 (one to
   four bytes).  A short or non-hex escape and a lone surrogate fail at
   the first escape's digits. *)
let parse_u_escape cur b =
  let src = cur.src and start = cur.pos in
  let bad () =
    cur.pos <- start;
    fail cur "bad \\u escape"
  in
  let hex4 () =
    if cur.pos + 4 > String.length src then bad ();
    let code = ref 0 in
    for i = cur.pos to cur.pos + 3 do
      let d =
        match src.[i] with
        | '0' .. '9' as c -> Char.code c - 48
        | 'a' .. 'f' as c -> Char.code c - 87
        | 'A' .. 'F' as c -> Char.code c - 55
        | _ -> bad ()
      in
      code := (!code lsl 4) lor d
    done;
    cur.pos <- cur.pos + 4;
    !code
  in
  let code = hex4 () in
  let code =
    if code land 0xfc00 = 0xdc00 then bad ()
    else if code land 0xfc00 <> 0xd800 then code
    else if
      cur.pos + 2 <= String.length src
      && src.[cur.pos] = '\\'
      && src.[cur.pos + 1] = 'u'
    then begin
      cur.pos <- cur.pos + 2;
      let low = hex4 () in
      if low land 0xfc00 <> 0xdc00 then bad ();
      0x10000 + ((code land 0x3ff) lsl 10) + (low land 0x3ff)
    end
    else bad ()
  in
  Buffer.add_utf_8_uchar b (Uchar.of_int code)

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
            parse_u_escape cur b;
            loop ()
        | _ -> fail cur "bad escape")
    | Some c ->
        advance cur;
        Buffer.add_char b c;
        loop ()
  in
  loop ();
  Buffer.contents b

let parse_number cur =
  let start = cur.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
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

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some 'n' -> parse_literal cur "null" Null
  | Some 't' -> parse_literal cur "true" (Bool true)
  | Some 'f' -> parse_literal cur "false" (Bool false)
  | Some '"' -> String (parse_string_body cur)
  | Some '[' ->
      advance cur;
      skip_ws cur;
      if peek cur = Some ']' then begin
        advance cur;
        List []
      end
      else begin
        let items = ref [ parse_value cur ] in
        skip_ws cur;
        while peek cur = Some ',' do
          advance cur;
          items := parse_value cur :: !items;
          skip_ws cur
        done;
        expect cur ']';
        List (List.rev !items)
      end
  | Some '{' ->
      advance cur;
      skip_ws cur;
      if peek cur = Some '}' then begin
        advance cur;
        Obj []
      end
      else begin
        let field () =
          skip_ws cur;
          let k = parse_string_body cur in
          skip_ws cur;
          expect cur ':';
          let v = parse_value cur in
          (k, v)
        in
        let fields = ref [ field () ] in
        skip_ws cur;
        while peek cur = Some ',' do
          advance cur;
          fields := field () :: !fields;
          skip_ws cur
        done;
        expect cur '}';
        Obj (List.rev !fields)
      end
  | Some ('-' | '0' .. '9') -> parse_number cur
  | Some c -> fail cur (Printf.sprintf "unexpected character %c" c)

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
