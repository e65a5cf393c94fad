(** JSON differential suite: the shipped single-pass parser and emitter
    ({!Ba_obs.Json}) against the byte-at-a-time originals kept as an
    oracle in {!Ba_testutil.Json_oracle}.  On every input both parsers
    must return the same tree, the same error string or the same
    exception, and on every tree both emitters must write the same
    bytes.  Inputs: QCheck documents and JSON-alphabet noise, listed
    edge cases, and every truncation and every single-byte mutation of
    a few real wire frames.  The last case runs the codec on two
    domains at once. *)

module Json = Ba_obs.Json
module Oracle = Ba_testutil.Json_oracle
module Wire = Ba_serve.Wire
module Profile = Ba_profile.Profile
module Workload = Ba_workloads.Workload
module Errors = Ba_robust.Errors

(* an exception is an outcome too: the oracle raises [Invalid_argument]
   on a \u escape at or above 0x4000, and so must the parser *)
let outcome f x = match f x with v -> Ok v | exception e -> Error (Printexc.to_string e)

let show = function
  | Ok (Ok t) -> "Ok " ^ Oracle.to_string t
  | Ok (Error m) -> "Error " ^ m
  | Error e -> "raised " ^ e

(* [None] when the shipped parser and emitter agree with the oracle on
   [s], else what differs *)
let disagreement s =
  let got = outcome Json.parse s and want = outcome Oracle.parse s in
  if got <> want then
    Some (Printf.sprintf "parse %S: got %s, oracle %s" s (show got) (show want))
  else
    match got with
    | Ok (Ok t) when Json.to_string t <> Oracle.to_string t ->
        Some (Printf.sprintf "emit of the tree of %S differs" s)
    | _ -> None

let check_doc s =
  match disagreement s with Some m -> Alcotest.fail m | None -> ()

(* ---------------- edge cases ---------------- *)

let edge_cases =
  [
    "-0"; "007"; "[01,-0,-007]"; "123456789012345678"; "-123456789012345678";
    "999999999999999999"; "-999999999999999999"; "1234567890123456789";
    "-1234567890123456789"; "4611686018427387903"; "-4611686018427387904";
    "4611686018427387904"; "-4611686018427387905"; "123456789012345678901234";
    "1e5"; "1E5"; "-1.5e-3"; "1.0e+3"; "0.5"; "-0.0"; "1e"; "1.5.5"; "-.5";
    "-"; "--1"; "1-2"; "1+"; "+1"; "[1-2]"; "[-]"; "{\"a\":-}";
    "\"\\u00e9\""; "\"\\u0000\""; "\"\\u001f\""; "\"\\u07ff\""; "\"\\u0800\"";
    "\"\\u3fff\""; "\"\\u4000\""; "\"\\uffff\""; "\"\\u12\""; "\"\\u12g4\"";
    "\"\\u_123\""; "\"\\u1_23\""; "\"\\q\""; "\"\\"; "\"a\\\"b\\\\c\\/d\"";
    "\"\\b\\f\\n\\r\\t\""; "\"\x01raw\ncontrol\""; "\"abc"; "\""; "\"\\u";
    "[1] x"; "[1]   "; "  null  "; "null"; "nul"; "nullx"; "true"; "tru";
    "false"; "fals"; "[1,]"; "[,1]"; "[1 2]"; "[1,,2]"; "["; "]"; "[ ]";
    "{}"; "{ }"; "{"; "{\"a\"}"; "{\"a\" 1}"; "{\"a\":}"; "{,}"; "{\"a\":1,}";
    "{1:2}"; "{\"a\":1,\"a\":2}"; "{\"k\\\"q\":[true,false,null]}"; ""; "   ";
    "\t\r\n[\t1\r,\n2 ]"; "'single'"; "@"; "\xff"; "[\"\xc3\xa9\"]";
  ]

let test_edge_cases () = List.iter check_doc edge_cases

(* the pinned outcomes behind the prose of json.mli *)
let test_edge_values () =
  let ok s v = Alcotest.(check bool) s true (Json.parse s = Ok v) in
  let err s m = Alcotest.(check bool) s true (Json.parse s = Error m) in
  ok "-0" (Json.Int 0);
  ok "007" (Json.Int 7);
  ok "4611686018427387903" (Json.Int max_int);
  ok "-4611686018427387904" (Json.Int min_int);
  ok "1e5" (Json.Float 1e5);
  ok "\"\\u00e9\"" (Json.String "\xc3\xa9");
  err "-" "at byte 1: bad number -";
  err "1-2" "at byte 3: bad number 1-2";
  err "4611686018427387904" "at byte 19: bad number 4611686018427387904";
  err "\"abc" "at byte 4: unterminated string";
  err "[1] x" "at byte 4: trailing garbage";
  Alcotest.(check string) "min_int" "[-4611686018427387904,4611686018427387903]"
    (Json.to_string (Json.List [ Json.Int min_int; Json.Int max_int ]))

(* ---------------- real wire frames ---------------- *)

(* the align request of test/serve.t *)
let cram_request =
  {|{"id":1,"verb":"align","cfg":{"name":"f","entry":0,"blocks":[{"size":4,"term":{"kind":"branch","t":1,"f":2}},{"size":2,"term":{"kind":"goto","to":3}},{"size":7,"term":{"kind":"goto","to":3}},{"size":1,"term":{"kind":"exit"}}]},"profile":[[[1,10],[2,90]],[[3,10]],[[3,90]],[]]}|}

(* the first procedure of com under its first data set, sent with every
   option set *)
let bundled_request =
  lazy
    (let w = List.hd Workload.all in
     let compiled = Workload.compile w in
     let ds = List.hd (Workload.dataset_list w) in
     let profile = Ba_minic.Compile.profile compiled ~input:ds.Workload.input in
     Wire.request_to_string
       (Wire.Align
          {
            id = 17;
            cfg = compiled.Ba_minic.Compile.cfgs.(0);
            profile = Profile.proc profile 0;
            options =
              {
                Wire.deadline_ms = Some 50;
                method_ = Ba_align.Driver.Greedy;
                model = Some (Ba_machine.Model.ext_tsp ~window:512 ());
                profile_mode = Some `Static;
              };
          }))

let frames () =
  [
    cram_request;
    Lazy.force bundled_request;
    Wire.request_to_string (Wire.Stats { id = 3 });
    Wire.response_to_string
      (Wire.Ok_layout
         {
           id = 1;
           payload =
             { Wire.layout = [| 0; 2; 3; 1 |]; cost = 70; cached = true; warm = false;
               fallbacks = 0 };
         });
    Wire.response_to_string
      (Wire.Error_response
         { id = None; error = Errors.Usage "unknown verb \"frobnicate\"\n" });
    Wire.response_to_string
      (Wire.Stats_response
         {
           id = 4;
           stats =
             Json.Obj
               [ ("mean", Json.Float 0.25); ("max", Json.Float Float.infinity) ];
         });
  ]

let test_truncations () =
  List.iter
    (fun s ->
      for len = 0 to String.length s do
        check_doc (String.sub s 0 len)
      done)
    (frames ())

let test_mutations () =
  List.iter
    (fun s ->
      let b = Bytes.of_string s in
      for i = 0 to String.length s - 1 do
        for c = 0 to 255 do
          if Char.chr c <> s.[i] then begin
            Bytes.set b i (Char.chr c);
            check_doc (Bytes.to_string b)
          end
        done;
        Bytes.set b i s.[i]
      done)
    (frames ())

(* ---------------- QCheck documents ---------------- *)

let gen_char =
  QCheck2.Gen.(
    frequency
      [
        (8, char_range 'a' 'z');
        ( 2,
          oneofl
            [ '"'; '\\'; '/'; '\n'; '\r'; '\t'; '\b'; '\x00'; '\x01'; '\x1f'; ' ';
              '\x7f'; '\xc3'; '\xa9'; '\xff'; 'u' ] );
      ])

let gen_string = QCheck2.Gen.(string_size ~gen:gen_char (0 -- 12))

let gen_int =
  QCheck2.Gen.(
    frequency
      [
        (4, small_signed_int);
        (2, int);
        ( 1,
          oneofl
            [ min_int; max_int; 0; -1; 999_999_999_999_999_999;
              -999_999_999_999_999_999; 1_000_000_000_000_000_000 ] );
      ])

let gen_float =
  QCheck2.Gen.(
    oneof
      [ float; oneofl [ 0.; -0.; 1e5; 0.5; Float.nan; Float.infinity; 1e300; -1e-300 ] ])

let gen_doc =
  QCheck2.Gen.(
    sized
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 pure Json.Null;
                 map (fun b -> Json.Bool b) bool;
                 map (fun i -> Json.Int i) gen_int;
                 map (fun f -> Json.Float f) gen_float;
                 map (fun s -> Json.String s) gen_string;
               ]
           in
           if n <= 1 then leaf
           else
             frequency
               [
                 (1, leaf);
                 (2, map (fun l -> Json.List l) (list_size (0 -- 5) (self (n / 3))));
                 ( 2,
                   map
                     (fun l -> Json.Obj l)
                     (list_size (0 -- 5) (pair gen_string (self (n / 3)))) );
               ]))

let prop_documents =
  QCheck2.Test.make ~count:500 ~name:"documents: same bytes, same trees"
    ~print:Oracle.to_string gen_doc (fun doc ->
      let text = Oracle.to_string doc in
      if Json.to_string doc <> text then
        QCheck2.Test.fail_reportf "emit differs: %S" (Json.to_string doc);
      match disagreement text with
      | None -> true
      | Some m -> QCheck2.Test.fail_report m)

(* JSON-alphabet noise: mostly malformed, exercising every error path *)
let prop_noise =
  QCheck2.Test.make ~count:2000 ~name:"JSON-alphabet noise: same outcome"
    ~print:(Printf.sprintf "%S")
    QCheck2.Gen.(
      string_size
        ~gen:(oneofl (List.of_seq (String.to_seq "{}[]\":,-+.eE0123456789 \\nultrfa")))
        (0 -- 24))
    (fun s ->
      match disagreement s with
      | None -> true
      | Some m -> QCheck2.Test.fail_report m)

(* ---------------- re-entrancy ---------------- *)

(* parse and emit every document on two domains at once, many rounds
   each: nothing in the codec is shared between calls, so each domain
   must see the sequential results *)
let test_two_domains () =
  let docs =
    frames () @ edge_cases
    @ List.map Oracle.to_string
        (QCheck2.Gen.generate ~rand:(Random.State.make [| 29 |]) ~n:50 gen_doc)
  in
  let run () =
    List.map
      (fun s ->
        let parsed = outcome Json.parse s in
        let emitted =
          match parsed with Ok (Ok t) -> Some (Json.to_string t) | _ -> None
        in
        (parsed, emitted))
      docs
  in
  let expected = run () in
  let rounds () = List.for_all (fun _ -> run () = expected) (List.init 40 Fun.id) in
  let d1 = Domain.spawn rounds and d2 = Domain.spawn rounds in
  let ok1 = Domain.join d1 and ok2 = Domain.join d2 in
  Alcotest.(check bool) "first domain" true ok1;
  Alcotest.(check bool) "second domain" true ok2

let () =
  Alcotest.run "json"
    [
      ( "differential",
        [
          Alcotest.test_case "edge cases" `Quick test_edge_cases;
          Alcotest.test_case "edge values pinned" `Quick test_edge_values;
          Alcotest.test_case "every truncation of wire frames" `Quick
            test_truncations;
          Alcotest.test_case "every byte mutation of wire frames" `Quick
            test_mutations;
          QCheck_alcotest.to_alcotest prop_documents;
          QCheck_alcotest.to_alcotest prop_noise;
        ] );
      ( "re-entrancy",
        [ Alcotest.test_case "two domains, sequential results" `Quick test_two_domains ] );
    ]
