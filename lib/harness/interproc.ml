(** Extension experiment: interprocedural code placement (the paper's
    closing future-work item, via Pettis–Hansen procedure ordering).

    Intraprocedural alignment fixes the block order inside each
    procedure; where procedures land relative to each other still decides
    which ones fight over I-cache lines.  This experiment generates a
    program with many small procedures called with a skewed distribution
    (total code comfortably exceeding the 8 KB L1 I-cache), block-aligns
    it with the TSP method, and compares simulated misses and cycles for
    three procedure placements: declaration order, Pettis–Hansen
    call-graph order, and a worst-case-flavoured interleaving (hot
    procedures spread as far apart as possible). *)

module Driver = Ba_align.Driver
module Cycles = Ba_machine.Cycles

(** [gen_source ~n_funcs] builds a minic program: [n_funcs] worker
    functions of varying size and a dispatcher main that calls them with
    a heavily skewed (half-half-half…) distribution. *)
let gen_source ~n_funcs =
  if n_funcs < 2 || n_funcs > 30 then invalid_arg "Interproc.gen_source";
  let buf = Buffer.create 4096 in
  for k = 0 to n_funcs - 1 do
    (* bodies differ in loop depth and carry a fat unrolled mixing
       sequence, so each function occupies a meaningful slice of the
       I-cache and total code exceeds it *)
    let inner = 4 + (k mod 5) in
    let unrolled =
      String.concat ""
        (List.init 10 (fun j ->
             Printf.sprintf
               "    a = ((a << 1) ^ (a >> %d)) + %d; a = a & 1048575;\n"
               (1 + ((j + k) mod 7))
               ((j * 31) + k)))
    in
    Buffer.add_string buf
      (Printf.sprintf
         "fn work%d(x) {\n\
         \  var a = x + %d;\n\
         \  var i = 0;\n\
         \  while (i < %d) {\n\
         \    if (a %% 2 == 0) { a = a / 2; } else { a = a * 3 + 1; }\n\
         \    if (a > 100000) { a = a %% 9973; }\n\
         %s\
         \    a = (a * 17 + %d) %% 65536;\n\
         \    i = i + 1;\n\
         \  }\n\
         \  return a;\n\
         }\n"
         k k inner unrolled (k * 7))
  done;
  (* dispatcher: bucket 0 is the hottest function, each next bucket
     halves.  bucket = number of trailing zeros capped at n_funcs-1 *)
  Buffer.add_string buf
    (Printf.sprintf
       "fn pick(r) {\n\
       \  var k = 0;\n\
       \  while (k < %d && (r & 1) == 1) { r = r >> 1; k = k + 1; }\n\
       \  return k;\n\
        }\n"
       (n_funcs - 1));
  Buffer.add_string buf "fn main() {\n  var n = read();\n  var seed = read();\n";
  Buffer.add_string buf "  var acc = 0;\n  var t = 0;\n";
  Buffer.add_string buf
    "  while (t < n) {\n    seed = (seed * 25214903917 + 11) & 281474976710655;\n";
  Buffer.add_string buf "    var r = (seed >> 20) & 1048575;\n";
  Buffer.add_string buf "    switch (pick(r)) {\n";
  for k = 0 to n_funcs - 1 do
    Buffer.add_string buf
      (Printf.sprintf "      case %d: { acc = acc + work%d(r); }\n" k k)
  done;
  Buffer.add_string buf "      default: { acc = acc + 1; }\n    }\n";
  Buffer.add_string buf "    t = t + 1;\n  }\n  print(acc & 1048575);\n}\n";
  Buffer.contents buf

type placement = { name : string; icache_misses : int; cycles : int }

type result = {
  n_funcs : int;
  total_instrs : int;  (** program code size, instructions *)
  calls : int;
  placements : placement list;  (** declaration / pettis-hansen / spread *)
}

let run ?(n_funcs = 24) ?(iterations = 6_000) () : result =
  let p = Ba_machine.Model.alpha21164 in
  let src = gen_source ~n_funcs in
  let compiled = Ba_minic.Compile.compile_exn src in
  let cfgs = compiled.Ba_minic.Compile.cfgs in
  let input = [| iterations; 12345 |] in
  let run_prog sink = ignore (Ba_minic.Compile.run compiled ~input ~sink) in
  let prof = Ba_minic.Compile.profile compiled ~input in
  let aligned =
    Driver.align (Driver.Tsp Ba_align.Tsp_align.default) p cfgs ~train:prof
  in
  let n = Array.length cfgs in
  let entry =
    match Ba_minic.Ir.find_func compiled.Ba_minic.Compile.prog "main" with
    | Some fid -> fid
    | None -> 0
  in
  let ph_order =
    Ba_align.Proc_order.order ~n_procs:n ~entry prof.Ba_profile.Profile.calls
  in
  (* adversarial spread: entry first, then alternate ends of the PH order
     so strongly-coupled procedures land far apart *)
  let spread =
    let rest = Array.to_list ph_order |> List.filter (( <> ) entry) in
    let arr = Array.of_list rest in
    let m = Array.length arr in
    let out = ref [ entry ] in
    for i = 0 to m - 1 do
      let j = if i mod 2 = 0 then i / 2 else m - 1 - (i / 2) in
      out := arr.(j) :: !out
    done;
    Array.of_list (List.rev !out)
  in
  let simulate name proc_order =
    let addr =
      Ba_machine.Addr.build ?proc_order
        (Array.map2 (fun g r -> (g, r)) cfgs aligned.Driver.realized)
    in
    let ctxs =
      Array.mapi
        (fun fid r ->
          Ba_machine.Pipeline.ctx_of_realized r
            ~predicted:aligned.Driver.predicted.(fid))
        aligned.Driver.realized
    in
    let sink, result = Cycles.make_sink p ~cfgs ~ctxs ~addr in
    run_prog sink;
    let res = result () in
    {
      name;
      icache_misses = res.Cycles.icache_misses;
      cycles = res.Cycles.cycles;
    }
  in
  let weight_order =
    Ba_align.Proc_order.by_weight ~n_procs:n ~entry
      prof.Ba_profile.Profile.calls
  in
  let placements =
    [
      simulate "declaration order" None;
      simulate "pettis-hansen call-graph order" (Some ph_order);
      simulate "hottest-first (by weight)" (Some weight_order);
      simulate "adversarial spread" (Some spread);
    ]
  in
  {
    n_funcs = n;
    total_instrs = aligned.Driver.addr.Ba_machine.Addr.total_instrs;
    calls = Ba_profile.Profile.total_calls prof;
    placements;
  }

let print ppf (r : result) =
  Tables.section ppf
    "Extension: interprocedural placement (Pettis-Hansen procedure ordering)";
  Fmt.pf ppf
    "%d procedures, %d instructions of code (I-cache holds 2048), %d dynamic calls@."
    r.n_funcs r.total_instrs r.calls;
  Fmt.pf ppf "%-36s %14s %14s@." "procedure placement" "icache misses" "cycles";
  List.iter
    (fun pl ->
      Fmt.pf ppf "%-36s %14d %14d@." pl.name pl.icache_misses pl.cycles)
    r.placements
