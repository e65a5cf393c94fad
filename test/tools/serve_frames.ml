(* Writes the frame file that CI pipes through `balign serve` on the
   head and on the base revision, diffing the two responses:

     dune exec test/tools/serve_frames.exe > test/golden/serve_frames.txt

   The stream holds the align, error and garbage frames of
   test/serve.t verbatim, then larger requests written with
   Wire.request_to_string: procedures of the bundled workloads under
   every method and both training regimes, each sent twice so the
   second is a cache hit, two 128-block Scale instances, and a request
   with two bad blocks.  No frame carries a deadline or asks for
   stats, so every response is deterministic.  The stream ends with
   the shutdown verb. *)

module Wire = Ba_serve.Wire
module Driver = Ba_align.Driver
module Workload = Ba_workloads.Workload
module Scale = Ba_workloads.Scale

let cram =
  let blocks =
    {|"blocks":[{"size":4,"term":{"kind":"branch","t":1,"f":2}},{"size":2,"term":{"kind":"goto","to":3}},{"size":7,"term":{"kind":"goto","to":3}},{"size":1,"term":{"kind":"exit"}}]},"profile":[[[1,10],[2,90]],[[3,10]],[[3,90]],[]]}|}
  in
  let exit_only = {|"cfg":{"name":"f","entry":0,"blocks":[{"size":1,"term":{"kind":"exit"}}]},"profile":[[]]}|} in
  [
    {|{"id":1,"verb":"align","cfg":{"name":"f","entry":0,|} ^ blocks;
    {|{"id":2,"verb":"align","cfg":{"name":"f","entry":9,"blocks":[{"size":1,"term":{"kind":"exit"}}]},"profile":[[]]}|};
    {|{"id":3,"verb":"frobnicate"}|};
    "@garbage";
    {|{"id":2,"verb":"align","options":{"model":"deep-pipeline"},"cfg":{"name":"f","entry":0,|} ^ blocks;
    {|{"id":3,"verb":"align","options":{"model":"ext-tsp:512"},"cfg":{"name":"f","entry":0,|} ^ blocks;
    {|{"id":4,"verb":"align","options":{"model":"vliw-9000"},|} ^ exit_only;
    {|{"id":2,"verb":"align","options":{"profile":"static"},"cfg":{"name":"f","entry":0,|} ^ blocks;
    {|{"id":3,"verb":"align","options":{"profile":"psychic"},|} ^ exit_only;
    {|{"id":2,"verb":"align","options":{"profile":"collected"},"cfg":{"name":"f","entry":0,|} ^ blocks;
  ]

let methods =
  [
    Driver.Tsp Ba_align.Tsp_align.default; Driver.Calder; Driver.Calder_exhaustive;
    Driver.Btfnt; Driver.Greedy; Driver.Original;
  ]

let larger () =
  let id = ref 100 in
  let align ?(options = Wire.default_options) cfg profile =
    incr id;
    Wire.request_to_string (Wire.Align { id = !id; cfg; profile; options })
  in
  let procs =
    List.concat_map
      (fun (w : Workload.t) ->
        let compiled = Workload.compile w in
        let ds = List.hd (Workload.dataset_list w) in
        let profile = Ba_minic.Compile.profile compiled ~input:ds.Workload.input in
        List.filteri
          (fun i _ -> i < 3)
          (Array.to_list
             (Array.mapi
                (fun fid cfg -> (cfg, Ba_profile.Profile.proc profile fid))
                compiled.Ba_minic.Compile.cfgs)))
      Workload.all
  in
  let per_method =
    List.concat
      (List.mapi
         (fun i (cfg, profile) ->
           let method_ = List.nth methods (i mod List.length methods) in
           let profile_mode = if i mod 4 = 3 then Some `Static else None in
           let options = { Wire.default_options with method_; profile_mode } in
           let r = align ~options cfg profile in
           [ r; r ])
         procs)
  in
  let scale =
    List.map
      (fun (fam, invocations) ->
        let cfg, profile = Scale.instance fam ~n:128 ~invocations in
        align cfg profile)
      [ (List.hd Scale.all, 1); (List.nth Scale.all 1, 500) ]
  in
  let two_bad_blocks =
    {|{"id":99,"verb":"align","cfg":{"name":"f","entry":0,"blocks":[{"size":1,"term":{"kind":"goto","to":1}},{"size":"x","term":{"kind":"goto","to":2}},{"size":1,"term":{"kind":"goto","to":3}},{"size":1},{"size":1,"term":{"kind":"exit"}}]},"profile":[[],[],[],[],[]]}|}
  in
  per_method @ scale @ [ two_bad_blocks ]

let () =
  List.iter
    (fun payload -> print_string (Wire.encode_frame payload))
    (cram @ larger () @ [ Wire.request_to_string (Wire.Shutdown { id = 9 }) ])
