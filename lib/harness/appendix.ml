(** The appendix experiment: quality of the AP and Held–Karp lower
    bounds, and reliability of iterated 3-Opt, over a corpus of
    branch-alignment DTSP instances.

    Reproduces the paper's appendix observations: the AP bound is exact
    on some instances but has large gaps on many others (median 30% on
    the non-exact instances of esp.tl, some 10×), while the Held–Karp
    bound stays within a fraction of a percent of the best tours found,
    and most solver runs find the best tour. *)

open Ba_align
open Ba_tsp

type per_instance = {
  name : string;
  n_cities : int;
  tour_cost : int;  (** best tour found (exact when [opt] is set) *)
  opt : int option;  (** proven optimum, small instances only *)
  ap : int;
  hk : int;
  patching : int;  (** Karp's AP-patching heuristic (the rival method) *)
  runs_with_best : int;
  runs : int;
}

type stats = {
  instances : per_instance list;
  n_ap_exact : int;  (** instances with AP = optimum (among proven) *)
  n_proven : int;
  median_ap_gap_pct : float;  (** median (opt−ap)/max(ap,1) over non-exact proven *)
  max_ap_ratio : float;  (** max opt/ap over proven instances (ap>0) *)
  mean_hk_gap_pct : float;  (** mean (tour−hk)/tour over all instances *)
  max_hk_gap_pct : float;
  all_runs_found_best : int;  (** instances where every run hit the best *)
  mean_patching_excess_pct : float;
      (** mean (patching − tour)/max(tour,1): how much the AP-patching
          heuristic loses to iterated 3-Opt *)
  patching_wins_or_ties : int;  (** instances where patching matched 3-Opt *)
}

let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.0
  | n -> sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))

(** [study corpus] runs the bound study over the given instances, on
    the Alpha 21164 model with the default iterated 3-Opt solver. *)
let study (corpus : Synthetic.instance list) : stats =
  let model = Ba_machine.Model.alpha21164 in
  let per =
    List.map
      (fun { Synthetic.name; g; prof } ->
        let inst = Reduction.build model g ~profile:prof in
        let d = inst.Reduction.dtsp in
        let tour, st = Iterated.solve d in
        ignore tour;
        let opt =
          if d.Dtsp.n <= Exact.max_n then Some (Exact.optimal_cost d) else None
        in
        let tour_cost =
          match opt with Some o -> min o st.Iterated.best_cost | None -> st.Iterated.best_cost
        in
        let ap = max 0 (Hungarian.ap_bound d) in
        let hk =
          max 0 (Held_karp.directed_bound d ~upper_bound:st.Iterated.best_cost)
        in
        {
          name;
          n_cities = d.Dtsp.n;
          tour_cost;
          opt;
          ap;
          hk = min hk tour_cost;
          patching = snd (Patching.solve d);
          runs_with_best = st.Iterated.runs_with_best;
          runs = Iterated.default.Iterated.runs;
        })
      corpus
  in
  let proven = List.filter_map (fun r -> Option.map (fun o -> (r, o)) r.opt) per in
  let ap_exact = List.filter (fun (r, o) -> r.ap = o) proven in
  let ap_gaps =
    proven
    |> List.filter (fun (r, o) -> r.ap <> o)
    |> List.map (fun (r, o) ->
           100.0 *. float_of_int (o - r.ap) /. float_of_int (max r.ap 1))
    |> List.sort compare |> Array.of_list
  in
  let ap_ratios =
    proven
    |> List.filter (fun (r, _) -> r.ap > 0)
    |> List.map (fun (r, o) -> float_of_int o /. float_of_int r.ap)
  in
  let hk_gaps =
    List.map
      (fun r ->
        if r.tour_cost = 0 then 0.0
        else
          100.0 *. float_of_int (r.tour_cost - r.hk) /. float_of_int r.tour_cost)
      per
  in
  let patching_excess =
    List.map
      (fun r ->
        100.0
        *. float_of_int (r.patching - r.tour_cost)
        /. float_of_int (max r.tour_cost 1))
      per
  in
  {
    instances = per;
    n_ap_exact = List.length ap_exact;
    n_proven = List.length proven;
    median_ap_gap_pct = percentile ap_gaps 0.5;
    max_ap_ratio = List.fold_left max 1.0 ap_ratios;
    mean_hk_gap_pct =
      (match hk_gaps with
      | [] -> 0.0
      | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l));
    max_hk_gap_pct = List.fold_left max 0.0 hk_gaps;
    all_runs_found_best =
      List.length (List.filter (fun r -> r.runs_with_best = r.runs) per);
    mean_patching_excess_pct =
      (match patching_excess with
      | [] -> 0.0
      | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l));
    patching_wins_or_ties =
      List.length (List.filter (fun r -> r.patching <= r.tour_cost) per);
  }
