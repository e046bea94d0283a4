type params = {
  thr : int;
  ratio : float;
}

(* The paper uses Thr = 3 with per-chain-pair sub-chain counting; our edge
   multiset yields about two sub-chain instances per eliminated bounds
   check, so the absolute threshold scales to 2 (Ratio is unchanged). See
   DESIGN.md §4. *)
let default_params = { thr = 2; ratio = 0.5 }

let side_score (d : Delta.side) (d' : Delta.side) =
  (* EqChains = Σ over common sub-chains of min(multiplicities) *)
  let eq_chains =
    Hashtbl.fold
      (fun k c acc ->
        match Hashtbl.find_opt d' k with
        | Some c' -> acc + min c c'
        | None -> acc)
      d 0
  in
  (eq_chains, min (Delta.total d) (Delta.total d'))

let passes_thresholds params (eq_chains, max_eq_chains) =
  eq_chains >= params.thr
  && float_of_int eq_chains >= params.ratio *. float_of_int max_eq_chains

let compare_sides ?(params = default_params) (d : Delta.side) (d' : Delta.side) =
  passes_thresholds params (side_score d d')

let similar ?params (a : Delta.t) (b : Delta.t) =
  compare_sides ?params a.Delta.removed b.Delta.removed
  || compare_sides ?params a.Delta.added b.Delta.added

type match_detail = {
  md_pass : string;
  md_side : [ `Removed | `Added ];
  md_eq_chains : int;
  md_max_eq_chains : int;
  md_common : (Delta.key * int) list Lazy.t;
}

(* The common sub-chains behind an EqChains score, sorted by key. Only
   computed for a pass that matched, never during scoring. *)
let side_common (d : Delta.side) (d' : Delta.side) =
  Hashtbl.fold
    (fun k c acc ->
      match Hashtbl.find_opt d' k with
      | Some c' -> (k, Int.min c c') :: acc
      | None -> acc)
    d []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let matching_passes_detailed ?(params = default_params) ?obs (dna : Dna.t)
    (dna' : Dna.t) =
  let module Obs = Jitbull_obs.Obs in
  Obs.incr obs "comparator.pairs";
  let matches =
    (* histogram-only timing: one DNA-pair comparison per DB entry per
       Ion compile is too frequent for a trace event each *)
    Obs.time obs "comparator.seconds" (fun () ->
        List.filter_map
          (fun (pass, d) ->
            match List.assoc_opt pass dna'.Dna.deltas with
            | Some d' ->
              (* mirror [similar]: the removed side is checked first, and
                 the reported score is the side that matched *)
              let rm = side_score d.Delta.removed d'.Delta.removed in
              if passes_thresholds params rm then
                Some
                  {
                    md_pass = pass;
                    md_side = `Removed;
                    md_eq_chains = fst rm;
                    md_max_eq_chains = snd rm;
                    md_common = lazy (side_common d.Delta.removed d'.Delta.removed);
                  }
              else
                let ad = side_score d.Delta.added d'.Delta.added in
                if passes_thresholds params ad then
                  Some
                    {
                      md_pass = pass;
                      md_side = `Added;
                      md_eq_chains = fst ad;
                      md_max_eq_chains = snd ad;
                      md_common = lazy (side_common d.Delta.added d'.Delta.added);
                    }
                else None
            | None -> None)
          dna.Dna.deltas)
  in
  Obs.add obs "comparator.matches" (List.length matches);
  matches

let matching_passes ?params ?obs (dna : Dna.t) (dna' : Dna.t) =
  List.map
    (fun md -> md.md_pass)
    (matching_passes_detailed ?params ?obs dna dna')
