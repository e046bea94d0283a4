(* Ablation: comparator parameters and sub-chain size.

   The paper fixes Thr = 3, Ratio = 0.5 "to optimize for a high detection
   rate" without reporting a sweep; this section measures both sides of
   the trade-off across the (Thr, Ratio, n-gram) grid:
   - detection: the 8 originals plus their rename variants must be
     neutralized on the unpatched engine (16 attempts);
   - false positives: mean %PassDis over a workload sample with the #4
     database installed. *)

open Harness
module Variants = Jitbull_vdc.Variants
module Table = Jitbull_util.Text_table
module Dna = Jitbull_core.Dna
module Comparator = Jitbull_core.Comparator

let run () =
  section "Ablation: Δ-comparator threshold / ratio / sub-chain size";
  (* harvest + analyze with explicit parameters *)
  let harvest_with ~n db ~cve ~vulns source =
    let analyzer ~ctx:_ ~func_index:_ ~name:_ ~trace =
      let dna = Dna.extract ~n trace in
      if Dna.nonempty_passes dna <> [] then Db.add db { Db.cve; dna };
      Engine.Allow
    in
    let config = { Engine.default_config with Engine.vulns; analyzer = Some analyzer } in
    try ignore (Engine.run_source config source) with _ -> ()
  in
  let analyzer_with ~n ~params db counters =
    let jit_count, dis_count = counters in
   fun ~ctx:_ ~func_index:_ ~name:_ ~trace ->
    incr jit_count;
    let dna = Dna.extract ~n trace in
    let matched =
      List.concat_map
        (fun (e : Db.entry) -> Comparator.matching_passes ~params dna e.Db.dna)
        (Db.entries db)
      |> List.sort_uniq String.compare
    in
    if matched = [] then Engine.Allow
    else begin
      incr dis_count;
      Engine.Disable_passes matched
    end
  in
  let grid =
    List.concat_map
      (fun n ->
        List.concat_map
          (fun thr ->
            List.map (fun ratio -> (n, { Comparator.thr; ratio })) [ 0.25; 0.5; 0.75 ])
          [ 1; 2; 3 ])
      [ 2; 3 ]
  in
  let rows =
    List.map
      (fun (n, params) ->
        (* per-CVE databases, harvested at this n *)
        let detections = ref 0 in
        let attempts = ref 0 in
        List.iter
          (fun (d : V.t) ->
            let vulns = VC.make [ d.V.cve ] in
            let db = Db.create () in
            harvest_with ~n db ~cve:d.V.name ~vulns d.V.source;
            let counters = (ref 0, ref 0) in
            let cfg =
              { Engine.default_config with
                Engine.vulns;
                analyzer = Some (analyzer_with ~n ~params db counters) }
            in
            List.iter
              (fun source ->
                incr attempts;
                match V.run_exploit cfg source d.V.expected with
                | V.Neutralized -> incr detections
                | V.Exploited _ -> ())
              [ d.V.source; Variants.apply Variants.Rename d.V.source ])
          V.all;
        (* FP: #4 database at this n *)
        let db4 = Db.create () in
        List.iter
          (fun cve ->
            let d = V.find cve in
            harvest_with ~n db4 ~cve:d.V.name ~vulns:(VC.make [ cve ]) d.V.source)
          (first_n 4 cve_order);
        let fp_total = ref 0.0 in
        List.iter
          (fun (w : W.t) ->
            let counters = (ref 0, ref 0) in
            let cfg =
              { Engine.default_config with
                Engine.vulns = VC.make (first_n 4 cve_order);
                analyzer = Some (analyzer_with ~n ~params db4 counters) }
            in
            ignore (Engine.run_source cfg w.W.source);
            let jit, dis = counters in
            fp_total := !fp_total +. (100.0 *. float_of_int !dis /. float_of_int (max 1 !jit)))
          sample;
        [
          string_of_int n;
          string_of_int params.Comparator.thr;
          Printf.sprintf "%.2f" params.Comparator.ratio;
          Printf.sprintf "%d/%d" !detections !attempts;
          Printf.sprintf "%.0f%%" (!fp_total /. float_of_int (List.length sample));
        ])
      grid
  in
  Table.print
    ~headers:[ "n-gram"; "Thr"; "Ratio"; "detection"; "mean FP %PassDis (#4)" ]
    rows;
  Printf.printf
    "\nShipping defaults: n = 3, Thr = 2, Ratio = 0.5 — full detection at the\n\
     lowest false-positive cost on this corpus (the paper's Thr = 3 assumes\n\
     its pairwise chain counting; see DESIGN.md §4).\n"
