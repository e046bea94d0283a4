(* The paper's own tables and figures: Table I/II, the §III-C window
   statistics, the §VI-B detection matrix, Fig. 4 false positives and
   the Fig. 5/6 execution-time grid. *)

open Harness
module Variants = Jitbull_vdc.Variants
module Catalog = Jitbull_vdc.Catalog
module Table = Jitbull_util.Text_table
module Interp = Jitbull_interp.Interp
module Obs = Jitbull_obs.Obs
module Audit = Jitbull_obs.Audit

(* ---- Table I ---- *)

let table1 () =
  section "Table I: JIT-engine vulnerabilities 2015-2021 ([VDC] = demonstrator available)";
  let rows =
    List.map
      (fun (e : Catalog.entry) ->
        [
          Catalog.engine_name e.Catalog.engine;
          (if e.Catalog.has_vdc then e.Catalog.cve ^ " [VDC]" else e.Catalog.cve);
          Printf.sprintf "%.1f" e.Catalog.cvss;
          (match e.Catalog.modeled with
          | Some _ -> "modeled in this repo"
          | None -> "");
        ])
      Catalog.all
  in
  Table.print ~headers:[ "Target"; "Vulnerability"; "CVSS"; "Notes" ] rows;
  let avg =
    List.fold_left (fun acc (e : Catalog.entry) -> acc +. e.Catalog.cvss) 0.0 Catalog.all
    /. float_of_int (List.length Catalog.all)
  in
  Printf.printf "\nMean CVSS: %.1f (paper: 8.8)\n" avg

(* ---- Table II ---- *)

let table2 () =
  section "Table II: hardware/software configuration (this host)";
  Table.print ~headers:[ "Component"; "Characteristics" ] (Env_report.rows ())

(* ---- §III-C vulnerability windows ---- *)

let window () =
  section "Vulnerability-window statistics (paper §III-C)";
  let rows =
    List.filter_map
      (fun (e : Catalog.entry) ->
        match Catalog.window_days e with
        | Some d ->
          Some
            [ e.Catalog.cve;
              Option.value ~default:"" e.Catalog.reported;
              Option.value ~default:"" e.Catalog.patched;
              string_of_int d ^ " days" ]
        | None -> None)
      Catalog.all
  in
  Table.print ~headers:[ "CVE"; "Reported"; "Patched"; "Window" ] rows;
  Printf.printf "\nMean window: %.1f days (paper: 9 days)\n" (Catalog.mean_window_days ());
  Printf.printf "Max overlapping windows in 2019: %d (paper: 2, CVE-2019-9810/-9813)\n"
    (Catalog.max_overlapping ~year:2019)

(* ---- §VI-B security evaluation ---- *)

let exploited = function
  | V.Exploited _ -> true
  | V.Neutralized -> false

(* A decision's flagged passes: the union of its matches' passes. *)
let flagged_passes (r : Audit.record) =
  List.concat_map
    (fun cm -> List.map (fun pm -> pm.Audit.pm_pass) cm.Audit.cm_passes)
    r.Audit.matches
  |> List.sort_uniq String.compare

(* An unpatched engine carrying [d]'s bug plus JITBULL with only [d]'s
   DNA installed, auditing into [obs]. *)
let single_vdc_config obs (d : V.t) =
  let db = Db.create () in
  ignore (V.harvest db [ d.V.cve ]);
  Jitbull.config ~obs ~vulns:(VC.make [ d.V.cve ]) db

let security () =
  section "Security evaluation (paper §VI-B): detection of exploit variants";
  Printf.printf
    "For each CVE: exploit on patched / unpatched engine, then unpatched +\n\
     JITBULL with only the original VDC's DNA installed, against the original\n\
     and the four generated variants (rename / minify / mix / split).\n\n";
  let detections = ref 0 in
  let attempts = ref 0 in
  let rows =
    List.map
      (fun (d : V.t) ->
        let patched = { Engine.default_config with Engine.vulns = VC.none } in
        let vulnerable = { Engine.default_config with Engine.vulns = VC.make [ d.V.cve ] } in
        let obs = Obs.create () in
        let protected_cfg = single_vdc_config obs d in
        let orig_patched = exploited (V.run_exploit patched d.V.source d.V.expected) in
        let orig_vuln = exploited (V.run_exploit vulnerable d.V.source d.V.expected) in
        let variant_cells =
          List.map
            (fun kind ->
              let variant = Variants.apply kind d.V.source in
              let still = exploited (V.run_exploit vulnerable variant d.V.expected) in
              let neutralized =
                not (exploited (V.run_exploit protected_cfg variant d.V.expected))
              in
              incr attempts;
              if still && neutralized then incr detections;
              Printf.sprintf "%s%s" (if still then "expl/" else "dead/")
                (if neutralized then "BLOCKED" else "MISSED"))
            Variants.all_kinds
        in
        let orig_blocked =
          not (exploited (V.run_exploit protected_cfg d.V.source d.V.expected))
        in
        incr attempts;
        if orig_vuln && orig_blocked then incr detections;
        let flagged =
          List.concat_map flagged_passes (Audit.records (Obs.audit obs))
          |> List.sort_uniq String.compare
        in
        [ d.V.name;
          (if orig_patched then "EXPLOITED!" else "safe");
          (if orig_vuln then "exploited" else "MISSED!");
          (if orig_blocked then "BLOCKED" else "MISSED") ]
        @ variant_cells
        @ [ String.concat "," flagged ])
      V.all
  in
  Table.print
    ~headers:
      [ "CVE"; "patched"; "unpatched"; "original"; "rename"; "minify"; "mix"; "split";
        "flagged passes" ]
    rows;
  Printf.printf "\nDetection rate: %d/%d = %.0f%% (paper: 100%%)\n" !detections !attempts
    (100.0 *. float_of_int !detections /. float_of_int !attempts);
  emit "security"
    (Jsonx.Assoc
       [ ("detections", Jsonx.Int !detections); ("attempts", Jsonx.Int !attempts) ]);
  (* the paper's §VI-B-a: two independent implementations of 17026 *)
  let obs = Obs.create () in
  let cfg = single_vdc_config obs (V.find VC.CVE_2019_17026) in
  let blocked =
    not (exploited (V.run_exploit cfg V.second_implementation_17026 V.Shellcode))
  in
  let gvn_flagged =
    List.exists
      (fun r -> List.mem "gvn" (flagged_passes r))
      (Audit.records (Obs.audit obs))
  in
  Printf.printf
    "\nCVE-2019-17026 independent implementation: %s, GVN flagged: %b (paper: detected, GVN disabled)\n"
    (if blocked then "BLOCKED" else "MISSED") gvn_flagged

(* The interpreter's output of each workload: every benchmarked run is
   checked against it. *)
let references : (string, string) Hashtbl.t = Hashtbl.create 16

let reference (w : W.t) =
  match Hashtbl.find_opt references w.W.name with
  | Some out -> out
  | None ->
    let out = (Interp.run_source w.W.source).Interp.output in
    Hashtbl.replace references w.W.name out;
    out

let check_output what (w : W.t) out =
  if not (String.equal out (reference w)) then
    failwith (Printf.sprintf "%s: %s output differs from the interpreter" what w.W.name)

(* ---- Figure 4: false positives ---- *)

let fig4 () =
  section "Figure 4: false-positive rates on harmless benchmarks (#1 vs #4 VDCs)";
  Printf.printf
    "%%PassDis = JITed functions with >=1 pass disabled; %%NoJIT = functions\n\
     denied JIT entirely. Annotated with the number of Ion-compiled functions.\n\n";
  let rows =
    List.map
      (fun (w : W.t) ->
        let stats n =
          let out, t = Engine.run_source (protected_config n) w.W.source in
          check_output "fig4" w out;
          Engine.stats t
        in
        let cell (s : Engine.stats) =
          let nr = max s.Engine.nr_jit 1 in
          Printf.sprintf "%.0f%% / %.0f%%"
            (100.0 *. float_of_int s.Engine.nr_disjit /. float_of_int nr)
            (100.0 *. float_of_int s.Engine.nr_nojit /. float_of_int nr)
        in
        let s1 = stats 1 in
        [ w.W.name; string_of_int s1.Engine.nr_jit; cell s1; cell (stats 4) ])
      W.everything
  in
  Table.print
    ~headers:[ "Benchmark"; "Nr_JIT"; "#1: %PassDis/%NoJIT"; "#4: %PassDis/%NoJIT" ]
    rows;
  Printf.printf
    "\nPaper shape: 0-5%% with one VDC (no function ever fully denied JIT);\n\
     10-65%% with four VDCs.\n"

(* ---- Figures 5 and 6: one timing grid ----

   Each (workload, configuration) cell is timed once per process,
   best of 3, and shared by both figures. Every timed run gets a fresh
   configuration — its own policy cache, so #n analyses every Ion
   compile as a first run does — and its output is checked against the
   interpreter outside the timed region. *)

type cell =
  | Jit
  | Nojit
  | Jitbull of int  (** #n VDCs in the database; #0 is an empty one *)

let cell_config = function
  | Jit -> Engine.default_config
  | Nojit -> { Engine.default_config with Engine.jit_enabled = false }
  (* empty DB: analyzer omitted - the zero-overhead case *)
  | Jitbull 0 -> Jitbull.config ~vulns:VC.none (Db.create ())
  | Jitbull n -> protected_config n

(* (workload, cell) → best-of-3 seconds and the last timed run's stats *)
let grid : (string * cell, float * Engine.stats) Hashtbl.t = Hashtbl.create 64

let timed (w : W.t) cell =
  match Hashtbl.find_opt grid (w.W.name, cell) with
  | Some r -> r
  | None ->
    let last = ref None in
    let once () =
      let config = cell_config cell in
      let (out, engine), dt = time (fun () -> Engine.run_source config w.W.source) in
      check_output "timed run" w out;
      last := Some (Engine.stats engine);
      dt
    in
    let t = best_of_3 once in
    let r = (t, Option.get !last) in
    Hashtbl.replace grid (w.W.name, cell) r;
    r

let seconds w cell = fst (timed w cell)

let stats_json (s : Engine.stats) =
  Jsonx.Assoc
    [
      ("nr_jit", Jsonx.Int s.Engine.nr_jit);
      ("nr_disjit", Jsonx.Int s.Engine.nr_disjit);
      ("nr_nojit", Jsonx.Int s.Engine.nr_nojit);
      ("baseline_compiles", Jsonx.Int s.Engine.baseline_compiles);
      ("ion_compiles", Jsonx.Int s.Engine.ion_compiles);
      ("bailouts", Jsonx.Int s.Engine.bailouts);
      ("deopts", Jsonx.Int s.Engine.deopts);
    ]

let fig5 () =
  section "Figure 5: execution time - NoJIT vs JIT vs JITBULL (#0, #1, #4 VDCs)";
  let json_rows = ref [] in
  let rows =
    List.map
      (fun (w : W.t) ->
        let t_jit = seconds w Jit in
        let t_nojit = seconds w Nojit in
        let t_db0 = seconds w (Jitbull 0) in
        let t1 = seconds w (Jitbull 1) in
        let t4, s4 = timed w (Jitbull 4) in
        json_rows :=
          Jsonx.Assoc
            [
              ("name", Jsonx.String w.W.name);
              ("jit_ms", Jsonx.Float (t_jit *. 1000.0));
              ("nojit_ms", Jsonx.Float (t_nojit *. 1000.0));
              ("jitbull0_ms", Jsonx.Float (t_db0 *. 1000.0));
              ("jitbull1_ms", Jsonx.Float (t1 *. 1000.0));
              ("jitbull4_ms", Jsonx.Float (t4 *. 1000.0));
              ("stats_jitbull4", stats_json s4);
            ]
          :: !json_rows;
        let pct t = Printf.sprintf "%+.0f%%" (100.0 *. (t -. t_jit) /. t_jit) in
        [ w.W.name;
          Printf.sprintf "%.0f ms" (t_jit *. 1000.0);
          Printf.sprintf "%.0f ms (%s)" (t_nojit *. 1000.0) (pct t_nojit);
          Printf.sprintf "%.0f ms (%s)" (t_db0 *. 1000.0) (pct t_db0);
          Printf.sprintf "%.0f ms (%s)" (t1 *. 1000.0) (pct t1);
          Printf.sprintf "%.0f ms (%s)" (t4 *. 1000.0) (pct t4) ])
      W.everything
  in
  emit "fig5" (Jsonx.List (List.rev !json_rows));
  Table.print
    ~headers:[ "Benchmark"; "JIT"; "NoJIT"; "JITBULL #0"; "JITBULL #1"; "JITBULL #4" ]
    rows;
  Printf.printf
    "\nPaper shape: #0 ~= JIT (zero overhead); #1..#4 within 1-20%% of JIT;\n\
     NoJIT far slower than everything else (its slowdown is compressed in\n\
     this simulator: both tiers are OCaml interpreters - see EXPERIMENTS.md).\n"

let fig6 () =
  section "Figure 6: scalability with #1..#8 VDCs in the database";
  let sizes = [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let json_rows = ref [] in
  let rows =
    List.map
      (fun (w : W.t) ->
        let t_jit = seconds w Jit in
        let overheads =
          List.map (fun n -> 100.0 *. (seconds w (Jitbull n) -. t_jit) /. t_jit) sizes
        in
        json_rows :=
          Jsonx.Assoc
            [
              ("name", Jsonx.String w.W.name);
              ("jit_ms", Jsonx.Float (t_jit *. 1000.0));
              ("overhead_pct", Jsonx.List (List.map (fun pct -> Jsonx.Float pct) overheads));
            ]
          :: !json_rows;
        w.W.name :: List.map (fun pct -> Printf.sprintf "%+.0f%%" pct) overheads)
      W.everything
  in
  emit "fig6" (Jsonx.List (List.rev !json_rows));
  Table.print
    ~headers:("Benchmark" :: List.map (fun n -> "#" ^ string_of_int n) sizes)
    rows;
  Printf.printf
    "\nPaper shape: overhead grows with DB size and flattens beyond ~4 VDCs\n\
     (max 22%%, min 5%% at #8).\n"
