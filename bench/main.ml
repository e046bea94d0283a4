(* JITBULL benchmark harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md §5 for the experiment index and
   EXPERIMENTS.md for paper-vs-measured results).

   Usage:
     bench/main.exe                    run everything
     bench/main.exe SECTION            run one section
     bench/main.exe ... --json OUT     also dump machine-readable results
     bench/main.exe table1       vulnerability survey (Table I)
     bench/main.exe table2       machine configuration (Table II)
     bench/main.exe window       vulnerability-window statistics (§III-C)
     bench/main.exe security     detection matrix (§VI-B, 8 CVEs × 4 variants)
     bench/main.exe fig4         false-positive rates (#1 vs #4 VDCs)
     bench/main.exe fig5         execution times (NoJIT / JIT / JITBULL #0 #1 #4)
     bench/main.exe fig6         scalability (#1..#8 VDCs)
     bench/main.exe fuzz         fuzzer-to-database pipeline (paper §IV-A)
     bench/main.exe telemetry    pipeline pass percentiles + comparator throughput
     bench/main.exe telemetry --audit   also audit-trail throughput and verdict mix
     bench/main.exe ablation     Thr/Ratio/n-gram parameter sweep (beyond the paper)
     bench/main.exe overhead     decision cost vs DB size: indexed vs naive + policy cache
     bench/main.exe concurrency  off-main-thread Ion compilation (jobs=0/1/2/4)
     bench/main.exe native       native x86-64 Ion tier vs the LIR executor
                                 (numeric-loop corpus, byte-equal outputs)
     bench/main.exe service      jitbulld verdict-service throughput: client
                                 concurrency x batch size
                                 (JITBULL_BENCH_SERVICE_BUDGET_S / _MAXC trim it)
     bench/main.exe bechamel     Bechamel micro-benchmarks of the JITBULL machinery *)

module W = Jitbull_workloads.Workloads
module V = Jitbull_vdc.Demonstrators
module Variants = Jitbull_vdc.Variants
module Catalog = Jitbull_vdc.Catalog
module VC = Jitbull_passes.Vuln_config
module Engine = Jitbull_jit.Engine
module Compile_queue = Jitbull_jit.Compile_queue
module Db = Jitbull_core.Db
module Jitbull = Jitbull_core.Jitbull
module Dna = Jitbull_core.Dna
module Depgraph = Jitbull_core.Depgraph
module Chains = Jitbull_core.Chains
module Comparator = Jitbull_core.Comparator
module Table = Jitbull_util.Text_table
module Intern = Jitbull_util.Intern
module Delta = Jitbull_core.Delta
module Interp = Jitbull_interp.Interp
module Obs = Jitbull_obs.Obs
module Audit = Jitbull_obs.Audit
module Metrics = Jitbull_obs.Metrics
module Report = Jitbull_obs.Report
module Jsonx = Jitbull_obs.Jsonx
module Clock = Jitbull_obs.Clock
module Sexpr = Jitbull_util.Sexpr
module Http = Jitbull_obs.Http_export
module Proto = Jitbull_service.Proto
module Service = Jitbull_service.Service
module Client = Jitbull_service.Client

(* Machine-readable results, accumulated by sections and written out when
   --json OUT is given (the repo's BENCH_*.json perf trajectory). *)
let json_sections : (string * Jsonx.t) list ref = ref []

let emit name payload = json_sections := !json_sections @ [ (name, payload) ]

(* --audit: the telemetry section additionally measures the go/no-go
   audit trail (append throughput, bytes/record, engine-integrated
   verdict mix). *)
let audit_mode = ref false

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

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* The paper's DB build-up order: the four public-VDC vulnerabilities
   first (#1..#4), then the four reconstructed ones (#5..#8, §VI-D). *)
let cve_order =
  [
    VC.CVE_2019_17026;
    VC.CVE_2019_9810;
    VC.CVE_2019_9791;
    VC.CVE_2019_11707;
    VC.CVE_2019_9792;
    VC.CVE_2019_9795;
    VC.CVE_2019_9813;
    VC.CVE_2020_26952;
  ]

let first_n n lst = List.filteri (fun i _ -> i < n) lst

(* Build a database holding the first [n] VDCs' DNA (each harvested on an
   engine carrying just that bug, as its reporter would). *)
let build_db n =
  let db = Db.create () in
  List.iter
    (fun cve ->
      let d = V.find cve in
      ignore (Db.harvest db ~cve:d.V.name ~vulns:(VC.make [ cve ]) d.V.source))
    (first_n n cve_order);
  db

(* All durations go through the injectable clock so a manual source can
   drive the harness deterministically in tests. *)
let time f =
  let t0 = Clock.now () in
  let r = f () in
  (r, Clock.now () -. t0)

(* Deterministic workloads: best-of-3 is a stable point estimate. *)
let time_best f =
  let once () = snd (time f) in
  min (once ()) (min (once ()) (once ()))

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
        let vulns = VC.make [ d.V.cve ] in
        let patched = { Engine.default_config with Engine.vulns = VC.none } in
        let vulnerable = { Engine.default_config with Engine.vulns } in
        let db = Db.create () in
        ignore (Db.harvest db ~cve:d.V.name ~vulns d.V.source);
        let obs = Obs.create () in
        let protected_cfg = Jitbull.config ~obs ~vulns db in
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
  let d = V.find VC.CVE_2019_17026 in
  let vulns = VC.make [ d.V.cve ] in
  let db = Db.create () in
  ignore (Db.harvest db ~cve:d.V.name ~vulns d.V.source);
  let obs = Obs.create () in
  let cfg = Jitbull.config ~obs ~vulns db in
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

(* ---- Figure 4: false positives ---- *)

(* Databases are harvested once per size and shared: building one runs
   the demonstrators, which must never be part of a timed region. *)
let db_cache : (int, Db.t) Hashtbl.t = Hashtbl.create 8

let cached_db n =
  match Hashtbl.find_opt db_cache n with
  | Some db -> db
  | None ->
    let db = build_db n in
    Hashtbl.replace db_cache n db;
    db

let protected_config ?obs n =
  let vulns = VC.make (first_n n cve_order) in
  Jitbull.config ?obs ~vulns (cached_db n)

(* Run a workload under a #n-VDC JITBULL configuration; return engine
   stats and output. *)
let run_protected n (w : W.t) =
  let out, t = Engine.run_source (protected_config n) w.W.source in
  (out, Engine.stats t)

let fig4 () =
  section "Figure 4: false-positive rates on harmless benchmarks (#1 vs #4 VDCs)";
  Printf.printf
    "%%PassDis = JITed functions with >=1 pass disabled; %%NoJIT = functions\n\
     denied JIT entirely. Annotated with the number of Ion-compiled functions.\n\n";
  let rows =
    List.map
      (fun (w : W.t) ->
        let reference = (Interp.run_source w.W.source).Interp.output in
        let cell n =
          let out, s = run_protected n w in
          assert (String.equal out reference);
          let nr = max s.Engine.nr_jit 1 in
          Printf.sprintf "%.0f%% / %.0f%%"
            (100.0 *. float_of_int s.Engine.nr_disjit /. float_of_int nr)
            (100.0 *. float_of_int s.Engine.nr_nojit /. float_of_int nr)
        in
        let _, s1 = run_protected 1 w in
        [ w.W.name; string_of_int s1.Engine.nr_jit; cell 1; cell 4 ])
      W.everything
  in
  Table.print
    ~headers:[ "Benchmark"; "Nr_JIT"; "#1: %PassDis/%NoJIT"; "#4: %PassDis/%NoJIT" ]
    rows;
  Printf.printf
    "\nPaper shape: 0-5%% with one VDC (no function ever fully denied JIT);\n\
     10-65%% with four VDCs.\n"

(* ---- Figure 5: execution times ---- *)

let fig5 () =
  section "Figure 5: execution time - NoJIT vs JIT vs JITBULL (#0, #1, #4 VDCs)";
  let json_rows = ref [] in
  let rows =
    List.map
      (fun (w : W.t) ->
        let reference = (Interp.run_source w.W.source).Interp.output in
        let run config =
          let out = fst (Engine.run_source config w.W.source) in
          assert (String.equal out reference);
          time_best (fun () -> ignore (Engine.run_source config w.W.source))
        in
        let t_jit = run Engine.default_config in
        let t_nojit = run { Engine.default_config with Engine.jit_enabled = false } in
        let t_db0 =
          (* empty DB: analyzer omitted - the zero-overhead case *)
          run (Jitbull.config ~vulns:VC.none (Db.create ()))
        in
        let t_db n = run (protected_config n) in
        let t1 = t_db 1 and t4 = t_db 4 in
        let _, s4 = run_protected 4 w in
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

(* ---- Figure 6: scalability ---- *)

let fig6 () =
  section "Figure 6: scalability with #1..#8 VDCs in the database";
  let sizes = [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let json_rows = ref [] in
  let rows =
    List.map
      (fun (w : W.t) ->
        let t_jit =
          time_best (fun () -> ignore (Engine.run_source Engine.default_config w.W.source))
        in
        let overheads =
          List.map
            (fun n ->
              let t = time_best (fun () -> ignore (run_protected n w)) in
              (n, 100.0 *. (t -. t_jit) /. t_jit))
            sizes
        in
        json_rows :=
          Jsonx.Assoc
            [
              ("name", Jsonx.String w.W.name);
              ("jit_ms", Jsonx.Float (t_jit *. 1000.0));
              ( "overhead_pct",
                Jsonx.List (List.map (fun (_, pct) -> Jsonx.Float pct) overheads) );
            ]
          :: !json_rows;
        let cells = List.map (fun (_, pct) -> Printf.sprintf "%+.0f%%" pct) overheads in
        w.W.name :: cells)
      W.everything
  in
  emit "fig6" (Jsonx.List (List.rev !json_rows));
  Table.print
    ~headers:("Benchmark" :: List.map (fun n -> "#" ^ string_of_int n) sizes)
    rows;
  Printf.printf
    "\nPaper shape: overhead grows with DB size and flattens beyond ~4 VDCs\n\
     (max 22%%, min 5%% at #8).\n"

(* ---- §IV-A: the fuzzer-to-database pipeline ---- *)

let fuzz_pipeline () =
  section "Fuzzer-to-database pipeline (paper §IV-A)";
  Printf.printf
    "Exploit-shaped fuzzing against an engine carrying two unpatched bugs;\n\
     every finding's DNA is auto-harvested; fresh inputs are then re-tried.\n\n";
  let module F = Jitbull_fuzz in
  let vulns = VC.make [ VC.CVE_2019_17026; VC.CVE_2019_9813 ] in
  let fast cfg = { cfg with Engine.baseline_threshold = 2; Engine.ion_threshold = 4 } in
  let vulnerable = fast { Engine.default_config with Engine.vulns } in
  let train_seeds = List.init 30 (fun i -> i) in
  let train = F.Harness.campaign ~profile:`Aggressive ~seeds:train_seeds ~config:vulnerable () in
  Printf.printf "training campaign: %d programs, %d exploit signals\n" train.F.Harness.total
    (List.length train.F.Harness.signals);
  let db = Db.create () in
  let n = F.Harness.auto_harvest ~vulns ~db train.F.Harness.signals in
  Printf.printf "auto-harvested DNA entries: %d\n" n;
  let protected_cfg = fast (Jitbull.config ~vulns db) in
  let fresh = List.init 15 (fun i -> 1000 + i) in
  let before = F.Harness.campaign ~profile:`Aggressive ~seeds:fresh ~config:vulnerable () in
  let after = F.Harness.campaign ~profile:`Aggressive ~seeds:fresh ~config:protected_cfg () in
  Printf.printf
    "fresh never-seen inputs: %d/%d exploit without JITBULL, %d/%d with the fuzz-fed DB\n"
    (List.length before.F.Harness.signals)
    before.F.Harness.total
    (List.length after.F.Harness.signals)
    after.F.Harness.total;
  (* and benign code stays untouched *)
  let benign = F.Harness.campaign ~profile:`Benign ~seeds:train_seeds ~config:protected_cfg () in
  Printf.printf "benign corpus under the same DB: %d/%d agree, %d signals\n"
    benign.F.Harness.agreements benign.F.Harness.total
    (List.length benign.F.Harness.signals);

  (* ---- coverage-guided vs blind generation at equal exec count ---- *)
  Printf.printf
    "\ncoverage-guided vs blind generation (fully vulnerable engine, equal budget):\n";
  let all_vulns = fast { Engine.default_config with Engine.vulns = VC.make VC.all } in
  let execs = 60 in
  let guided = F.Harness.guided_campaign ~config:all_vulns ~max_execs:execs () in
  let blind = F.Harness.blind_sweep ~config:all_vulns ~max_execs:execs () in
  let rate (g : F.Harness.guided) =
    float_of_int g.F.Harness.g_execs /. Float.max 1e-9 g.F.Harness.g_seconds
  in
  Printf.printf "  %-8s %6s %9s %8s %8s  %s\n" "mode" "execs" "coverage" "signals"
    "execs/s" "corpus";
  let row name (g : F.Harness.guided) =
    Printf.printf "  %-8s %6d %9d %8d %8.0f  %d\n" name g.F.Harness.g_execs
      g.F.Harness.g_coverage
      (List.length g.F.Harness.g_signals)
      (rate g) g.F.Harness.g_corpus_size
  in
  row "guided" guided;
  row "blind" blind;
  let curve_string (g : F.Harness.guided) =
    g.F.Harness.g_curve
    |> List.map (fun (p : F.Harness.curve_point) ->
           Printf.sprintf "%d:%d" p.F.Harness.cp_execs p.F.Harness.cp_coverage)
    |> String.concat " "
  in
  Printf.printf "  guided coverage curve (exec:features): %s\n" (curve_string guided);
  Printf.printf "  blind  coverage curve (exec:features): %s\n" (curve_string blind);
  Printf.printf "  guided %s blind at equal exec count\n"
    (if guided.F.Harness.g_coverage > blind.F.Harness.g_coverage then "dominates"
     else "DOES NOT dominate");
  let curve_json (g : F.Harness.guided) =
    Jsonx.List
      (List.map
         (fun (p : F.Harness.curve_point) ->
           Jsonx.List [ Jsonx.Int p.F.Harness.cp_execs; Jsonx.Int p.F.Harness.cp_coverage ])
         g.F.Harness.g_curve)
  in
  let mode_json (g : F.Harness.guided) =
    Jsonx.Assoc
      [
        ("execs", Jsonx.Int g.F.Harness.g_execs);
        ("coverage", Jsonx.Int g.F.Harness.g_coverage);
        ("signals", Jsonx.Int (List.length g.F.Harness.g_signals));
        ("corpus", Jsonx.Int g.F.Harness.g_corpus_size);
        ("execs_per_sec", Jsonx.Float (rate g));
        ("coverage_curve", curve_json g);
      ]
  in

  (* ---- typed-IL mutation yield over a longer guided campaign ---- *)
  let yield_budget = 400 in
  let long_run =
    F.Harness.guided_campaign ~config:all_vulns ~rng_seed:7 ~max_execs:yield_budget ()
  in
  Printf.printf "\ntyped-IL mutation yield (%d-exec guided campaign, same engine):\n"
    yield_budget;
  row "guided" long_run;
  let y = long_run.F.Harness.g_yield in
  Printf.printf "  %d mutants, %d clean on the reference tier: %.1f%% yield\n"
    y.F.Harness.y_mutants y.F.Harness.y_valid
    (100.0 *. F.Harness.yield_ratio y);

  (* ---- distributed campaign: worker-scaling curves + CVE attribution ---- *)
  let topo_execs = 200 and topo_rounds = 2 in
  Printf.printf
    "\ndistributed campaign (in-process master + N worker threads, typed IL,\n\
     %d execs/round x %d rounds per worker, all 8 CVEs live, attribution on):\n"
    topo_execs topo_rounds;
  let run_topology n =
    let master = F.Sync.Master.start ~config:all_vulns ~port:0 () in
    let port = F.Sync.Master.port master in
    let t0 = Unix.gettimeofday () in
    let results = Array.make n None in
    let threads =
      List.init n (fun i ->
          Thread.create
            (fun i ->
              results.(i) <-
                Some
                  (F.Sync.Worker.run ~config:all_vulns ~track_cves:true
                     ~rounds:topo_rounds ~execs_per_round:topo_execs
                     ~rng_seed:(97 * n + i)
                     ~id:(Printf.sprintf "bench-w%d" (i + 1))
                     ~port ()))
            i)
    in
    List.iter Thread.join threads;
    let secs = Unix.gettimeofday () -. t0 in
    let rs = List.filter_map Fun.id (Array.to_list results) in
    let execs = List.fold_left (fun a r -> a + r.F.Sync.Worker.w_execs) 0 rs in
    let cves =
      List.sort_uniq compare
        (List.concat_map (fun r -> List.map fst r.F.Sync.Worker.w_cve_execs) rs)
    in
    let coverage = F.Sync.Master.coverage_count master in
    let corpus = F.Sync.Master.corpus_size master in
    let syncs = F.Sync.Master.syncs master in
    F.Sync.Master.stop master;
    (execs, secs, coverage, corpus, syncs, cves)
  in
  Printf.printf "  %-7s %6s %7s %8s %9s %7s %6s  %s\n" "workers" "execs" "secs" "execs/s"
    "coverage" "corpus" "syncs" "CVEs";
  let topo_json = ref [] in
  let rates = ref [] in
  List.iter
    (fun n ->
      let execs, secs, coverage, corpus, syncs, cves = run_topology n in
      let r = float_of_int execs /. Float.max 1e-9 secs in
      rates := !rates @ [ (n, r) ];
      Printf.printf "  %-7d %6d %7.1f %8.0f %9d %7d %6d  %d/8\n" n execs secs r coverage
        corpus syncs (List.length cves);
      topo_json :=
        !topo_json
        @ [
            Jsonx.Assoc
              [
                ("workers", Jsonx.Int n);
                ("execs", Jsonx.Int execs);
                ("seconds", Jsonx.Float secs);
                ("execs_per_sec", Jsonx.Float r);
                ("coverage", Jsonx.Int coverage);
                ("corpus", Jsonx.Int corpus);
                ("syncs", Jsonx.Int syncs);
                ( "cves_attributed",
                  Jsonx.List (List.map (fun c -> Jsonx.String (VC.cve_name c)) cves) );
              ];
          ])
    [ 1; 2; 4 ];
  let cores = Domain.recommended_domain_count () in
  let scaling_1_2 =
    match (List.assoc_opt 1 !rates, List.assoc_opt 2 !rates) with
    | Some r1, Some r2 when r1 > 0.0 -> r2 /. r1
    | _ -> 0.0
  in
  Printf.printf "  aggregate throughput 1 -> 2 workers: %.2fx\n" scaling_1_2;
  Printf.printf
    "  (workers are systhreads sharing one runtime domain: compute scaling is bounded\n\
    \   by host cores — this host has %d, so any gain above 1x here comes from corpus\n\
    \   sharing lowering per-exec cost, not from parallel execution)\n"
    cores;
  emit "fuzz"
    (Jsonx.Assoc
       [
         ("env_report", Env_report.to_json ());
         ("train_signals", Jsonx.Int (List.length train.F.Harness.signals));
         ("harvested_entries", Jsonx.Int n);
         ("fresh_exploits_unprotected", Jsonx.Int (List.length before.F.Harness.signals));
         ("fresh_exploits_protected", Jsonx.Int (List.length after.F.Harness.signals));
         ("guided", mode_json guided);
         ("blind", mode_json blind);
         ( "guided_dominates",
           Jsonx.Bool (guided.F.Harness.g_coverage > blind.F.Harness.g_coverage) );
         ("guided_400", mode_json long_run);
         ( "yield",
           Jsonx.Assoc
             [
               ("mutants", Jsonx.Int y.F.Harness.y_mutants);
               ("valid", Jsonx.Int y.F.Harness.y_valid);
               ("ratio", Jsonx.Float (F.Harness.yield_ratio y));
             ] );
         ("topologies", Jsonx.List !topo_json);
         ("scaling_1_to_2_workers", Jsonx.Float scaling_1_2);
       ])

(* ---- Ablation: comparator parameters and sub-chain size ----

   The paper fixes Thr = 3, Ratio = 0.5 "to optimize for a high detection
   rate" without reporting a sweep; this section measures both sides of
   the trade-off across the (Thr, Ratio, n-gram) grid:
   - detection: the 8 originals plus their rename variants must be
     neutralized on the unpatched engine (16 attempts);
   - false positives: mean %PassDis over a workload sample with the #4
     database installed. *)

let ablation () =
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
  let fp_sample =
    List.filter_map W.find [ "Richards"; "RayTrace"; "Splay"; "TypeScript"; "Microbench1" ]
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
          fp_sample;
        [
          string_of_int n;
          string_of_int params.Comparator.thr;
          Printf.sprintf "%.2f" params.Comparator.ratio;
          Printf.sprintf "%d/%d" !detections !attempts;
          Printf.sprintf "%.0f%%" (!fp_total /. float_of_int (List.length fp_sample));
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

(* ---- Telemetry: the observability layer measuring itself ---- *)

(* --audit mode: what does the audit trail itself cost? A synthetic
   append microbench (records/sec through the mutexed ring) and the
   JSONL footprint (bytes/record), plus the verdict mix the workload
   run above actually produced. *)
let telemetry_audit obs =
  Printf.printf "\n-- audit trail (--audit) --\n";
  let au = Obs.audit obs in
  let verdict_counts records =
    List.fold_left
      (fun (a, d, f) (r : Audit.record) ->
        match r.Audit.verdict with
        | Audit.Allow -> (a + 1, d, f)
        | Audit.Disable _ -> (a, d + 1, f)
        | Audit.Forbid -> (a, d, f + 1))
      (0, 0, 0) records
  in
  let engine_json =
    let records = Audit.records au in
    let allow, disable, forbid = verdict_counts records in
    let cache_hits =
      List.length
        (List.filter (fun r -> r.Audit.source = Audit.Cache_hit) records)
    in
    Printf.printf
      "workload run: %d decisions audited (allow %d / disable %d / forbid %d), %d cache hits\n"
      (Audit.total au) allow disable forbid cache_hits;
    Jsonx.Assoc
      [
        ("records_total", Jsonx.Int (Audit.total au));
        ("allow", Jsonx.Int allow);
        ("disable", Jsonx.Int disable);
        ("forbid", Jsonx.Int forbid);
        ("cache_hits", Jsonx.Int cache_hits);
      ]
  in
  (* Synthetic append throughput: a fresh ring, records shaped like a
     real disable verdict (one CVE, one matched pass). *)
  let n = 100_000 in
  let fresh = Audit.create () in
  let append ring i =
    ignore
      (Audit.append ring ~func_name:(Printf.sprintf "f%d" (i land 15))
         ~func_index:(i land 15) ~bytecode_hash:(i * 2654435761)
         ~feedback_hash:(i * 40503)
         ~verdict:(Audit.Disable [ "gvn" ])
         ~matches:
           [
             {
               Audit.cm_cve = "CVE-2019-17026";
               cm_passes =
                 [
                   {
                     Audit.pm_pass = "gvn";
                     pm_side = "removed";
                     pm_eq_chains = 3;
                     pm_max_eq_chains = 6;
                     pm_chains =
                       [ ("boundscheck->loadelement", 2); ("^guard->boundscheck", 1) ];
                   };
                 ];
             };
           ]
         ~thr:2 ~ratio:0.5 ~prefilter_candidates:8 ~prefilter_hits:1
         ~db_generation:4 ~db_size:8 ~source:Audit.Fresh ~duration:1e-5 ())
  in
  let (), dt =
    time (fun () ->
        for i = 0 to n - 1 do
          append fresh i
        done)
  in
  let rate = float_of_int n /. dt in
  let bytes =
    let sample = Audit.last fresh 64 in
    let total =
      List.fold_left
        (fun acc r ->
          (* +1: the newline each JSONL sink line costs on disk *)
          acc + String.length (Jsonx.to_string (Audit.record_to_json r)) + 1)
        0 sample
    in
    float_of_int total /. float_of_int (max 1 (List.length sample))
  in
  (* The ring estimate above re-serialises retained records; the number
     operators budget disk by is what the JSONL *file sink* actually
     writes. Run a second, smaller batch through [set_file_sink] and
     stat the file: real bytes/record and append throughput with the
     sink's serialise+write on the hot path. *)
  let sink_n = 10_000 in
  let sink_path = Filename.temp_file "jitbull_bench_audit" ".jsonl" in
  let sink_dt, sink_bytes =
    let sunk = Audit.create () in
    Audit.set_file_sink sunk sink_path;
    let (), sdt =
      time (fun () ->
          for i = 0 to sink_n - 1 do
            append sunk i
          done)
    in
    Audit.close sunk;
    let size = (Unix.stat sink_path).Unix.st_size in
    Sys.remove sink_path;
    (sdt, float_of_int size /. float_of_int sink_n)
  in
  let sink_rate = float_of_int sink_n /. sink_dt in
  Printf.printf
    "append microbench: %d records in %.2f ms — %.0f records/s, %.1f ns/record\n"
    n (dt *. 1000.0) rate (dt /. float_of_int n *. 1e9);
  Printf.printf "JSONL footprint (ring estimate): %.0f bytes/record\n" bytes;
  Printf.printf
    "JSONL file sink: %d records in %.2f ms — %.0f records/s, %.0f bytes/record on disk\n"
    sink_n (sink_dt *. 1000.0) sink_rate sink_bytes;
  emit "telemetry.audit"
    (Jsonx.Assoc
       [
         ("engine", engine_json);
         ("bench_records", Jsonx.Int n);
         ("seconds", Jsonx.Float dt);
         ("records_per_sec", Jsonx.Float rate);
         ("bytes_per_record", Jsonx.Float bytes);
         ("sink_records", Jsonx.Int sink_n);
         ("sink_seconds", Jsonx.Float sink_dt);
         ("sink_records_per_sec", Jsonx.Float sink_rate);
         ("sink_bytes_per_record", Jsonx.Float sink_bytes);
       ])

let telemetry () =
  section "Telemetry: pipeline pass percentiles and comparator throughput (#4 VDC DB)";
  Printf.printf
    "A fully instrumented run (metrics registry + tracer installed) over a\n\
     workload sample with four VDCs in the database: per-pass latency\n\
     percentiles from the fixed-bucket histograms, comparator throughput,\n\
     and tier dispatch counts.\n\n";
  let obs = Obs.create () in
  let sample =
    List.filter_map W.find [ "Richards"; "RayTrace"; "Splay"; "TypeScript"; "Microbench1" ]
  in
  List.iter
    (fun (w : W.t) -> ignore (Engine.run_source (protected_config ~obs 4) w.W.source))
    sample;
  let view = Metrics.snapshot (Obs.metrics obs) in
  let headers, rows = Report.pass_profile view in
  Table.print ~headers rows;
  let counter name = Option.value ~default:0 (Metrics.find_counter view name) in
  (* Tail latency comes from the live registry via [Metrics.quantile] —
     the snapshot view only carries the fixed p50/p90 — so the figure
     printed here is the same estimator /healthz alarms on. *)
  let p99 name = Metrics.quantile (Metrics.histogram (Obs.metrics obs) name) 0.99 in
  (match Metrics.find_histogram view "comparator.seconds" with
  | Some hv when hv.Metrics.hv_count > 0 ->
    Printf.printf
      "\ncomparator: %d DNA-pair comparisons in %.2f ms (p50 %.1f us, p90 %.1f us, p99 %.1f us) — %.0f pairs/s, %d pass matches\n"
      hv.Metrics.hv_count
      (hv.Metrics.hv_sum *. 1000.0)
      (hv.Metrics.hv_p50 *. 1e6)
      (hv.Metrics.hv_p90 *. 1e6)
      (p99 "comparator.seconds" *. 1e6)
      (float_of_int hv.Metrics.hv_count /. hv.Metrics.hv_sum)
      (counter "comparator.matches")
  | _ -> ());
  (match Metrics.find_histogram view "policy_decide.seconds" with
  | Some hv when hv.Metrics.hv_count > 0 ->
    Printf.printf
      "policy_decide: %d verdicts (allow %d / disable %d / forbid %d), p90 %.1f us, p99 %.1f us\n"
      hv.Metrics.hv_count (counter "policy.allow") (counter "policy.disable")
      (counter "policy.forbid") (hv.Metrics.hv_p90 *. 1e6)
      (p99 "policy_decide.seconds" *. 1e6)
  | _ -> ());
  Printf.printf "dispatch: %d calls (%d interpreted, %d through JIT code)\n"
    (counter "vm.calls") (counter "vm.dispatch.interp") (counter "vm.dispatch.jit");
  Printf.printf "trace events recorded: %d (ring keeps the newest %d)\n"
    (Jitbull_obs.Tracer.total_recorded (Obs.tracer obs))
    (List.length (Jitbull_obs.Tracer.events (Obs.tracer obs)));
  (* the section payload carries its own host report: telemetry numbers
     archived out of a full --json document stay self-describing *)
  emit "telemetry"
    (Jsonx.Assoc
       [
         ("env_report", Env_report.to_json ());
         ("metrics", Metrics.view_to_json view);
       ]);
  if !audit_mode then telemetry_audit obs

(* ---- Overhead: go/no-go query cost vs database size ----

   The paper's evaluation stops at #8 VDCs; this section measures how the
   decision cost scales past that, comparing the naive comparator fold
   (O(entries)) against the inverted sub-chain index at 1/8/32/128
   entries. Databases beyond the 8 harvested CVEs are padded with
   synthetic clones whose sub-chain keys are renamed per clone — the
   realistic regime where distinct vulnerabilities share few keys. Every
   timed query is also checked for decision equivalence between the two
   paths, and the policy-decision cache is measured on repeated runs of a
   real workload. *)

let overhead () =
  section "Overhead: go/no-go decision cost vs DB size (indexed vs naive)";
  Printf.printf
    "Per-query latency of the DB comparison for a function DNA, naive fold\n\
     over every entry vs the inverted sub-chain index, at 1/8/32/128 entries\n\
     (8 harvested CVE DNAs + key-renamed synthetic clones). Decisions are\n\
     asserted identical on every timed query.\n\n";
  let params = Comparator.default_params in
  let real_entries = Db.entries (cached_db 8) in
  let nreal = List.length real_entries in
  (* clone [idx]-th entry with per-clone key renaming: synthetic CVEs must
     not collide with each other or the real ones *)
  let perturb_side k side =
    Delta.side_of_list
      (Hashtbl.fold
         (fun id c acc -> (Printf.sprintf "v%d:%s" k (Intern.to_string id), c) :: acc)
         side [])
  in
  let synth_entry k (e : Db.entry) =
    {
      Db.cve = Printf.sprintf "%s-syn%d" e.Db.cve k;
      dna =
        {
          e.Db.dna with
          Dna.deltas =
            List.map
              (fun (pass, (d : Delta.t)) ->
                ( pass,
                  { Delta.removed = perturb_side k d.Delta.removed;
                    added = perturb_side k d.Delta.added } ))
              e.Db.dna.Dna.deltas;
        };
    }
  in
  let db_of_size s =
    let db = Db.create () in
    for i = 0 to s - 1 do
      let e = List.nth real_entries (i mod nreal) in
      Db.add db (if i < nreal then e else synth_entry (i / nreal) e)
    done;
    db
  in
  (* query set: benign DNAs from workload functions (the common case) plus
     one exploit DNA straight from the database (the hit path) *)
  let dna_of_source source =
    let prog = Jitbull_frontend.Parser.parse source in
    let bc = Jitbull_bytecode.Compiler.compile prog in
    let vm = Jitbull_bytecode.Vm.create bc in
    (try ignore (Jitbull_bytecode.Vm.run vm) with _ -> ());
    let g =
      Jitbull_mir.Builder.build bc.Jitbull_bytecode.Op.funcs.(0)
        ~feedback_row:vm.Jitbull_bytecode.Vm.feedback.(0)
    in
    Dna.extract (Jitbull_passes.Pipeline.run VC.none g)
  in
  let queries =
    List.map (fun (w : W.t) -> dna_of_source w.W.source)
      (List.filter_map W.find [ "Richards"; "RayTrace"; "Splay"; "Microbench1" ])
    @ [ (List.hd real_entries).Db.dna ]
  in
  let naive db dna =
    List.filter_map
      (fun (e : Db.entry) ->
        match Comparator.matching_passes ~params dna e.Db.dna with
        | [] -> None
        | passes -> Some (e.Db.cve, passes))
      (Db.entries db)
  in
  let reps = 20 in
  let nq = List.length queries in
  let per_query t = t /. float_of_int (reps * nq) *. 1e6 in
  let json_rows = ref [] in
  let speedup_at_128 = ref 0.0 in
  let rows =
    List.map
      (fun s ->
        let db = db_of_size s in
        let equal =
          List.for_all (fun dna -> Db.matching ~params db dna = naive db dna) queries
        in
        assert equal;
        let t_naive =
          time_best (fun () ->
              for _ = 1 to reps do
                List.iter (fun dna -> ignore (naive db dna)) queries
              done)
        in
        let t_indexed =
          time_best (fun () ->
              for _ = 1 to reps do
                List.iter (fun dna -> ignore (Db.matching ~params db dna)) queries
              done)
        in
        let speedup = t_naive /. t_indexed in
        if s = 128 then speedup_at_128 := speedup;
        json_rows :=
          Jsonx.Assoc
            [
              ("entries", Jsonx.Int s);
              ("naive_us_per_query", Jsonx.Float (per_query t_naive));
              ("indexed_us_per_query", Jsonx.Float (per_query t_indexed));
              ("speedup", Jsonx.Float speedup);
              ("decisions_equal", Jsonx.Bool equal);
            ]
          :: !json_rows;
        [
          string_of_int s;
          Printf.sprintf "%.1f us" (per_query t_naive);
          Printf.sprintf "%.1f us" (per_query t_indexed);
          Printf.sprintf "%.1fx" speedup;
          (if equal then "identical" else "DIVERGED!");
        ])
      [ 1; 8; 32; 128 ]
  in
  Table.print
    ~headers:[ "DB entries"; "naive/query"; "indexed/query"; "speedup"; "verdicts" ]
    rows;
  Printf.printf "\nIndexed speedup at 128 entries: %.1fx (target: >= 3x)\n" !speedup_at_128;
  (* policy-decision cache: repeated runs of a real workload under one
     shared configuration — every re-JIT after the first run hits *)
  let obs = Obs.create () in
  let cfg = protected_config ~obs 4 in
  let w = Option.get (W.find "Microbench1") in
  for _ = 1 to 5 do
    ignore (Engine.run_source cfg w.W.source)
  done;
  let view = Metrics.snapshot (Obs.metrics obs) in
  let counter name = Option.value ~default:0 (Metrics.find_counter view name) in
  let hits = counter "policy.cache_hits" and misses = counter "policy.cache_misses" in
  Printf.printf
    "Policy-decision cache over 5 runs of %s (#4 DB): %d hits / %d misses\n\
     (every Ion compile after the first run skips DNA extraction + comparison)\n"
    w.W.name hits misses;
  (* explain capture A/B: the acceptance bar for the explainability layer
     is that overhead with capture *disabled* is unchanged — the capture
     branch must stay behind the [Obs.irdiff] option. Same workload, one
     configuration without a diff ring and one with; the capture side
     also reports the time the diff summarisation billed to
     [explain.capture_seconds]. *)
  let explain_ab explain =
    let obs = if explain then Obs.create ~explain_capacity:64 () else Obs.create () in
    let cfg = protected_config ~obs 4 in
    let (), wall =
      time (fun () ->
          for _ = 1 to 5 do
            ignore (Engine.run_source cfg w.W.source)
          done)
    in
    let view = Metrics.snapshot (Obs.metrics obs) in
    let hist_sum name =
      match Metrics.find_histogram view name with
      | Some hv -> hv.Metrics.hv_sum
      | None -> 0.0
    in
    (wall, hist_sum "policy_decide.seconds", hist_sum "explain.capture_seconds")
  in
  let off_wall, off_decide, _ = explain_ab false in
  let on_wall, on_decide, on_capture = explain_ab true in
  Printf.printf
    "Explain capture A/B over 5 runs of %s:\n\
    \  capture off: %.1f ms wall, %.2f ms in policy_decide\n\
    \  capture on:  %.1f ms wall, %.2f ms in policy_decide, %.2f ms in IR-diff capture\n"
    w.W.name (off_wall *. 1000.0) (off_decide *. 1000.0) (on_wall *. 1000.0)
    (on_decide *. 1000.0) (on_capture *. 1000.0);
  emit "overhead"
    (Jsonx.Assoc
       [
         ("sizes", Jsonx.List (List.rev !json_rows));
         ("speedup_at_128", Jsonx.Float !speedup_at_128);
         ( "policy_cache",
           Jsonx.Assoc [ ("hits", Jsonx.Int hits); ("misses", Jsonx.Int misses) ] );
         ( "explain_capture",
           Jsonx.Assoc
             [
               ("off_wall_seconds", Jsonx.Float off_wall);
               ("off_policy_decide_seconds", Jsonx.Float off_decide);
               ("on_wall_seconds", Jsonx.Float on_wall);
               ("on_policy_decide_seconds", Jsonx.Float on_decide);
               ("on_capture_seconds", Jsonx.Float on_capture);
             ] );
       ])

(* ---- Concurrency: off-main-thread Ion compilation ----

   Runs a workload sample under the #4-VDC JITBULL configuration with the
   Ion tier-up offloaded to 0/1/2/4 helper domains. jobs=0 is the
   synchronous reference: every other job count must produce the same
   output, and every function analyzed in both runs must receive the
   identical go/no-go verdict (the background pipeline analyzes frozen
   enqueue-time snapshots, so per-function verdicts are deterministic;
   the *set* of hot functions can legitimately grow by one or two, since
   a caller keeps executing baseline code during its compile window and
   its callees — which synchronous inlining would have starved of
   invocations — may cross the Ion threshold themselves). Reported per
   cell: best-of-3 wall time and the main-thread stall — the time the
   main thread spends blocked on compilation (the whole compile at
   jobs=0, only end-of-run drain waits otherwise). Wall-time wins need
   real cores; stall shrinks regardless. *)

let concurrency () =
  section "Concurrency: off-main-thread Ion compilation (0/1/2/4 helper domains)";
  Printf.printf
    "Host reports %d core(s); helper domains beyond that shrink main-thread\n\
     stall but cannot shrink wall time.\n\n"
    (Domain.recommended_domain_count ());
  let job_counts = [ 0; 1; 2; 4 ] in
  let sample =
    List.filter_map W.find [ "Richards"; "RayTrace"; "Splay"; "TypeScript"; "Microbench1" ]
  in
  let with_pool jobs f =
    if jobs = 0 then f None
    else begin
      let pool = Compile_queue.create ~jobs () in
      Fun.protect ~finally:(fun () -> Compile_queue.shutdown pool) (fun () -> f (Some pool))
    end
  in
  let vulns = VC.make (first_n 4 cve_order) in
  let run_one ?obs pool (w : W.t) =
    let cfg = Jitbull.config ?obs ?compile_pool:pool ~vulns (cached_db 4) in
    let out, e = Engine.run_source cfg w.W.source in
    (out, Engine.stats e)
  in
  (* an audited run: its output and the analyzer's func → verdict pairs,
     deduplicated *)
  let audited pool w =
    let obs = Obs.create () in
    let out, _ = run_one ~obs pool w in
    let verdicts =
      Audit.records (Obs.audit obs)
      |> List.filter_map (fun (r : Audit.record) ->
             if r.Audit.source = Audit.Fresh then
               Some (r.Audit.func_name, Audit.verdict_to_string r.Audit.verdict)
             else None)
      |> List.sort_uniq compare
    in
    (out, verdicts)
  in
  (* every function analyzed in both runs got the identical verdict(s) *)
  let verdicts_agree a b =
    let funcs l = List.sort_uniq compare (List.map fst l) in
    let common = List.filter (fun f -> List.mem f (funcs b)) (funcs a) in
    List.for_all
      (fun f ->
        List.filter (fun (g, _) -> String.equal g f) a
        = List.filter (fun (g, _) -> String.equal g f) b)
      common
  in
  let json_rows = ref [] in
  let rows =
    List.map
      (fun (w : W.t) ->
        let out0, v0 = with_pool 0 (fun pool -> audited pool w) in
        let cells =
          List.map
            (fun jobs ->
              with_pool jobs (fun pool ->
                  let out, v = audited pool w in
                  (* identity vs the synchronous reference *)
                  assert (String.equal out out0);
                  assert (verdicts_agree v0 v);
                  (* timed runs install no Obs; stall is the last one's *)
                  let last = ref None in
                  let wall =
                    time_best (fun () -> last := Some (snd (run_one pool w)))
                  in
                  let s = Option.get !last in
                  json_rows :=
                    Jsonx.Assoc
                      [
                        ("name", Jsonx.String w.W.name);
                        ("jobs", Jsonx.Int jobs);
                        ("wall_ms", Jsonx.Float (wall *. 1000.0));
                        ("stall_ms", Jsonx.Float (s.Engine.main_stall_seconds *. 1000.0));
                        ("async_installs", Jsonx.Int s.Engine.async_installs);
                        ("stale_results", Jsonx.Int s.Engine.stale_results);
                        ("verdicts_identical", Jsonx.Bool true);
                      ]
                    :: !json_rows;
                  Printf.sprintf "%.0f / %.2f ms" (wall *. 1000.0)
                    (s.Engine.main_stall_seconds *. 1000.0)))
            job_counts
        in
        (w.W.name :: cells) @ [ "identical" ])
      sample
  in
  Table.print
    ~headers:
      ("Benchmark"
      :: List.map (fun j -> Printf.sprintf "jobs=%d wall/stall" j) job_counts
      @ [ "verdicts" ])
    rows;
  emit "concurrency"
    (Jsonx.Assoc
       [
         ("cores", Jsonx.Int (Domain.recommended_domain_count ()));
         ("rows", Jsonx.List (List.rev !json_rows));
       ])

(* ---- Fleet-scale verdict service: jitbulld throughput ----

   Records a compile stream once — every Ion compile of a workload
   sample plus the eight demonstrators, captured as the exact
   [Proto.verdict_req] the remote analyzer would send, with the local
   verdict computed at record time — then replays it against a live
   in-process [Service] over raw keep-alive connections
   ([Client.verdict_roundtrip], one systhread per simulated engine).
   Hot replays hit the server's line cache; cold replays perturb the
   feedback hash per iteration so every request misses it and pays the
   full DNA parse + indexed query.

   Swept: client concurrency C (1/8/64/256) and batch size K (1/8/32).
   Every response is checked against the verdict recorded locally for
   that stream entry — the remote==local oracle holds on every benched
   request or the section fails.

   JITBULL_BENCH_SERVICE_BUDGET_S (default 0.6) is the per-config time
   budget; JITBULL_BENCH_SERVICE_MAXC caps the concurrency sweep (CI
   smoke runs with MAXC=8 and a small budget). *)

(* The recorded stream: requests in compile order plus the expected
   verdict per request id. *)
let record_stream () =
  let params = Comparator.default_params in
  let db = cached_db 8 in
  let reqs = ref [] in
  let expected : (int, Proto.verdict) Hashtbl.t = Hashtbl.create 64 in
  let next_id = ref 0 in
  let analyzer ~ctx ~func_index:_ ~name ~trace =
    let dna = Dna.extract trace in
    let matched = Db.matching ~params db dna in
    let _, verdict = Jitbull.verdict_of_matches matched in
    let id = !next_id in
    incr next_id;
    reqs :=
      {
        Proto.vr_id = id;
        vr_func = name;
        vr_bytecode_hash = ctx.Engine.cc_bytecode_hash;
        vr_feedback_hash = ctx.Engine.cc_feedback_hash;
        vr_dna = Sexpr.to_string (Dna.to_sexpr dna);
      }
      :: !reqs;
    Hashtbl.replace expected id verdict;
    Proto.decision_of_verdict verdict
  in
  let sample =
    List.filter_map W.find [ "Richards"; "RayTrace"; "Splay"; "TypeScript"; "Microbench1" ]
  in
  List.iter
    (fun (w : W.t) ->
      let cfg = { Engine.default_config with Engine.analyzer = Some analyzer } in
      ignore (Engine.run_source cfg w.W.source))
    sample;
  (* the hit path: demonstrators on an engine carrying their bug *)
  List.iter
    (fun (d : V.t) ->
      let cfg =
        { Engine.default_config with
          Engine.vulns = VC.make [ d.V.cve ]; analyzer = Some analyzer }
      in
      try ignore (Engine.run_source cfg d.V.source) with _ -> ())
    V.all;
  (Array.of_list (List.rev !reqs), expected)

(* Weighted percentile over (round-trip latency, requests in that
   round-trip) samples: each request in a batch experienced the batch's
   round-trip latency. *)
let latency_percentile samples p =
  let samples = List.sort compare samples in
  let total = List.fold_left (fun a (_, c) -> a + c) 0 samples in
  if total = 0 then 0.0
  else begin
    let target = max 1 (int_of_float (ceil (p *. float_of_int total))) in
    let rec go acc = function
      | [] -> 0.0
      | (dt, c) :: rest -> if acc + c >= target then dt else go (acc + c) rest
    in
    go 0 samples
  end

type service_run = {
  sr_requests : int;
  sr_seconds : float;
  sr_rps : float;
  sr_p50_ms : float;
  sr_p99_ms : float;
  sr_mismatches : int;
  sr_errors : int;
}

(* One configuration: [clients] threads, each with its own keep-alive
   connection, pulling [batch]-sized windows off a shared cursor into
   the stream until the budget expires.

   [mode] is the replay flavour:
   - [`Hot]: the stream is replayed verbatim, so after the first pass
     every request hits the server's line cache — the fleet regime,
     where many engines compile the same hot functions. Batch bodies
     are pre-encoded once (one per cursor offset), keeping client-side
     serialization off the measured path too.
   - [`Cold]: every replayed request perturbs its feedback hash with
     the replay counter, so every request misses the line cache and
     pays the full JSON parse + DNA parse + indexed query; the verdict
     (a function of the DNA alone) is unchanged, so the oracle still
     applies. *)
(* Cheap oracle check without a full JSON parse. [Proto.resp_to_json]
   renders compactly with [id] first and [verdict] second
   ({"id":N,"verdict":"allow",...}), so the measured loop can extract
   both with a linear scan — the full decoder, which would dominate the
   client side of the hot path on a small host, runs only on the warm-up
   round-trip. Verdict kinds are distinguished by their first letter.
   Returns the number of response lines; mismatched or malformed lines
   count into [mismatches]. *)
let scan_oracle ~expected ~mismatches body =
  let n = String.length body in
  let count = ref 0 in
  let pos = ref 0 in
  while !pos < n do
    let eol = match String.index_from_opt body !pos '\n' with
      | Some e -> e
      | None -> n
    in
    if eol > !pos then begin
      incr count;
      let ok =
        let i = !pos in
        if eol - i > 8 && String.sub body i 6 = {|{"id":|} then begin
          let j = ref (i + 6) in
          let neg = body.[!j] = '-' in
          if neg then incr j;
          let id = ref 0 in
          let digits = ref 0 in
          while !j < eol && body.[!j] >= '0' && body.[!j] <= '9' do
            id := (!id * 10) + (Char.code body.[!j] - 48);
            incr digits;
            incr j
          done;
          let id = if neg then - !id else !id in
          let vkey = {|,"verdict":"|} in
          let vl = String.length vkey in
          if !digits > 0 && !j + vl < eol && String.sub body !j vl = vkey then
            match (Hashtbl.find_opt expected id, body.[!j + vl]) with
            | Some `Allow, 'a' -> true
            | Some (`Disable _), 'd' -> true
            | Some `Forbid, 'f' -> true
            | _ -> false
          else false
        end
        else false
      in
      if not ok then Atomic.incr mismatches
    end;
    pos := eol + 1
  done;
  !count

let service_run ~port ~clients ~batch ~budget_s ~mode ~stream ~expected =
  let conns =
    Array.init clients (fun _ -> Http.Conn.connect ~timeout_s:30.0 ~port ())
  in
  let n = Array.length stream in
  (* hot mode: body for the window starting at offset r, encoded once *)
  let hot_bodies =
    match mode with
    | `Cold -> [||]
    | `Hot ->
      Array.init n (fun r ->
          Proto.encode_reqs
            (List.init batch (fun k -> stream.((r + k) mod n))))
  in
  let cursor = Atomic.make 0 in
  let mismatches = Atomic.make 0 in
  let errors = Atomic.make 0 in
  let completed = Atomic.make 0 in
  let lats = Array.make clients [] in
  (* one warm-up round-trip so connection setup and first-touch costs sit
     outside the timed region *)
  (match Client.verdict_roundtrip conns.(0) [ stream.(0) ] with
  | Ok _ -> ()
  | Error msg -> failwith ("service bench warm-up failed: " ^ msg));
  let stop_at = Unix.gettimeofday () +. budget_s in
  let worker i =
    let conn = ref conns.(i) in
    let rec loop acc =
      if Unix.gettimeofday () >= stop_at then acc
      else begin
        let base = Atomic.fetch_and_add cursor batch in
        let body =
          match mode with
          | `Hot -> hot_bodies.(base mod n)
          | `Cold ->
            Proto.encode_reqs
              (List.init batch (fun k ->
                   let r = stream.((base + k) mod n) in
                   { r with
                     Proto.vr_feedback_hash =
                       r.Proto.vr_feedback_hash lxor ((base + k) * 0x9E3779B1)
                   }))
        in
        let t0 = Unix.gettimeofday () in
        match Http.Conn.request !conn ~meth:"POST" ~body "/verdict" with
        | 200, _, rbody ->
          let dt = Unix.gettimeofday () -. t0 in
          let got = scan_oracle ~expected ~mismatches rbody in
          if got <> batch then Atomic.incr mismatches;
          ignore (Atomic.fetch_and_add completed got);
          loop ((dt, got) :: acc)
        | _, _, _ | (exception _) -> (
          (* dead connection (timeout / hang-up): count it, reconnect
             and keep replaying; only an unreachable server stops us *)
          Atomic.incr errors;
          match Http.Conn.connect ~timeout_s:30.0 ~port () with
          | c ->
            (try Http.Conn.close !conn with _ -> ());
            conn := c;
            loop acc
          | exception _ -> acc)
      end
    in
    lats.(i) <- loop [];
    try Http.Conn.close !conn with _ -> ()
  in
  let t_start = Unix.gettimeofday () in
  let threads = Array.init clients (fun i -> Thread.create worker i) in
  Array.iter Thread.join threads;
  let elapsed = Unix.gettimeofday () -. t_start in
  let samples = Array.to_list lats |> List.concat in
  {
    sr_requests = Atomic.get completed;
    sr_seconds = elapsed;
    sr_rps = float_of_int (Atomic.get completed) /. Float.max 1e-9 elapsed;
    sr_p50_ms = latency_percentile samples 0.50 *. 1000.0;
    sr_p99_ms = latency_percentile samples 0.99 *. 1000.0;
    sr_mismatches = Atomic.get mismatches;
    sr_errors = Atomic.get errors;
  }

let service_bench () =
  section "Fleet-scale verdict service: jitbulld throughput (batch x concurrency)";
  let budget_s =
    match Sys.getenv_opt "JITBULL_BENCH_SERVICE_BUDGET_S" with
    | Some s -> (try float_of_string s with _ -> 0.6)
    | None -> 0.6
  in
  let maxc =
    match Sys.getenv_opt "JITBULL_BENCH_SERVICE_MAXC" with
    | Some s -> (try int_of_string s with _ -> 256)
    | None -> 256
  in
  (* long-lived verdict service tuning, mirrored in jitbulld: a larger
     minor heap keeps request-body allocation from forcing frequent
     stop-the-world minor collections across the server domains — on a
     small host those syncs are the dominant latency stragglers *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 4 * 1024 * 1024 };
  let stream, expected = record_stream () in
  let stream_bytes =
    Array.fold_left
      (fun a r -> a + String.length (Proto.encode_reqs [ r ]))
      0 stream
  in
  Printf.printf
    "recorded compile stream: %d requests (%d non-allow verdicts, avg\n\
     request line %d bytes); every response is checked against the\n\
     verdict recorded locally for that stream entry. 'hot' replays the\n\
     stream verbatim (server line-cache hits: the fleet regime); 'cold'\n\
     perturbs each request's feedback hash so every request pays the\n\
     full JSON parse + DNA parse + indexed query.\n\n"
    (Array.length stream)
    (Hashtbl.fold (fun _ v n -> if v <> `Allow then n + 1 else n) expected 0)
    (stream_bytes / max 1 (Array.length stream));
  let cs = List.filter (fun c -> c <= maxc) [ 1; 8; 64; 256 ] in
  let cs = if cs = [] then [ 1 ] else cs in
  (* the acceptance comparison is anchored at C=64 (or the largest
     available concurrency below it when MAXC caps the sweep) *)
  let anchor_c =
    List.fold_left max 1 (List.filter (fun c -> c <= 64) cs)
  in
  let cold_c = min 8 anchor_c in
  (* hot: concurrency sweep at K=8, batch sweep at the anchor
     concurrency; cold: the uncached path at one moderate configuration *)
  let configs =
    List.map (fun c -> (`Hot, c, 8)) cs
    @ [ (`Hot, anchor_c, 1); (`Hot, anchor_c, 32); (`Cold, cold_c, 8) ]
  in
  let results = ref [] in
  let mode_name = function `Hot -> "hot" | `Cold -> "cold" in
  (* [workers] sized to the host: extra accept domains on a small
     machine only add stop-the-world GC participants *)
  let workers = max 1 (min 4 (Domain.recommended_domain_count ())) in
  let with_service ?server_cache f =
    let svc = Service.create ~workers ?server_cache ~db:(cached_db 8) ~port:0 () in
    Fun.protect ~finally:(fun () -> Service.stop svc) (fun () ->
        f (Service.port svc))
  in
  with_service (fun port ->
      List.iter
        (fun (mode, clients, batch) ->
          let r =
            service_run ~port ~clients ~batch ~budget_s ~mode ~stream ~expected
          in
          results := ((mode_name mode, clients, batch), r) :: !results)
        configs);
  (* the pre-service baseline: unbatched, line cache off — every
     request pays full JSON parse + DNA parse + query, as a naive
     verdict server would *)
  with_service ~server_cache:false (fun port ->
      let r =
        service_run ~port ~clients:anchor_c ~batch:1 ~budget_s ~mode:`Hot
          ~stream ~expected
      in
      results := (("naive", anchor_c, 1), r) :: !results);
  let results = List.rev !results in
  let rows =
    List.map
      (fun ((label, clients, batch), r) ->
        [
          label;
          string_of_int clients;
          string_of_int batch;
          string_of_int r.sr_requests;
          Printf.sprintf "%.0f" r.sr_rps;
          Printf.sprintf "%.2f" r.sr_p50_ms;
          Printf.sprintf "%.2f" r.sr_p99_ms;
          (if r.sr_mismatches = 0 then "identical"
           else Printf.sprintf "%d DIVERGED!" r.sr_mismatches);
          string_of_int r.sr_errors;
        ])
      results
  in
  Table.print
    ~headers:
      [ "mode"; "clients"; "batch"; "requests"; "req/s"; "p50 ms"; "p99 ms";
        "oracle"; "errors" ]
    rows;
  let find key = List.assoc_opt key results in
  let speedup_over base =
    match (find ("hot", anchor_c, 8), find base) with
    | Some fast, Some base when base.sr_rps > 0.0 -> fast.sr_rps /. base.sr_rps
    | _ -> 0.0
  in
  let speedup = speedup_over ("naive", anchor_c, 1) in
  let batch_only = speedup_over ("hot", anchor_c, 1) in
  let total_mismatches =
    List.fold_left (fun a (_, r) -> a + r.sr_mismatches) 0 results
  in
  Printf.printf
    "\nbatched (K=8) + server cache vs the naive baseline\n\
     (batch-1, line cache off) at C=%d: %.1fx (target: >= 5x)\n\
     batching alone (same server, K=8 vs K=1): %.1fx\n\
     (this host has %d core(s))\n\
     remote==local oracle: %s\n"
    anchor_c speedup batch_only
    (Domain.recommended_domain_count ())
    (if total_mismatches = 0 then "held on every request"
     else Printf.sprintf "%d MISMATCHES" total_mismatches);
  if total_mismatches <> 0 then failwith "service bench: remote verdicts diverged from local";
  emit "service"
    (Jsonx.Assoc
       [
         ("stream_requests", Jsonx.Int (Array.length stream));
         ("budget_s", Jsonx.Float budget_s);
         ("cores", Jsonx.Int (Domain.recommended_domain_count ()));
         ( "runs",
           Jsonx.List
             (List.map
                (fun ((label, clients, batch), r) ->
                  Jsonx.Assoc
                    [
                      ("mode", Jsonx.String label);
                      ("clients", Jsonx.Int clients);
                      ("batch", Jsonx.Int batch);
                      ("requests", Jsonx.Int r.sr_requests);
                      ("seconds", Jsonx.Float r.sr_seconds);
                      ("requests_per_sec", Jsonx.Float r.sr_rps);
                      ("p50_ms", Jsonx.Float r.sr_p50_ms);
                      ("p99_ms", Jsonx.Float r.sr_p99_ms);
                      ("mismatches", Jsonx.Int r.sr_mismatches);
                      ("errors", Jsonx.Int r.sr_errors);
                    ])
                results) );
         ("speedup_vs_naive", Jsonx.Float speedup);
         ("speedup_batch_only", Jsonx.Float batch_only);
         ("oracle_held", Jsonx.Bool (total_mismatches = 0));
       ])

(* ---- Bechamel micro-benchmarks ---- *)

let bechamel () =
  section "Bechamel micro-benchmarks of the JITBULL machinery";
  (* time the coarse end-to-end number first, before Bechamel's sampling
     data inflates the live heap *)
  let compile_src =
    "function hot(a, b) { var t = 0; for (var i = 0; i < 10; i++) { t = t + a * i - b; } return t; } for (var k = 0; k < 40; k++) hot(k, 2);"
  in
  let t_end_to_end =
    time_best (fun () ->
        ignore
          (Engine.run_source { Engine.default_config with Engine.ion_threshold = 8 } compile_src))
  in
  let open Bechamel in
  (* fixtures: a representative optimized trace and DNA pair *)
  let trace =
    let prog = Jitbull_frontend.Parser.parse W.microbench1.W.source in
    let bc = Jitbull_bytecode.Compiler.compile prog in
    let vm = Jitbull_bytecode.Vm.create bc in
    (try ignore (Jitbull_bytecode.Vm.run vm) with _ -> ());
    let g =
      Jitbull_mir.Builder.build bc.Jitbull_bytecode.Op.funcs.(0)
        ~feedback_row:vm.Jitbull_bytecode.Vm.feedback.(0)
    in
    Jitbull_passes.Pipeline.run VC.none g
  in
  let dna = Dna.extract trace in
  let snapshot = snd (List.hd trace) in
  let depgraph_fixture = Depgraph.build snapshot in
  let tests =
    [
      Test.make ~name:"depgraph build" (Staged.stage (fun () -> Depgraph.build snapshot));
      Test.make ~name:"chains extract" (Staged.stage (fun () -> Chains.extract depgraph_fixture));
      Test.make ~name:"dna extract (18 passes)" (Staged.stage (fun () -> Dna.extract trace));
      Test.make ~name:"comparator (self)"
        (Staged.stage (fun () -> Comparator.matching_passes dna dna));
    ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"jitbull" ~fmt:"%s %s" tests) in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let estimate =
          match Analyze.OLS.estimates ols with
          | Some [ e ] -> Printf.sprintf "%12.1f ns/run" e
          | _ -> "n/a"
        in
        [ name; estimate ] :: acc)
      results []
    |> List.sort compare
  in
  Table.print ~headers:[ "micro-benchmark"; "time" ] rows;
  Printf.printf "\nion compile + run (end-to-end, best of 3): %.2f ms\n"
    (t_end_to_end *. 1000.0)

(* ---- native x86-64 Ion tier vs the LIR executor ---- *)

(* Numeric-loop corpus: the shapes the native backend keeps entirely in
   machine code (float arithmetic, int32 bit mixing, compares, branches).
   Each script warms its [work] function past the Ion threshold; the
   measured call then runs a larger argument against installed code. *)
let native_corpus =
  [
    ( "sum_loop",
      "function work(n) { var s = 0; for (var i = 0; i < n; i = i + 1) { s \
       = s + i; } return s; }\n\
       var w = 0;\n\
       for (var k = 0; k < 8; k = k + 1) { w = work(100); }\n\
       print(w);\n",
      300000.0 );
    ( "fib_iter",
      "function work(n) { var a = 0; var b = 1; for (var i = 0; i < n; i = \
       i + 1) { var t = a + b; a = b; b = t; } return a; }\n\
       var w = 0;\n\
       for (var k = 0; k < 8; k = k + 1) { w = work(90); }\n\
       print(w);\n",
      300000.0 );
    ( "bit_mix",
      "function work(n) { var h = 123456789; for (var i = 0; i < n; i = i \
       + 1) { h = h ^ (h << 13); h = h ^ (h >>> 17); h = h ^ (h << 5); h = \
       h & 2147483647; } return h; }\n\
       var w = 0;\n\
       for (var k = 0; k < 8; k = k + 1) { w = work(50); }\n\
       print(w);\n",
      200000.0 );
    ( "newton",
      "function work(n) { var s = 0; for (var i = 1; i < n; i = i + 1) { \
       var x = i; var g = x; g = (g + x / g) * 0.5; g = (g + x / g) * 0.5; \
       g = (g + x / g) * 0.5; s = s + g; } return s; }\n\
       var w = 0;\n\
       for (var k = 0; k < 8; k = k + 1) { w = work(50); }\n\
       print(w);\n",
      150000.0 );
    ( "poly_eval",
      "function work(n) { var s = 0; for (var i = 0; i < n; i = i + 1) { \
       var x = i * 0.001; s = s + (((2.1 * x + 1.3) * x + 0.7) * x + 0.2); \
       } return s; }\n\
       var w = 0;\n\
       for (var k = 0; k < 8; k = k + 1) { w = work(100); }\n\
       print(w);\n",
      200000.0 );
  ]

let native_bench () =
  section "Native x86-64 Ion tier vs the LIR executor";
  let module Vm = Jitbull_bytecode.Vm in
  let module Op = Jitbull_bytecode.Op in
  let module Value = Jitbull_runtime.Value in
  if not (Jitbull_native.Native.enabled ()) then begin
    Printf.printf
      "native backend unavailable here (non-x86-64 host or JITBULL_NO_NATIVE \
       set); nothing to compare.\n";
    emit "native" (Jsonx.Assoc [ ("available", Jsonx.Bool false) ])
  end
  else begin
    Printf.printf
      "Same engine configuration, same scripts; only the Ion tier's backend \
       differs.\nOutputs are asserted byte-equal and the go/no-go verdict \
       counters identical.\n\n";
    (* run the whole script (warmup + Ion compile), then locate [work] *)
    let prep ~native source =
      let config =
        {
          Engine.default_config with
          Engine.baseline_threshold = 2;
          ion_threshold = 4;
          native;
        }
      in
      let out, engine = Engine.run_source config source in
      let vm = Engine.vm engine in
      let idx = ref (-1) in
      Array.iteri
        (fun i (f : Op.func) -> if String.equal f.Op.name "work" then idx := i)
        vm.Vm.program.Op.funcs;
      if !idx < 0 then failwith "native bench: no function named work";
      (out, engine, vm, !idx)
    in
    let json_rows = ref [] in
    let log_ratios = ref [] in
    let rows =
      List.map
        (fun (name, source, arg) ->
          let out_n, eng_n, vm_n, idx_n = prep ~native:true source in
          let out_e, eng_e, vm_e, idx_e = prep ~native:false source in
          if not (String.equal out_n out_e) then
            failwith (Printf.sprintf "native bench: %s outputs diverge" name);
          let sn = Engine.stats eng_n and se = Engine.stats eng_e in
          if
            (sn.Engine.nr_jit, sn.Engine.nr_disjit, sn.Engine.nr_nojit)
            <> (se.Engine.nr_jit, se.Engine.nr_disjit, se.Engine.nr_nojit)
          then failwith (Printf.sprintf "native bench: %s verdicts diverge" name);
          if sn.Engine.native_installs < 1 then
            failwith (Printf.sprintf "native bench: %s never installed native code" name);
          if Engine.tier_of eng_n idx_n <> Engine.Ion then
            failwith (Printf.sprintf "native bench: %s work not Ion-tiered" name);
          let args = [ Value.Number arg ] in
          let r_n = Vm.call_function vm_n idx_n args in
          let r_e = Vm.call_function vm_e idx_e args in
          if not (String.equal (Value.to_display r_n) (Value.to_display r_e))
          then failwith (Printf.sprintf "native bench: %s timed results diverge" name);
          let t_n = time_best (fun () -> ignore (Vm.call_function vm_n idx_n args)) in
          let t_e = time_best (fun () -> ignore (Vm.call_function vm_e idx_e args)) in
          let speedup = t_e /. Float.max 1e-9 t_n in
          log_ratios := log speedup :: !log_ratios;
          json_rows :=
            Jsonx.Assoc
              [
                ("name", Jsonx.String name);
                ("lir_executor_ms", Jsonx.Float (t_e *. 1000.0));
                ("native_ms", Jsonx.Float (t_n *. 1000.0));
                ("speedup", Jsonx.Float speedup);
              ]
            :: !json_rows;
          [
            name;
            Printf.sprintf "%.2f" (t_e *. 1000.0);
            Printf.sprintf "%.2f" (t_n *. 1000.0);
            Printf.sprintf "%.2fx" speedup;
          ])
        native_corpus
    in
    let n = List.length !log_ratios in
    let geomean =
      exp (List.fold_left ( +. ) 0.0 !log_ratios /. float_of_int (max 1 n))
    in
    Table.print
      ~headers:[ "benchmark"; "LIR executor (ms)"; "native (ms)"; "speedup" ]
      rows;
    Printf.printf "\ngeomean speedup: %.2fx (outputs byte-equal, verdicts identical)\n"
      geomean;
    emit "native"
      (Jsonx.Assoc
         [
           ("available", Jsonx.Bool true);
           ("rows", Jsonx.List (List.rev !json_rows));
           ("geomean_speedup", Jsonx.Float geomean);
           ("outputs_byte_equal", Jsonx.Bool true);
           ("verdicts_identical", Jsonx.Bool true);
         ])
  end

(* ---- sampling profiler: overhead A/B and attribution ---- *)

let profile_bench () =
  section "Sampling profiler: overhead (off vs on) and attribution";
  let module Profile = Jitbull_obs.Profile in
  let module Vm = Jitbull_bytecode.Vm in
  let module Op = Jitbull_bytecode.Op in
  let module Value = Jitbull_runtime.Value in
  if not (Profile.available ()) then begin
    Printf.printf
      "sampler unavailable here (needs Linux/x86-64); nothing to measure.\n";
    emit "profile" (Jsonx.Assoc [ ("available", Jsonx.Bool false) ])
  end
  else begin
    Printf.printf
      "The same Ion-tiered numeric workload, measured with sampling off and\n\
       with the 997 Hz SIGPROF sampler armed: the A/B is the profiler's\n\
       whole-run cost, and the attribution split is where its ticks went.\n\n";
    let name, source, arg =
      match native_corpus with e :: _ -> e | [] -> assert false
    in
    let config =
      {
        Engine.default_config with
        Engine.baseline_threshold = 2;
        ion_threshold = 4;
      }
    in
    let _, engine = Engine.run_source config source in
    let vm = Engine.vm engine in
    let idx = ref (-1) in
    Array.iteri
      (fun i (f : Op.func) -> if String.equal f.Op.name "work" then idx := i)
      vm.Vm.program.Op.funcs;
    if !idx < 0 then failwith "profile bench: no function named work";
    let args = [ Value.Number arg ] in
    let call () = ignore (Vm.call_function vm !idx args) in
    (* one untimed run: steady state before either arm *)
    call ();
    (* scale each measured arm to ~0.5 s of CPU so the ON arm collects
       hundreds of ticks at 997 Hz (one call is only ~a millisecond) *)
    let t_once = time_best call in
    let reps = max 20 (int_of_float (0.5 /. Float.max 1e-6 t_once)) in
    let run_arm () =
      let (), dt = time (fun () -> for _ = 1 to reps do call () done) in
      dt /. float_of_int reps
    in
    let t_off = run_arm () in
    Profile.reset ();
    if not (Profile.start ()) then
      failwith "profile bench: sampler failed to arm";
    let t_on = run_arm () in
    Profile.stop ();
    let samples = Profile.total_samples () in
    let attributed = Profile.attributed_fraction () in
    let overhead = (t_on -. t_off) /. Float.max 1e-9 t_off in
    let frames = Profile.report () in
    Table.print ~headers:[ "frame"; "ticks" ]
      (List.map (fun (n, c) -> [ n; string_of_int c ]) frames);
    Printf.printf
      "\n%s: off %.2f ms, on %.2f ms — overhead %+.1f%%\n\
       %d samples, %.1f%% attributed to named frames\n"
      name (t_off *. 1000.0) (t_on *. 1000.0) (100.0 *. overhead) samples
      (100.0 *. attributed);
    emit "profile"
      (Jsonx.Assoc
         [
           ("available", Jsonx.Bool true);
           ("workload", Jsonx.String name);
           ("off_ms", Jsonx.Float (t_off *. 1000.0));
           ("on_ms", Jsonx.Float (t_on *. 1000.0));
           ("overhead_fraction", Jsonx.Float overhead);
           ("samples", Jsonx.Int samples);
           ("attributed_fraction", Jsonx.Float attributed);
           ( "frames",
             Jsonx.Assoc (List.map (fun (n, c) -> (n, Jsonx.Int c)) frames) );
         ])
  end

(* ---- driver ---- *)

let sections_in_order =
  [
    ("table1", table1);
    ("table2", table2);
    ("window", window);
    ("security", security);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fuzz", fuzz_pipeline);
    ("telemetry", telemetry);
    ("ablation", ablation);
    ("overhead", overhead);
    ("concurrency", concurrency);
    ("service", service_bench);
    ("native", native_bench);
    ("profile", profile_bench);
    ("bechamel", bechamel);
  ]

let write_json path command timings =
  let doc =
    Jsonx.Assoc
      [
        ("schema", Jsonx.String "jitbull-bench/1");
        ("command", Jsonx.String command);
        ("unix_time", Jsonx.Float (Unix.time ()));
        ("host", Env_report.to_json ());
        ( "section_seconds",
          Jsonx.Assoc (List.map (fun (name, dt) -> (name, Jsonx.Float dt)) timings) );
        ("sections", Jsonx.Assoc !json_sections);
      ]
  in
  let oc = open_out path in
  output_string oc (Jsonx.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote machine-readable results to %s\n" path

let () =
  let rec split cmds json = function
    | "--json" :: path :: rest -> split cmds (Some path) rest
    | "--json" :: [] ->
      Printf.eprintf "--json requires an output path\n";
      exit 1
    | "--audit" :: rest ->
      audit_mode := true;
      split cmds json rest
    | a :: rest -> split (a :: cmds) json rest
    | [] -> (List.rev cmds, json)
  in
  let cmds, json_path = split [] None (List.tl (Array.to_list Sys.argv)) in
  let command = match cmds with [] -> "all" | [ c ] -> c | _ ->
    Printf.eprintf "usage: bench/main.exe [SECTION] [--json OUT] [--audit]\n";
    exit 1
  in
  let chosen =
    if String.equal command "all" then sections_in_order
    else
      match List.assoc_opt command sections_in_order with
      | Some f -> [ (command, f) ]
      | None ->
        Printf.eprintf "unknown command %s (known: %s)\n" command
          (String.concat ", " ("all" :: List.map fst sections_in_order));
        exit 1
  in
  let timings =
    List.map
      (fun (name, f) ->
        let (), dt = time f in
        (name, dt))
      chosen
  in
  match json_path with
  | Some path -> write_json path command timings
  | None -> ()
