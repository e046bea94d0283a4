(* The fuzzer-to-database pipeline (paper §IV-A): exploit-shaped
   campaigns feed auto-harvested DNA, coverage-guided vs blind
   generation, typed-IL mutation yield and the distributed campaign's
   worker scaling. *)

open Harness

let run () =
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
