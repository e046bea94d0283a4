(* Tests for the fuzzing subsystem and the paper's §IV-A auto-harvest
   pipeline. *)

open Helpers
module F = Jitbull_fuzz
module VC = Jitbull_passes.Vuln_config
module Engine = Jitbull_jit.Engine
module Db = Jitbull_core.Db
module Jitbull = Jitbull_core.Jitbull

let fast cfg = { cfg with Engine.baseline_threshold = 2; Engine.ion_threshold = 4 }

let seeds n = List.init n (fun i -> i)

let test_generator_determinism () =
  check_string "benign deterministic" (F.Generator.benign ~seed:5) (F.Generator.benign ~seed:5);
  check_string "aggressive deterministic" (F.Generator.aggressive ~seed:5)
    (F.Generator.aggressive ~seed:5);
  check_bool "seeds differ" true
    (not (String.equal (F.Generator.benign ~seed:1) (F.Generator.benign ~seed:2)))

let test_generated_programs_parse () =
  List.iter
    (fun seed ->
      ignore (Jitbull_frontend.Parser.parse (F.Generator.benign ~seed));
      ignore (Jitbull_frontend.Parser.parse (F.Generator.aggressive ~seed)))
    (seeds 30)

let test_benign_campaign_clean () =
  (* benign programs agree on every tier even on a fully vulnerable engine *)
  let config = fast { Engine.default_config with Engine.vulns = VC.make VC.all } in
  let r = F.Harness.campaign ~profile:`Benign ~seeds:(seeds 15) ~config () in
  check_int "all agree" r.F.Harness.total r.F.Harness.agreements;
  check_int "no signals" 0 (List.length r.F.Harness.signals)

let test_aggressive_on_patched_engine_clean () =
  let config = fast Engine.default_config in
  let r = F.Harness.campaign ~profile:`Aggressive ~seeds:(seeds 15) ~config () in
  check_int "patched engine: no signals" 0 (List.length r.F.Harness.signals)

let test_aggressive_finds_exploits () =
  let vulns = VC.make [ VC.CVE_2019_17026; VC.CVE_2019_9813 ] in
  let config = fast { Engine.default_config with Engine.vulns } in
  let r = F.Harness.campaign ~profile:`Aggressive ~seeds:(seeds 15) ~config () in
  check_bool "signals found" true (List.length r.F.Harness.signals > 0);
  (* every signal is a memory-safety observable, not a mismatch *)
  List.iter
    (fun (f : F.Harness.finding) ->
      match f.F.Harness.verdict with
      | F.Oracle.Crash _ | F.Oracle.Shellcode _ | F.Oracle.Pwned _ | F.Oracle.Mismatch _ -> ()
      | v -> Alcotest.fail ("unexpected verdict " ^ F.Oracle.verdict_summary v))
    r.F.Harness.signals

let test_auto_harvest_neutralizes () =
  let vulns = VC.make [ VC.CVE_2019_17026; VC.CVE_2019_9813 ] in
  let vulnerable = fast { Engine.default_config with Engine.vulns } in
  let r = F.Harness.campaign ~profile:`Aggressive ~seeds:(seeds 12) ~config:vulnerable () in
  check_bool "found something to harvest" true (r.F.Harness.signals <> []);
  let db = Db.create () in
  let n = F.Harness.auto_harvest ~vulns ~db r.F.Harness.signals in
  check_bool "DNA entries installed" true (n > 0);
  let protected_cfg = fast (Jitbull.config ~vulns db) in
  List.iter
    (fun (f : F.Harness.finding) ->
      check_bool
        (Printf.sprintf "seed %d neutralized" f.F.Harness.seed)
        false
        (F.Oracle.is_exploit_signal (F.Oracle.run ~config:protected_cfg f.F.Harness.source)))
    r.F.Harness.signals

let test_generalizes_to_fresh_inputs () =
  (* DNA harvested from one campaign blocks exploit inputs from different
     seeds — the similarity matching at work, not input memorization *)
  let vulns = VC.make [ VC.CVE_2019_17026; VC.CVE_2019_9813 ] in
  let vulnerable = fast { Engine.default_config with Engine.vulns } in
  let train = F.Harness.campaign ~profile:`Aggressive ~seeds:(seeds 12) ~config:vulnerable () in
  let db = Db.create () in
  ignore (F.Harness.auto_harvest ~vulns ~db train.F.Harness.signals);
  let protected_cfg = fast (Jitbull.config ~vulns db) in
  let fresh = List.init 10 (fun i -> 500 + i) in
  let unprotected = F.Harness.campaign ~profile:`Aggressive ~seeds:fresh ~config:vulnerable () in
  let guarded = F.Harness.campaign ~profile:`Aggressive ~seeds:fresh ~config:protected_cfg () in
  check_bool "fresh inputs exploit unprotected" true (unprotected.F.Harness.signals <> []);
  check_int "fresh inputs blocked under fuzz-fed JITBULL" 0
    (List.length guarded.F.Harness.signals)

(* {2 Coverage-guided loop} *)

let all_vulnerable = fast { Engine.default_config with Engine.vulns = VC.make VC.all }

let test_instrumented_run_artifacts () =
  let src =
    "function hot(a) { var s = 0; for (var i = 0; i < a.length; i++) { s += a[i]; } \
     return s; } var arr = [1,2,3,4]; var t = 0; for (var k = 0; k < 40; k++) { t = \
     hot(arr); } print(t);"
  in
  let r = F.Oracle.run_instrumented src in
  (match r.F.Oracle.i_verdict with
  | F.Oracle.Agree _ -> ()
  | v -> Alcotest.fail (F.Oracle.verdict_summary v));
  check_bool "bytecode captured" true (r.F.Oracle.i_bytecode <> None);
  check_bool "a traced Ion compile produced DNA" true (r.F.Oracle.i_dnas <> []);
  check_bool "ion event flagged" true (List.mem "ion" r.F.Oracle.i_events);
  check_bool "policy:allow flagged (no analyzer)" true
    (List.mem "policy:allow" r.F.Oracle.i_events)

let test_coverage_dedup_and_gain () =
  let src = F.Generator.benign ~seed:3 in
  let r = F.Oracle.run_instrumented src in
  let feats = F.Coverage.features_of_run r in
  check_bool "run yields features" true (feats <> []);
  check_string "features deterministic" ""
    (if F.Coverage.features_of_run (F.Oracle.run_instrumented src) = feats then ""
     else "differ");
  let map = F.Coverage.create () in
  let gain1 = F.Coverage.add_features map feats in
  check_bool "first add gains" true (gain1 > 0);
  check_int "replay gains nothing" 0 (F.Coverage.add_features map feats);
  check_int "count matches gain" gain1 (F.Coverage.count map)

let test_corpus_persistence_roundtrip () =
  let dir = Filename.temp_file "jitbull_corpus" "" in
  Sys.remove dir;
  let c = F.Corpus.create ~dir () in
  check_int "starts empty" 0 (F.Corpus.length c);
  ignore (F.Corpus.add c ~il:"il payload" ~gain:5 "print(1);");
  ignore (F.Corpus.add c ~gain:1 "print(2);");
  let c' = F.Corpus.create ~dir () in
  check_int "reloaded both entries" 2 (F.Corpus.length c');
  let sources = List.map (fun (e : F.Corpus.entry) -> e.F.Corpus.source) (F.Corpus.entries c') in
  check_bool "sources survive the round-trip" true
    (List.mem "print(1);" sources && List.mem "print(2);" sources);
  let rng = Jitbull_util.Prng.create 7 in
  match F.Corpus.pick rng c with
  | None -> Alcotest.fail "pick returned nothing though one entry carries IL"
  | Some picked ->
    check_string "pick draws only IL-carrying entries" "print(1);" picked.F.Corpus.source

let test_metamorphic_clean_on_benign () =
  (* alt_configs exercise DB-growth monotonicity: an engine whose DB
     gained unrelated entries still agrees on benign code *)
  let db = Db.create () in
  let vulns = VC.make VC.all in
  ignore
    (F.Harness.auto_harvest ~vulns ~db
       (List.filter_map
          (fun src ->
            let v = F.Oracle.run ~config:all_vulnerable src in
            if F.Oracle.is_exploit_signal v then
              Some { F.Harness.seed = 0; source = src; verdict = v }
            else None)
          (F.Harness.vdc_seed_sources ())));
  check_bool "grown DB nonempty" true (Db.size db > 0);
  let alt_configs = [ ("db-growth", fast (Jitbull.config ~vulns db)) ] in
  List.iter
    (fun seed ->
      let src = F.Generator.benign ~seed in
      match F.Oracle.check_metamorphic ~config:all_vulnerable ~jobs:2 ~alt_configs src with
      | [] -> ()
      | v :: _ ->
        Alcotest.fail
          (Printf.sprintf "seed %d violates %s: %s" seed v.F.Oracle.mv_invariant
             v.F.Oracle.mv_detail))
    (seeds 5)

let test_metamorphic_detects_vulnerable_engine () =
  (* on a fully vulnerable engine the VDC demonstrators must trip at least
     the interp==jit invariant *)
  let any =
    List.exists
      (fun src ->
        F.Oracle.check_metamorphic ~config:all_vulnerable ~subsets:[] ~jobs:0 src <> [])
      (F.Harness.vdc_seed_sources ())
  in
  check_bool "violations observed" true any

let test_guided_finds_every_cve_faster_than_blind () =
  (* acceptance: from an empty corpus, the coverage-guided aggressive
     campaign attributes a signal to every modeled CVE within a bounded
     exec budget; the blind sweep at that same exec count covers strictly
     fewer CVEs *)
  let budget = 64 in
  let g = F.Harness.guided_campaign ~config:all_vulnerable ~track_cves:true ~max_execs:budget () in
  check_int "guided attributes every modeled CVE" (List.length VC.all)
    (List.length g.F.Harness.g_cve_execs);
  let worst =
    List.fold_left (fun acc (_, e) -> max acc e) 0 g.F.Harness.g_cve_execs
  in
  check_bool "within the exec budget" true (worst <= budget);
  let blind = F.Harness.blind_sweep ~config:all_vulnerable ~track_cves:true ~max_execs:worst () in
  check_bool
    (Printf.sprintf "blind sweep covers fewer CVEs in %d execs (got %d)" worst
       (List.length blind.F.Harness.g_cve_execs))
    true
    (List.length blind.F.Harness.g_cve_execs < List.length VC.all)

let test_guided_coverage_dominates_blind () =
  let execs = 40 in
  let g = F.Harness.guided_campaign ~config:all_vulnerable ~max_execs:execs () in
  let b = F.Harness.blind_sweep ~config:all_vulnerable ~max_execs:execs () in
  check_bool
    (Printf.sprintf "guided coverage %d > blind coverage %d" g.F.Harness.g_coverage
       b.F.Harness.g_coverage)
    true
    (g.F.Harness.g_coverage > b.F.Harness.g_coverage);
  check_bool "curve is monotone" true
    (let rec mono = function
       | a :: (b :: _ as rest) ->
         a.F.Harness.cp_execs < b.F.Harness.cp_execs
         && a.F.Harness.cp_coverage < b.F.Harness.cp_coverage
         && mono rest
       | _ -> true
     in
     mono g.F.Harness.g_curve)

let test_shrinker_halves_a_real_signal () =
  (* acceptance: the delta-debugging shrinker reduces at least one real
     signal to ≤ 50 % of its original size while preserving the verdict
     kind *)
  let g = F.Harness.guided_campaign ~config:all_vulnerable ~max_execs:40 () in
  check_bool "campaign produced signals" true (g.F.Harness.g_signals <> []);
  let by_size =
    List.sort
      (fun (a : F.Harness.finding) b ->
        compare (String.length b.F.Harness.source) (String.length a.F.Harness.source))
      g.F.Harness.g_signals
  in
  let halved =
    List.exists
      (fun (f : F.Harness.finding) ->
        let small =
          F.Shrink.shrink_signal ~config:all_vulnerable ~verdict:f.F.Harness.verdict
            f.F.Harness.source
        in
        2 * String.length small <= String.length f.F.Harness.source
        && F.Oracle.same_kind
             (F.Oracle.run ~config:all_vulnerable small)
             f.F.Harness.verdict)
      (List.filteri (fun i _ -> i < 5) by_size)
  in
  check_bool "some signal shrank to ≤ 50% with the same verdict" true halved

let test_shrinker_deterministic_and_counts_errors () =
  let g = F.Harness.guided_campaign ~config:all_vulnerable ~max_execs:25 () in
  check_bool "campaign produced signals" true (g.F.Harness.g_signals <> []);
  let f = List.hd g.F.Harness.g_signals in
  let shrink_once () =
    let errors = ref 0 in
    let small =
      F.Shrink.shrink_signal ~config:all_vulnerable ~max_checks:60 ~seed:42 ~errors
        ~verdict:f.F.Harness.verdict f.F.Harness.source
    in
    (small, !errors)
  in
  let s1, e1 = shrink_once () in
  let s2, e2 = shrink_once () in
  check_string "same seed, same minimized source" s1 s2;
  check_int "same seed, same error count" e1 e2;
  check_int "oracle predicate never crashed" 0 e1;
  (* a predicate that raises is counted, not swallowed *)
  let errors = ref 0 in
  let calls = ref 0 in
  let keep s =
    incr calls;
    if !calls = 1 then true (* the initial reprint must be kept *)
    else if String.length s mod 2 = 0 then failwith "predicate crash"
    else false
  in
  ignore (F.Shrink.shrink ~max_checks:30 ~errors ~keep "print(1); print(2); print(3);");
  check_bool "predicate crashes are counted" true (!errors > 0)

let test_corpus_il_sidecar_roundtrip () =
  let dir = Filename.temp_file "jitbull_corpus_il" "" in
  Sys.remove dir;
  let c = F.Corpus.create ~dir () in
  ignore (F.Corpus.add c ~il:"fake il payload" ~gain:3 "print(1);");
  ignore (F.Corpus.add c ~gain:1 "print(2);");
  let c' = F.Corpus.create ~dir () in
  let by_source src =
    List.find (fun (e : F.Corpus.entry) -> e.F.Corpus.source = src) (F.Corpus.entries c')
  in
  check_bool "il sidecar survives the round-trip" true
    ((by_source "print(1);").F.Corpus.il = Some "fake il payload");
  check_bool "entries without il stay bare" true ((by_source "print(2);").F.Corpus.il = None)

let test_guided_yield_accounting () =
  (* one mutant family: once the seed schedule (the default sources then
     the IL seeds) is spent, every execution is a typed-IL mutant *)
  let execs = 250 in
  let g = F.Harness.guided_campaign ~config:all_vulnerable ~rng_seed:3 ~max_execs:execs () in
  let y = g.F.Harness.g_yield in
  let schedule =
    List.length (F.Harness.default_seed_sources ()) + List.length (F.Il.seeds ())
  in
  check_int "every post-seed exec is an IL mutant" (execs - schedule) y.F.Harness.y_mutants;
  check_bool "valid bounded by mutants" true (y.F.Harness.y_valid <= y.F.Harness.y_mutants);
  check_bool "typed-IL yield ≥ 95%" true (F.Harness.yield_ratio y >= 0.95);
  (* the blind sweep mutates nothing; an empty yield reads as 1 *)
  let b = F.Harness.blind_sweep ~config:all_vulnerable ~max_execs:20 () in
  check_int "blind sweep has no mutants" 0 b.F.Harness.g_yield.F.Harness.y_mutants;
  check_bool "empty yield ratio is 1" true
    (F.Harness.yield_ratio b.F.Harness.g_yield = 1.0)

let test_benign_guided_clean_on_patched () =
  (* the benign guided smoke of bin/fuzz.exe ([--guided --count 450]):
     on the patched engine every signal is a false positive. Mutants that
     print inside a hot function ahead of a bailout used to "mismatch"
     because deopt replays the function from entry; typed-IL mutants keep
     prints in main, so none may appear *)
  let seed_sources = List.init 8 (fun i -> F.Generator.benign ~seed:i) in
  let g =
    F.Harness.guided_campaign ~config:(fast Engine.default_config) ~rng_seed:0
      ~seed_sources ~max_execs:450 ()
  in
  check_int "all execs ran" 450 g.F.Harness.g_execs;
  match g.F.Harness.g_signals with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "%d signal(s) on the patched engine, first at exec %d: %s"
      (List.length g.F.Harness.g_signals) f.F.Harness.seed
      (F.Oracle.verdict_summary f.F.Harness.verdict)

let test_oracle_classifications () =
  (match F.Oracle.run "print(1 + 1);" with
  | F.Oracle.Agree out -> check_string "agree output" "2\n" out
  | v -> Alcotest.fail (F.Oracle.verdict_summary v));
  (match F.Oracle.run "print(undefinedName);" with
  | F.Oracle.Runtime_error _ -> ()
  | v -> Alcotest.fail (F.Oracle.verdict_summary v));
  check_bool "agree is not a signal" false (F.Oracle.is_exploit_signal (F.Oracle.Agree ""));
  check_bool "crash is a signal" true (F.Oracle.is_exploit_signal (F.Oracle.Crash ""))

let suite =
  ( "fuzz",
    [
      Alcotest.test_case "generator determinism" `Quick test_generator_determinism;
      Alcotest.test_case "generated programs parse" `Quick test_generated_programs_parse;
      Alcotest.test_case "benign campaign clean" `Slow test_benign_campaign_clean;
      Alcotest.test_case "aggressive clean on patched" `Slow test_aggressive_on_patched_engine_clean;
      Alcotest.test_case "aggressive finds exploits" `Slow test_aggressive_finds_exploits;
      Alcotest.test_case "auto-harvest neutralizes" `Slow test_auto_harvest_neutralizes;
      Alcotest.test_case "generalizes to fresh inputs" `Slow test_generalizes_to_fresh_inputs;
      Alcotest.test_case "oracle classifications" `Quick test_oracle_classifications;
      Alcotest.test_case "instrumented run artifacts" `Quick test_instrumented_run_artifacts;
      Alcotest.test_case "coverage dedup and gain" `Quick test_coverage_dedup_and_gain;
      Alcotest.test_case "corpus persistence roundtrip" `Quick test_corpus_persistence_roundtrip;
      Alcotest.test_case "metamorphic clean on benign" `Slow test_metamorphic_clean_on_benign;
      Alcotest.test_case "metamorphic detects vulnerable engine" `Slow
        test_metamorphic_detects_vulnerable_engine;
      Alcotest.test_case "guided finds every CVE, beats blind" `Slow
        test_guided_finds_every_cve_faster_than_blind;
      Alcotest.test_case "guided coverage dominates blind" `Slow
        test_guided_coverage_dominates_blind;
      Alcotest.test_case "shrinker halves a real signal" `Slow
        test_shrinker_halves_a_real_signal;
      Alcotest.test_case "shrinker deterministic, errors counted" `Slow
        test_shrinker_deterministic_and_counts_errors;
      Alcotest.test_case "corpus .il sidecar roundtrip" `Quick
        test_corpus_il_sidecar_roundtrip;
      Alcotest.test_case "guided yield accounting" `Slow test_guided_yield_accounting;
      Alcotest.test_case "benign guided campaign clean on patched" `Slow
        test_benign_guided_clean_on_patched;
    ] )
