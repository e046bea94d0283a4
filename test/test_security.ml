(* The paper's security evaluation as a test suite (§VI-B):
   for every modeled CVE —
   - the exploit does nothing on a patched engine;
   - it fires on the unpatched (vulnerable) engine;
   - with the VDC's DNA in the database, JITBULL neutralizes the original
     and all four generated variants (the 100 % detection result);
   - the two independent implementations of CVE-2019-17026 cross-detect. *)

open Helpers
module V = Jitbull_vdc.Demonstrators
module Variants = Jitbull_vdc.Variants
module VC = Jitbull_passes.Vuln_config
module Engine = Jitbull_jit.Engine
module Db = Jitbull_core.Db
module Jitbull = Jitbull_core.Jitbull

let patched_config = { Engine.default_config with Engine.vulns = VC.none }

let exploited = function
  | V.Exploited _ -> true
  | V.Neutralized -> false

let test_patched_engine_is_safe (d : V.t) () =
  check_bool (d.V.name ^ " on patched engine") false
    (exploited (V.run_exploit patched_config d.V.source d.V.expected))

let test_vulnerable_engine_exploited (d : V.t) () =
  let config = { Engine.default_config with Engine.vulns = VC.make [ d.V.cve ] } in
  check_bool (d.V.name ^ " on vulnerable engine") true
    (exploited (V.run_exploit config d.V.source d.V.expected))

let protected_config (d : V.t) =
  let vulns = VC.make [ d.V.cve ] in
  let db = Db.create () in
  let n = Db.harvest db ~cve:d.V.name ~vulns d.V.source in
  check_bool (d.V.name ^ " harvest yields entries") true (n > 0);
  Jitbull.config ~vulns db

let test_jitbull_neutralizes_original (d : V.t) () =
  let config = protected_config d in
  check_bool (d.V.name ^ " original neutralized") false
    (exploited (V.run_exploit config d.V.source d.V.expected))

let test_variants_matrix (d : V.t) () =
  let vulns = VC.make [ d.V.cve ] in
  let vulnerable = { Engine.default_config with Engine.vulns } in
  let config = protected_config d in
  List.iter
    (fun kind ->
      let variant = Variants.apply kind d.V.source in
      check_bool
        (Printf.sprintf "%s %s variant still exploitable" d.V.name (Variants.kind_name kind))
        true
        (exploited (V.run_exploit vulnerable variant d.V.expected));
      check_bool
        (Printf.sprintf "%s %s variant neutralized" d.V.name (Variants.kind_name kind))
        false
        (exploited (V.run_exploit config variant d.V.expected)))
    Variants.all_kinds

let test_17026_cross_implementation () =
  let d = V.find VC.CVE_2019_17026 in
  let vulns = VC.make [ d.V.cve ] in
  (* the second implementation is exploitable on its own *)
  let vulnerable = { Engine.default_config with Engine.vulns } in
  check_bool "impl 2 exploitable" true
    (exploited (V.run_exploit vulnerable V.second_implementation_17026 V.Shellcode));
  (* installing impl 1's DNA neutralizes impl 2 — the paper's §VI-B-a *)
  let db = Db.create () in
  ignore (Db.harvest db ~cve:d.V.name ~vulns d.V.source);
  let config = Jitbull.config ~vulns db in
  check_bool "impl 2 neutralized by impl 1's DNA" false
    (exploited (V.run_exploit config V.second_implementation_17026 V.Shellcode))

let test_patch_lifecycle_restores_performance_path () =
  (* after removing the DNA (patch applied), the analyzer disappears and
     the exploit on a *patched* engine still does nothing *)
  let d = V.find VC.CVE_2019_9795 in
  let db = Db.create () in
  ignore (Db.harvest db ~cve:d.V.name ~vulns:(VC.make [ d.V.cve ]) d.V.source);
  Db.remove_cve db d.V.name;
  let config = Jitbull.config ~vulns:VC.none db in
  check_bool "analyzer gone after patch" true (config.Engine.analyzer = None);
  check_bool "patched engine safe" false (exploited (V.run_exploit config d.V.source d.V.expected))

let test_multi_vuln_db () =
  (* a crowded database (the paper's #8 scalability setting): all eight
     VDC DNAs installed, the engine carrying the one live bug being
     exploited — detection must not be diluted by unrelated entries.

     (Activating all eight pass bugs *simultaneously* is a composition the
     paper never faces — one real engine version has one bug — and it
     genuinely defeats the single-shot go/no-go policy: a function
     recompiled with its matched passes disabled can still be broken by a
     different CVE's pass whose delta did not match. EXPERIMENTS.md
     discusses this re-analysis gap.) *)
  let db = Db.create () in
  ignore (V.harvest db VC.all);
  check_int "eight CVEs installed" 8 (List.length (Db.cves db));
  List.iter
    (fun (d : V.t) ->
      let config = Jitbull.config ~vulns:(VC.make [ d.V.cve ]) db in
      check_bool (d.V.name ^ " neutralized under #8 DB") false
        (exploited (V.run_exploit config d.V.source d.V.expected)))
    V.all

let test_catalog_aggregates () =
  let module C = Jitbull_vdc.Catalog in
  (* paper §III-A: CVSS average 8.8; §III-C: mean window ≈ 9 days,
     CVE-2019-11707 = 23 days, CVE-2020-26952 = 5 days, max 2 overlapping
     in 2019 *)
  let avg =
    List.fold_left (fun acc (e : C.entry) -> acc +. e.C.cvss) 0.0 C.all
    /. float_of_int (List.length C.all)
  in
  check_bool "mean CVSS ~8.8" true (Float.abs (avg -. 8.8) < 0.31);
  (match C.find "CVE-2019-11707" with
  | Some e -> check_bool "11707 window 23d" true (C.window_days e = Some 23)
  | None -> Alcotest.fail "11707 missing");
  (match C.find "CVE-2020-26952" with
  | Some e -> check_bool "26952 window 5d" true (C.window_days e = Some 5)
  | None -> Alcotest.fail "26952 missing");
  check_bool "mean window ~9 days" true (Float.abs (C.mean_window_days () -. 9.0) < 1.5);
  check_int "max overlap 2019" 2 (C.max_overlapping ~year:2019);
  check_int "modeled CVEs" 8
    (List.length (List.filter (fun (e : C.entry) -> e.C.modeled <> None) C.all))

(* The effect each exploit reports on the engine carrying only its CVE's
   bug, original and four variants, as recorded on the flat heap. The
   sentinel sits in the top two cells of the 2^18-cell heap, and a forged
   write past the heap's logical size crashes: a heap that changes how it
   stores its cells must leave every string alone. *)
let pinned_effects =
  let all5 effect =
    List.map (fun k -> (k, effect)) [ "original"; "rename"; "minify"; "mix"; "split" ]
  in
  let shellcode = "shellcode: JIT code pointer at heap cell 262142 was overwritten" in
  [
    ("CVE-2019-17026", all5 shellcode);
    ("CVE-2019-9810", all5 shellcode);
    ("CVE-2019-9791", all5 "PWNED marker printed");
    ("CVE-2019-11707", all5 shellcode);
    ("CVE-2019-9792", all5 shellcode);
    ("CVE-2019-9795", all5 shellcode);
    ( "CVE-2019-9813",
      [
        ("original", "crash: OOB write at heap address 4000002 (heap size 262144)");
        ("rename", "crash: OOB write at heap address 4000002 (heap size 262144)");
        ("minify", "crash: OOB write at heap address 4000002 (heap size 262144)");
        ("mix", "crash: OOB write at heap address 4000020 (heap size 262144)");
        ("split", "crash: OOB write at heap address 4000002 (heap size 262144)");
      ] );
    ("CVE-2020-26952", all5 "PWNED marker printed");
  ]

let test_pinned_effects () =
  List.iter
    (fun (d : V.t) ->
      let config = { Engine.default_config with Engine.vulns = VC.make [ d.V.cve ] } in
      let sources =
        ("original", d.V.source)
        :: List.map (fun k -> (Variants.kind_name k, Variants.apply k d.V.source)) Variants.all_kinds
      in
      List.iter2
        (fun (kind, src) (kind', expected) ->
          check_string (d.V.name ^ " " ^ kind ^ " kind") kind' kind;
          let effect =
            match V.run_exploit config src d.V.expected with
            | V.Exploited s -> s
            | V.Neutralized -> "neutralized"
          in
          check_string (d.V.name ^ " " ^ kind ^ " effect") expected effect)
        sources (List.assoc d.V.name pinned_effects))
    V.all

let per_cve_cases =
  List.concat_map
    (fun (d : V.t) ->
      [
        Alcotest.test_case (d.V.name ^ " patched safe") `Quick (test_patched_engine_is_safe d);
        Alcotest.test_case (d.V.name ^ " vulnerable exploited") `Quick
          (test_vulnerable_engine_exploited d);
        Alcotest.test_case (d.V.name ^ " jitbull neutralizes") `Quick
          (test_jitbull_neutralizes_original d);
        Alcotest.test_case (d.V.name ^ " 4 variants") `Slow (test_variants_matrix d);
      ])
    V.all

let suite =
  ( "security",
    per_cve_cases
    @ [
        Alcotest.test_case "17026 cross-implementation" `Quick test_17026_cross_implementation;
        Alcotest.test_case "patch lifecycle" `Quick test_patch_lifecycle_restores_performance_path;
        Alcotest.test_case "multi-vuln DB (#8)" `Slow test_multi_vuln_db;
        Alcotest.test_case "catalog aggregates" `Quick test_catalog_aggregates;
        Alcotest.test_case "exploit effects pinned" `Slow test_pinned_effects;
      ] )
