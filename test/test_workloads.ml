(* The Octane-analogue corpus: each workload is deterministic, runs on all
   tiers with identical output, and contains enough hot functions to
   exercise the JIT. *)

open Helpers
module W = Jitbull_workloads.Workloads
module Engine = Jitbull_jit.Engine

let test_workload_all_tiers (w : W.t) () =
  let reference = interp_output w.W.source in
  check_bool "produces output" true (String.length reference > 0);
  check_string (w.W.name ^ " vm") reference (vm_output w.W.source);
  let out, t = Engine.run_source Engine.default_config w.W.source in
  check_string (w.W.name ^ " jit") reference out;
  let s = Engine.stats t in
  check_bool (w.W.name ^ " reached Ion") true (s.Engine.ion_compiles > 0)

(* The workloads on a fully *vulnerable* engine, with JITBULL armed from
   the VDC database: every workload must still match the reference
   interpreter. This is not vacuous — Richards trips the injected
   CVE-2019-9792 bug unprotected (a modeled miscompilation firing on real
   benign code, see [test_richards_trips_a_modeled_bug]); the go/no-go
   policy restores it without breaking any other workload. *)
let all_vulns = Jitbull_passes.Vuln_config.make Jitbull_passes.Vuln_config.all

let vulnerable_config = { Engine.default_config with Engine.vulns = all_vulns }

let armed_config =
  lazy
    (let module V = Jitbull_vdc.Demonstrators in
    let module Db = Jitbull_core.Db in
    let db = Db.create () in
    ignore (V.harvest db Jitbull_passes.Vuln_config.all);
    { (Jitbull_core.Jitbull.config ~vulns:all_vulns db) with Engine.policy_cache = None })

let test_workload_armed_vulnerable_engine (w : W.t) () =
  let reference = interp_output w.W.source in
  let out, _ = Engine.run_source (Lazy.force armed_config) w.W.source in
  check_string (w.W.name ^ " identical under armed JITBULL on vulnerable engine") reference
    out

let test_richards_trips_a_modeled_bug () =
  let w = Option.get (W.find "richards") in
  let reference = interp_output w.W.source in
  let unprotected, _ = Engine.run_source vulnerable_config w.W.source in
  check_bool "Richards miscompiled by the unprotected vulnerable engine" false
    (String.equal reference unprotected);
  let guarded, _ = Engine.run_source (Lazy.force armed_config) w.W.source in
  check_string "JITBULL restores Richards" reference guarded

let test_workload_determinism (w : W.t) () =
  check_string (w.W.name ^ " deterministic") (jit_output w.W.source) (jit_output w.W.source)

let test_registry () =
  check_int "fourteen Octane analogues" 14 (List.length W.all);
  check_int "sixteen with microbenches" 16 (List.length W.everything);
  check_bool "find case-insensitive" true (W.find "richards" <> None);
  check_bool "find missing" true (W.find "nope" = None)

let test_names_match_paper () =
  let names = List.map (fun (w : W.t) -> w.W.name) W.everything in
  List.iter
    (fun expected -> check_bool (expected ^ " present") true (List.mem expected names))
    [ "Richards"; "DeltaBlue"; "Crypto"; "RayTrace"; "RegExp"; "Splay"; "NavierStokes";
      "PdfJS"; "Box2D"; "TypeScript"; "EarleyBoyer"; "Gameboy"; "CodeLoad"; "Mandreel";
      "Microbench1"; "Microbench2" ]

let suite =
  ( "workloads",
    List.concat_map
      (fun (w : W.t) ->
        [
          Alcotest.test_case (w.W.name ^ " tiers agree") `Slow (test_workload_all_tiers w);
          Alcotest.test_case
            (w.W.name ^ " armed JITBULL on vulnerable engine")
            `Slow
            (test_workload_armed_vulnerable_engine w);
        ])
      W.everything
    @ [
        Alcotest.test_case "Microbench1 deterministic" `Quick
          (test_workload_determinism W.microbench1);
        Alcotest.test_case "Microbench1 armed on vulnerable engine" `Quick
          (test_workload_armed_vulnerable_engine W.microbench1);
        Alcotest.test_case "Richards trips a modeled bug unprotected" `Slow
          test_richards_trips_a_modeled_bug;
        Alcotest.test_case "registry" `Quick test_registry;
        Alcotest.test_case "paper names" `Quick test_names_match_paper;
      ] )
