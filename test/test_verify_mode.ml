(* Paranoid-mode integration tests: run real workloads with the MIR
   verifier enabled after every optimization pass (including the inliner's
   graph surgery and the recompile-with-disabled-passes path), asserting
   that every intermediate graph is structurally valid SSA. *)

open Helpers
module W = Jitbull_workloads.Workloads
module Engine = Jitbull_jit.Engine
module VC = Jitbull_passes.Vuln_config
module Db = Jitbull_core.Db
module Jitbull = Jitbull_core.Jitbull
module V = Jitbull_vdc.Demonstrators

let verified_config = { Engine.default_config with Engine.verify_passes = true }

let test_workload_verified name () =
  match W.find name with
  | None -> Alcotest.fail ("unknown workload " ^ name)
  | Some w ->
    let reference = interp_output w.W.source in
    let out, _ = Engine.run_source verified_config w.W.source in
    check_string (name ^ " verified-mode output") reference out

let test_vulnerable_passes_still_produce_valid_ir () =
  (* the injected bugs are semantic, not structural: even the buggy
     transformations must pass the SSA verifier *)
  List.iter
    (fun (d : V.t) ->
      let config =
        { Engine.default_config with
          Engine.vulns = VC.make [ d.V.cve ];
          verify_passes = true }
      in
      (* exploits may detonate; IR validity is checked before that *)
      ignore (V.run_exploit config d.V.source d.V.expected))
    V.all

let test_jitbull_recompile_path_verified () =
  (* the go/no-go recompilation (disabled passes) also runs under the
     verifier *)
  let d = V.find VC.CVE_2019_17026 in
  let vulns = VC.make [ d.V.cve ] in
  let db = Db.create () in
  ignore (Db.harvest db ~cve:d.V.name ~vulns d.V.source);
  let config = { (Jitbull.config ~vulns db) with Engine.verify_passes = true } in
  match V.run_exploit config d.V.source d.V.expected with
  | V.Neutralized -> ()
  | V.Exploited m -> Alcotest.fail ("exploited under verifier: " ^ m)

(* Generated programs, with the verifier after every pass, on the patched
   engine and on JITBULL #8 (all eight bugs) over the 8-VDC DB, whose
   near-total false-positive rate on these programs sends almost every Ion
   compile down the recompile-with-passes-disabled path. Output must equal
   the interpreter's, and no intermediate graph may fail the verifier. *)
let eight_vdc_db =
  lazy
    (let db = Db.create () in
     List.iter
       (fun (d : V.t) -> ignore (Db.harvest db ~cve:d.V.name ~vulns:(VC.make [ d.V.cve ]) d.V.source))
       V.all;
     db)

let qcheck_generated_verified =
  let module G = Jitbull_fuzz.Generator in
  let params seed = { G.p_seed = seed; p_funcs = 4; p_rounds = 12; p_depth = 2 } in
  QCheck.Test.make ~count:(qcheck_count 20)
    ~name:"generated programs verified (patched and JITBULL #8)"
    (QCheck.make ~print:(fun seed -> G.benign_params (params seed)) QCheck.Gen.(int_bound 100_000))
    (fun seed ->
      let src = G.benign_params (params seed) in
      let run (config : Engine.config) =
        let config =
          { config with Engine.baseline_threshold = 2; ion_threshold = 4; verify_passes = true }
        in
        match Engine.run_source config src with
        | out, t -> (out, (Engine.stats t).Engine.nr_disjit)
        | exception Jitbull_mir.Verifier.Invalid m -> QCheck.Test.fail_reportf "verifier: %s" m
      in
      let reference = interp_output src in
      let patched, _ = run Engine.default_config in
      let protected, recompiled =
        run (Jitbull.config ~vulns:(VC.make VC.all) (Lazy.force eight_vdc_db))
      in
      if recompiled = 0 then QCheck.Test.fail_reportf "no function was recompiled";
      String.equal reference patched && String.equal reference protected)

let suite =
  ( "verify-mode",
    [
      Alcotest.test_case "Richards verified" `Slow (test_workload_verified "Richards");
      Alcotest.test_case "Mandreel verified" `Slow (test_workload_verified "Mandreel");
      Alcotest.test_case "CodeLoad verified" `Slow (test_workload_verified "CodeLoad");
      Alcotest.test_case "Splay verified" `Slow (test_workload_verified "Splay");
      Alcotest.test_case "vulnerable passes valid IR" `Slow
        test_vulnerable_passes_still_produce_valid_ir;
      Alcotest.test_case "recompile path verified" `Slow test_jitbull_recompile_path_verified;
      qtest qcheck_generated_verified;
    ] )
