(* The go/no-go audit trail and live export: ring/query semantics, the
   acceptance record for a VDC-matching function (CVE id, matched passes
   with EqChains against Thr/Ratio, verdict, DB generation, deciding
   domain — through both the query API and /audit?n=1), sync-vs-async
   verdict-sequence equality, trace-file reconstruction of the
   tier-up → queue-wait → compile → install chain, cache-hit provenance,
   and the loopback HTTP exporter. *)

open Helpers
module Obs = Jitbull_obs.Obs
module Audit = Jitbull_obs.Audit
module Tracer = Jitbull_obs.Tracer
module Metrics = Jitbull_obs.Metrics
module Jsonx = Jitbull_obs.Jsonx
module Http = Jitbull_obs.Http_export
module Op = Jitbull_bytecode.Op
module Vm = Jitbull_bytecode.Vm
module Value = Jitbull_runtime.Value
module V = Jitbull_vdc.Demonstrators
module Variants = Jitbull_vdc.Variants
module Db = Jitbull_core.Db
module Jitbull = Jitbull_core.Jitbull

let fake_clock ?(step = 0.001) () =
  let t = ref 0.0 in
  fun () ->
    t := !t +. step;
    !t

let contains hay needle =
  let nl = String.length needle and l = String.length hay in
  let rec go i = i + nl <= l && (String.equal (String.sub hay i nl) needle || go (i + 1)) in
  go 0

let append_n au n =
  for i = 0 to n - 1 do
    let verdict =
      if i mod 3 = 0 then Audit.Allow else Audit.Disable [ "gvn" ]
    in
    let matches =
      if i mod 3 = 0 then []
      else
        [
          {
            Audit.cm_cve = Printf.sprintf "CVE-%d" (i mod 2);
            cm_passes =
              [
                {
                  Audit.pm_pass = "gvn";
                  pm_side = "removed";
                  pm_eq_chains = 2 + i;
                  pm_max_eq_chains = 4 + i;
                  pm_chains = [ ("boundscheck->loadelement", 1 + (i mod 2)) ];
                };
              ];
          };
        ]
    in
    ignore
      (Audit.append au
         ~func_name:(Printf.sprintf "f%d" (i mod 2))
         ~func_index:(i mod 2) ~bytecode_hash:i ~feedback_hash:(i * 7) ~verdict
         ~matches ~thr:2 ~ratio:0.5 ~prefilter_candidates:4 ~prefilter_hits:1
         ~db_generation:1 ~db_size:4 ~source:Audit.Fresh ~duration:1e-6 ())
  done

(* ---- ring, queries, JSONL, aggregate survival ---- *)

let test_ring_and_queries () =
  let au = Audit.create ~capacity:4 ~clock:(fake_clock ()) () in
  let path = Filename.temp_file "jitbull_audit" ".jsonl" in
  Audit.set_file_sink au path;
  append_n au 10;
  check_int "total counts evicted records" 10 (Audit.total au);
  let held = Audit.records au in
  check_int "ring bounded" 4 (List.length held);
  let seqs = List.map (fun (r : Audit.record) -> r.Audit.seq) held in
  Alcotest.(check (list int)) "newest four, oldest first" [ 6; 7; 8; 9 ] seqs;
  (match Audit.last au 2 with
  | [ a; b ] ->
    check_int "last is newest first" 9 a.Audit.seq;
    check_int "then the one before" 8 b.Audit.seq
  | _ -> Alcotest.fail "last 2 should return 2 records");
  check_int "by_function filters retained records" 2
    (List.length (Audit.by_function au "f0"));
  List.iter
    (fun (r : Audit.record) ->
      check_bool "by_cve matches only CVE-1" true
        (List.exists (fun m -> String.equal m.Audit.cm_cve "CVE-1") r.Audit.matches))
    (Audit.by_cve au "CVE-1");
  check_bool "by_cve finds records" true (Audit.by_cve au "CVE-1" <> []);
  (* the JSONL sink saw all 10, and each line round-trips *)
  Audit.close au;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  check_int "one line per appended record" 10 (List.length !lines);
  List.iter
    (fun line ->
      let r = Audit.record_of_json (Jsonx.parse line) in
      check_bool "round trip re-encodes identically" true
        (Jsonx.parse line = Audit.record_to_json r))
    !lines;
  Sys.remove path;
  (* cumulative aggregates survive ring eviction *)
  let text = Audit.render_prometheus au in
  let has = contains text in
  check_bool "records_total counts all appends" true (has "jitbull_audit_records_total 10");
  check_bool "allow verdicts survive eviction" true
    (has "jitbull_audit_verdicts_total{verdict=\"allow\"} 4");
  check_bool "disable verdicts survive eviction" true
    (has "jitbull_audit_verdicts_total{verdict=\"disable\"} 6")

(* ---- the IR diff rides in the record ---- *)

let gvn_match cve =
  {
    Audit.cm_cve = cve;
    cm_passes =
      [
        {
          Audit.pm_pass = "gvn";
          pm_side = "removed";
          pm_eq_chains = 4;
          pm_max_eq_chains = 6;
          pm_chains = [ ("boundscheck->loadelement", 3); ("^guard->loadelement", 1) ];
        };
      ];
  }

let mk_diff func =
  {
    Audit.cd_func = func;
    cd_total_passes = 3;
    cd_passes =
      [
        {
          Audit.pd_pass = "gvn";
          pd_instrs_before = 10;
          pd_instrs_after = 8;
          pd_blocks_before = 3;
          pd_blocks_after = 3;
          pd_opcodes_added = [];
          pd_opcodes_removed = [ ("boundscheck", 2) ];
          pd_chains_added = [ ("guard->loadelement", 1) ];
          pd_chains_removed = [ ("boundscheck->loadelement", 2) ];
        };
      ];
    cd_capture_seconds = 1.25e-6;
  }

let append_tri ?ir_diff au =
  Audit.append au ~ts:0.125 ?ir_diff ~func_name:"tri" ~func_index:3
    ~bytecode_hash:42 ~feedback_hash:7
    ~verdict:(Audit.Disable [ "gvn"; "licm" ])
    ~matches:[ gvn_match "CVE-2019-9810" ]
    ~thr:2 ~ratio:0.5 ~prefilter_candidates:9 ~prefilter_hits:1 ~db_generation:3
    ~db_size:9 ~source:Audit.Fresh ~duration:2.5e-05 ()

let test_record_codec () =
  let au = Audit.create () in
  let r = { (append_tri ~ir_diff:(mk_diff "tri") au) with Audit.domain = 0 } in
  check_bool "a record with a diff round-trips" true
    (Audit.record_of_json (Audit.record_to_json r) = r);
  check_bool "and through its encoded line" true
    (Audit.record_of_json (Jsonx.parse (Jsonx.to_string (Audit.record_to_json r))) = r);
  (* a diff-less record encodes byte for byte as before the field existed *)
  let r = { (append_tri au) with Audit.domain = 0 } in
  check_string "diff-less line unchanged"
    "{\"seq\":1,\"ts\":0.125,\"func\":\"tri\",\"func_index\":3,\"bytecode_hash\":42,\
     \"feedback_hash\":7,\"verdict\":{\"kind\":\"disable\",\"passes\":[\"gvn\",\"licm\"]},\
     \"matches\":[{\"cve\":\"CVE-2019-9810\",\"passes\":[{\"pass\":\"gvn\",\"side\":\"removed\",\
     \"eq_chains\":4,\"max_eq_chains\":6,\"chains\":{\"boundscheck->loadelement\":3,\
     \"^guard->loadelement\":1}}]}],\"thr\":2,\"ratio\":0.5,\"prefilter_candidates\":9,\
     \"prefilter_hits\":1,\"db_generation\":3,\"db_size\":9,\"source\":\"fresh\",\"domain\":0,\
     \"duration\":2.5e-05}"
    (Jsonx.to_string (Audit.record_to_json r));
  check_bool "and decodes without a diff" true
    (Audit.record_of_json (Audit.record_to_json r) = r)

let test_diff_eviction () =
  let au = Audit.create ~capacity:2 () in
  for i = 1 to 5 do
    ignore
      (Audit.append au ~ir_diff:(mk_diff (Printf.sprintf "f%d" i))
         ~func_name:(Printf.sprintf "f%d" i) ~func_index:i ~bytecode_hash:i
         ~feedback_hash:i ~verdict:(Audit.Disable [ "gvn" ])
         ~matches:[ gvn_match "CVE-X" ] ~thr:2 ~ratio:0.5 ~prefilter_candidates:1
         ~prefilter_hits:1 ~db_generation:1 ~db_size:1 ~source:Audit.Fresh
         ~duration:0.0 ())
  done;
  (* a diff leaves with its record: the newest two remain, each with its own *)
  Alcotest.(check (list (pair int string)))
    "newest two records keep their diffs"
    [ (3, "f4"); (4, "f5") ]
    (List.map
       (fun (r : Audit.record) ->
         match r.Audit.ir_diff with
         | Some d -> (r.Audit.seq, d.Audit.cd_func)
         | None -> Alcotest.failf "record #%d lost its diff" r.Audit.seq)
       (Audit.records au));
  (* the aggregates count every diff, evicted ones included *)
  let prom = Audit.render_prometheus au in
  List.iter
    (fun line -> check_bool line true (contains prom line))
    [
      "jitbull_explain_diffs_total 5";
      "jitbull_explain_chains_introduced_total{pass=\"gvn\",cve=\"CVE-X\"} 5";
    ]

(* ---- acceptance: the full evidence for a VDC-matching function ---- *)

let check_full_evidence ~where (r : Audit.record) cve =
  (match r.Audit.verdict with
  | Audit.Disable passes ->
    check_bool (where ^ ": gvn disabled") true (List.mem "gvn" passes)
  | _ -> Alcotest.fail (where ^ ": expected a disable verdict"));
  let m =
    match List.find_opt (fun m -> String.equal m.Audit.cm_cve cve) r.Audit.matches with
    | Some m -> m
    | None -> Alcotest.fail (where ^ ": no match naming the CVE")
  in
  let pm =
    match List.find_opt (fun p -> String.equal p.Audit.pm_pass "gvn") m.Audit.cm_passes with
    | Some p -> p
    | None -> Alcotest.fail (where ^ ": no gvn pass match")
  in
  check_bool (where ^ ": EqChains meets Thr") true (pm.Audit.pm_eq_chains >= r.Audit.thr);
  check_bool (where ^ ": EqChains meets Ratio * MaxEqChains") true
    (float_of_int pm.Audit.pm_eq_chains
    >= r.Audit.ratio *. float_of_int pm.Audit.pm_max_eq_chains);
  check_int "Thr recorded" 2 r.Audit.thr;
  check_bool "Ratio recorded" true (Float.abs (r.Audit.ratio -. 0.5) < 1e-9);
  check_bool (where ^ ": DB generation recorded") true (r.Audit.db_generation >= 1);
  check_bool (where ^ ": DB size recorded") true (r.Audit.db_size >= 1);
  check_bool (where ^ ": deciding domain recorded") true (r.Audit.domain >= 0);
  check_bool (where ^ ": fresh, not cached") true (r.Audit.source = Audit.Fresh);
  check_bool (where ^ ": prefilter hits recorded") true (r.Audit.prefilter_hits >= 1)

let test_vdc_match_full_evidence () =
  let d = V.find Jitbull_passes.Vuln_config.CVE_2019_17026 in
  let vulns = VC.make [ d.V.cve ] in
  let db = Db.create () in
  check_bool "harvest found DNA" true (Db.harvest db ~cve:d.V.name ~vulns d.V.source > 0);
  let obs = Obs.create () in
  let config = Jitbull.config ~obs ~vulns db in
  (match V.run_exploit config (Variants.apply Variants.Rename d.V.source) d.V.expected with
  | V.Neutralized -> ()
  | V.Exploited _ -> Alcotest.fail "variant should have been neutralized");
  let au = Obs.audit obs in
  (* query API: by_cve finds the decision with the full evidence *)
  let r =
    match Audit.by_cve au d.V.name with
    | r :: _ -> r
    | [] -> Alcotest.fail "no audit record names the CVE"
  in
  check_full_evidence ~where:"query API" r d.V.name;
  (* and /audit?n=1 over HTTP returns the same record as JSON *)
  let srv = Http.start ~obs ~port:0 () in
  Fun.protect
    ~finally:(fun () -> Http.stop srv)
    (fun () ->
      let code, body = Http.fetch ~port:(Http.port srv) "/audit?n=1" in
      check_int "/audit?n=1 is 200" 200 code;
      match Jsonx.to_list_exn (Jsonx.parse body) with
      | [ j ] ->
        let newest = List.hd (Audit.last au 1) in
        check_bool "/audit?n=1 is the newest record" true
          (Audit.record_of_json j = newest);
        (* the newest record for this workload is the flagged one *)
        check_full_evidence ~where:"/audit?n=1" (Audit.record_of_json j) d.V.name
      | l -> Alcotest.failf "expected exactly one record, got %d" (List.length l))

(* ---- sync and async runs decide identically, and say so ---- *)

(* DNA self-match: harvest [tri]'s own DNA (hot top-level loop crosses
   the default ion threshold), then any engine compiling the same [tri]
   against that DB must flag it — deterministically, on any domain. *)
let self_matching_db () =
  let db = Db.create () in
  let harvest_src =
    "function tri(x) { var t = 0; for (var i = 0; i < x; i++) { t = t + i; } return t; } \
     var s = 0; for (var j = 0; j < 60; j++) { s = s + tri(10); } print(s);"
  in
  check_bool "self-harvest found DNA" true
    (Db.harvest db ~cve:"CVE-SELF" ~vulns:VC.none harvest_src > 0);
  db

let drive_src =
  "function add(a, b) { return a + b; } \
   function tri(x) { var t = 0; for (var i = 0; i < x; i++) { t = t + i; } return t; }"

let func_idx eng name =
  let funcs = (Engine.vm eng).Vm.program.Op.funcs in
  let rec go i =
    if i >= Array.length funcs then Alcotest.fail ("no function " ^ name)
    else if String.equal funcs.(i).Op.name name then i
    else go (i + 1)
  in
  go 0

let drive eng =
  let num n = Value.Number (float_of_int n) in
  let add = func_idx eng "add" and tri = func_idx eng "tri" in
  for i = 0 to 9 do
    ignore (Vm.call_function (Engine.vm eng) add [ num i; num (i + 1) ]);
    ignore (Vm.call_function (Engine.vm eng) tri [ num (i mod 5) ])
  done

let engine_of db obs =
  let cfg = Jitbull.config ~obs ~vulns:VC.none db in
  let cfg = { cfg with Engine.baseline_threshold = 2; ion_threshold = 4 } in
  Engine.create cfg
    (Jitbull_bytecode.Compiler.compile (Jitbull_frontend.Parser.parse drive_src))

(* ---- the trace file reconstructs the compile chain ---- *)

(* [tri]'s Ion tier-up read back from the trace file: the traced compile
   with its pass spans inside, the go/no-go decision with its extraction
   and comparison inside, then the compile the verdict admits, its one
   lowering and the tier-up, in that order. *)
let test_trace_chain_reconstruction () =
  let db = self_matching_db () in
  let obs = Obs.create () in
  let path = Filename.temp_file "jitbull_chain" ".jsonl" in
  Obs.set_trace_file obs path;
  drive (engine_of db obs);
  Obs.close (Some obs);
  let ic = open_in path in
  let events = ref [] in
  (try
     while true do
       events := Tracer.event_of_json (Jsonx.parse (input_line ic)) :: !events
     done
   with End_of_file -> close_in ic);
  let events = List.rev !events in
  Sys.remove path;
  let field k (e : Tracer.event) = List.assoc_opt k e.Tracer.fields in
  let tri name =
    List.filter
      (fun (e : Tracer.event) ->
        String.equal e.Tracer.name name && field "func" e = Some (Jsonx.String "tri"))
      events
  in
  let children (p : Tracer.event) =
    List.filter_map
      (fun (e : Tracer.event) -> if e.Tracer.parent = Some p.Tracer.id then Some e.Tracer.name else None)
      events
  in
  let in_order (es : Tracer.event list) =
    let ts = List.map (fun (e : Tracer.event) -> e.Tracer.ts) es in
    List.sort Float.compare ts = ts
  in
  match
    ( tri "compile_ion",
      tri "policy_decide",
      tri "lower_ion",
      List.filter (fun e -> field "tier" e = Some (Jsonx.String "ion")) (tri "tier_up") )
  with
  | [ traced; recompile ], [ decide ], [ lower ], [ tier_up ] ->
    check_bool "the first compile is traced" true (field "traced" traced = Some (Jsonx.Bool true));
    check_bool "pass spans nest in the traced compile" true
      (List.exists (String.starts_with ~prefix:"pass.") (children traced));
    check_bool "extraction and comparison nest in the decision" true
      (List.mem "dna_extract" (children decide) && List.mem "db_compare" (children decide));
    check_bool "the recompile names the disabled passes" true
      (field "disabled" recompile <> None);
    check_bool "compile, decide, recompile, lower, install" true
      (in_order [ traced; decide; recompile; lower; tier_up ]);
    check_bool "the tier-up is a point event" true (tier_up.Tracer.kind = Tracer.Point)
  | c, d, l, t ->
    Alcotest.failf "tri: %d compile_ion, %d policy_decide, %d lower_ion, %d ion tier_up"
      (List.length c) (List.length d) (List.length l) (List.length t)

(* ---- cache hits carry their provenance ---- *)

let test_cache_hit_provenance () =
  let db = self_matching_db () in
  let obs = Obs.create () in
  let cfg = Jitbull.config ~obs ~vulns:VC.none db in
  let cfg = { cfg with Engine.baseline_threshold = 2; ion_threshold = 4 } in
  (* two engines share the config, hence the policy cache: the second
     run's decisions replay from it *)
  drive (Engine.create cfg (Jitbull_bytecode.Compiler.compile (Jitbull_frontend.Parser.parse drive_src)));
  drive (Engine.create cfg (Jitbull_bytecode.Compiler.compile (Jitbull_frontend.Parser.parse drive_src)));
  let au = Obs.audit obs in
  let hits =
    List.filter (fun (r : Audit.record) -> r.Audit.source = Audit.Cache_hit) (Audit.records au)
  in
  check_bool "cache hits audited" true (hits <> []);
  List.iter
    (fun (r : Audit.record) ->
      check_bool "cached record has no fresh match evidence" true (r.Audit.matches = []);
      check_bool "cached record spent no decision time" true (r.Audit.duration = 0.0);
      check_bool "cache hit still names the DB generation" true (r.Audit.db_generation >= 1))
    hits;
  (* a cached tri verdict agrees with the fresh one *)
  (match Audit.by_function au "tri" with
  | fresh :: rest ->
    check_bool "first tri decision is fresh" true (fresh.Audit.source = Audit.Fresh);
    (match List.find_opt (fun (r : Audit.record) -> r.Audit.source = Audit.Cache_hit) rest with
    | Some cached ->
      check_bool "cached verdict equals fresh verdict" true
        (Audit.verdict_label cached.Audit.verdict = Audit.verdict_label fresh.Audit.verdict)
    | None -> Alcotest.fail "no cached tri decision")
  | [] -> Alcotest.fail "tri was not audited")

(* ---- the HTTP exporter ---- *)

let test_http_endpoints () =
  let obs = Obs.create () in
  Metrics.add (Metrics.counter (Obs.metrics obs) "vm.calls") 3;
  ignore
    (Audit.append (Obs.audit obs) ~func_name:"f" ~func_index:0 ~bytecode_hash:1
       ~feedback_hash:2 ~verdict:Audit.Allow ~matches:[] ~thr:2 ~ratio:0.5
       ~prefilter_candidates:0 ~prefilter_hits:0 ~db_generation:0 ~db_size:0
       ~source:Audit.Fresh ~duration:0.0 ());
  let srv = Http.start ~obs ~port:0 () in
  Fun.protect
    ~finally:(fun () -> Http.stop srv)
    (fun () ->
      let port = Http.port srv in
      let has hay needle =
        let nl = String.length needle and l = String.length hay in
        let rec go i = i + nl <= l && (String.equal (String.sub hay i nl) needle || go (i + 1)) in
        go 0
      in
      let code, body = Http.fetch ~port "/metrics" in
      check_int "/metrics is 200" 200 code;
      check_bool "engine metrics exported" true (has body "vm_calls 3");
      check_bool "audit aggregates exported" true (has body "jitbull_audit_records_total 1");
      let code, body = Http.fetch ~port "/healthz" in
      check_int "healthy engine is 200" 200 code;
      check_bool "healthz reports ok" true (has body "\"status\":\"ok\"");
      (* push the compile stall past its 1 s bound *)
      Metrics.set (Metrics.gauge (Obs.metrics obs) "engine.main_stall_seconds") 2.0;
      let code, body = Http.fetch ~port "/healthz" in
      check_int "stalled engine is 503" 503 code;
      check_bool "healthz names the failing check" true (has body "main_stall_seconds");
      check_bool "healthz reports fail" true (has body "\"status\":\"fail\"");
      Metrics.set (Metrics.gauge (Obs.metrics obs) "engine.main_stall_seconds") 0.0;
      let code, _ = Http.fetch ~port "/healthz" in
      check_int "recovers to 200" 200 code;
      let code, body = Http.fetch ~port "/audit?n=5" in
      check_int "/audit is 200" 200 code;
      check_int "one record so far" 1 (List.length (Jsonx.to_list_exn (Jsonx.parse body)));
      let code, _ = Http.fetch ~port "/nope" in
      check_int "unknown path is 404" 404 code);
  (* stop is idempotent and the port is released *)
  Http.stop srv;
  check_bool "stopped server refuses" true
    (match Http.fetch ~port:(Http.port srv) "/metrics" with
    | exception Unix.Unix_error _ -> true
    | _ -> false)

let suite =
  ( "audit",
    [
      Alcotest.test_case "ring, queries, JSONL, aggregates" `Quick test_ring_and_queries;
      Alcotest.test_case "record codec: IR diff and pinned line" `Quick test_record_codec;
      Alcotest.test_case "IR diffs: evicted with their record, aggregates" `Quick
        test_diff_eviction;
      Alcotest.test_case "VDC match: full evidence via query API and /audit" `Quick
        test_vdc_match_full_evidence;
      Alcotest.test_case "trace file reconstructs the compile chain" `Quick
        test_trace_chain_reconstruction;
      Alcotest.test_case "cache-hit provenance" `Quick test_cache_hit_provenance;
      Alcotest.test_case "HTTP exporter endpoints" `Quick test_http_endpoints;
    ] )
