(* Explainability: the per-compile IR diffs audit records carry, the
   decision-explanation engine (fresh, cache-hit and evicted-evidence
   paths), the /explain HTTP surface with its query-parameter hardening,
   and exporter robustness against abusive clients. The acceptance bar: every modeled
   CVE's forbidden/disabled compile must yield a report naming the CVE,
   the contributing passes and the introduced sub-chains — identically
   under sync and async compilation. *)

open Helpers
module Obs = Jitbull_obs.Obs
module Audit = Jitbull_obs.Audit
module Explain = Jitbull_obs.Explain
module Jsonx = Jitbull_obs.Jsonx
module Http = Jitbull_obs.Http_export
module Op = Jitbull_bytecode.Op
module Vm = Jitbull_bytecode.Vm
module Value = Jitbull_runtime.Value
module V = Jitbull_vdc.Demonstrators
module Db = Jitbull_core.Db
module Jitbull = Jitbull_core.Jitbull
module Pipeline = Jitbull_passes.Pipeline

let has hay needle =
  let nl = String.length needle and l = String.length hay in
  let rec go i = i + nl <= l && (String.equal (String.sub hay i nl) needle || go (i + 1)) in
  go 0

let check_has where hay needle =
  if not (has hay needle) then
    Alcotest.failf "%s: %S not found in:\n%s" where needle hay

(* ---- every modeled CVE produces a causal report ---- *)

let test_every_cve_explained () =
  List.iter
    (fun cve ->
      let d = V.find cve in
      let db = Db.create () in
      check_bool (d.V.name ^ ": harvest found DNA") true
        (Db.harvest db ~cve:d.V.name ~vulns:(VC.make [ cve ]) d.V.source > 0);
      let obs = Obs.create ~explain:true () in
      let config = Jitbull.config ~obs ~vulns:(VC.make [ cve ]) db in
      (match V.run_exploit config d.V.source d.V.expected with
      | V.Neutralized -> ()
      | V.Exploited _ -> Alcotest.fail (d.V.name ^ ": exploit not neutralized"));
      let au = Obs.audit obs in
      let r =
        match Audit.by_cve au d.V.name with
        | r :: _ -> r
        | [] -> Alcotest.fail (d.V.name ^ ": no audit record names the CVE")
      in
      let e = Explain.resolve ~history:(Audit.records au) r in
      let text = Explain.to_text ~can_disable:Pipeline.can_disable e in
      let where = d.V.name ^ " report" in
      check_has where text d.V.name;
      check_has where text "EqChains";
      check_has where text "verdict:";
      (* names every contributing pass and at least one matching sub-chain *)
      check_bool (d.V.name ^ ": match evidence present") true (r.Audit.matches <> []);
      List.iter
        (fun (cm : Audit.cve_match) ->
          List.iter
            (fun (pm : Audit.pass_match) ->
              check_has where text pm.Audit.pm_pass;
              check_bool (d.V.name ^ ": sub-chain evidence recorded") true
                (pm.Audit.pm_chains <> []);
              match pm.Audit.pm_chains with
              | (k, _) :: _ -> check_has where text k
              | [] -> ())
            cm.Audit.cm_passes)
        r.Audit.matches;
      (* the IR diff of the flagged compile was captured and is joined in *)
      (match e.Explain.ex_diff with
      | Some diff ->
        check_string (d.V.name ^ ": diff is for the flagged function")
          r.Audit.func_name diff.Audit.cd_func;
        check_has where text "per-pass IR diff ("
      | None -> Alcotest.fail (d.V.name ^ ": IR diff not captured")))
    VC.all

(* ---- sync and async runs explain identically ---- *)

(* Same self-match rig as test_audit: harvest [tri]'s own DNA, then any
   engine compiling [tri] against that DB flags it deterministically. *)
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
  Engine.create cfg (Compiler.compile (Parser.parse drive_src))

(* ---- one record per compile: the diff rides in its Fresh record ---- *)

(* Two engines share one config (hence its policy cache), so the second
   run's decisions are cache hits: every analysis's record carries its
   diff, no replay carries one. *)
let test_shared_cache_diffs () =
  let db = self_matching_db () in
  let obs = Obs.create ~explain:true () in
  let cfg = Jitbull.config ~obs ~vulns:VC.none db in
  let cfg = { cfg with Engine.baseline_threshold = 2; ion_threshold = 4 } in
  for _ = 1 to 2 do
    drive (Engine.create cfg (Compiler.compile (Parser.parse drive_src)))
  done;
  let records = Audit.records (Obs.audit obs) in
  let fresh, hits =
    List.partition (fun (r : Audit.record) -> r.Audit.source = Audit.Fresh) records
  in
  check_bool "fresh records" true (fresh <> []);
  check_bool "cache-hit records" true (hits <> []);
  List.iter
    (fun (r : Audit.record) ->
      match r.Audit.ir_diff with
      | Some d -> check_string "diff names the record's function" r.Audit.func_name d.Audit.cd_func
      | None -> Alcotest.failf "fresh record #%d has no IR diff" r.Audit.seq)
    fresh;
  List.iter
    (fun (r : Audit.record) ->
      check_bool "cache-hit record carries no diff" true (r.Audit.ir_diff = None))
    hits

(* ---- /explain over HTTP, and the hardened query parameters ---- *)

let content_type headers =
  Option.value ~default:"" (List.assoc_opt "content-type" headers)

let test_http_explain () =
  let db = self_matching_db () in
  let obs = Obs.create ~explain:true () in
  drive (engine_of db obs);
  let au = Obs.audit obs in
  let flagged =
    match Audit.by_cve au "CVE-SELF" with
    | r :: _ -> r
    | [] -> Alcotest.fail "tri not flagged"
  in
  let pass =
    match flagged.Audit.matches with
    | { Audit.cm_passes = pm :: _; _ } :: _ -> pm.Audit.pm_pass
    | _ -> Alcotest.fail "no pass evidence"
  in
  let srv = Http.start ~can_disable:Pipeline.can_disable ~obs ~port:0 () in
  Fun.protect
    ~finally:(fun () -> Http.stop srv)
    (fun () ->
      let port = Http.port srv in
      let url = Printf.sprintf "/explain?id=%d" flagged.Audit.seq in
      (* HTML report *)
      let code, headers, body = Http.fetch_full ~port url in
      check_int "/explain?id is 200" 200 code;
      check_has "html content-type" (content_type headers) "text/html";
      check_has "html report" body "CVE-SELF";
      check_has "html report" body pass;
      check_has "html report" body "per-pass IR diff";
      (* plain-text variant carries the same names *)
      let code, headers, text = Http.fetch_full ~port (url ^ "&format=text") in
      check_int "format=text is 200" 200 code;
      check_has "text content-type" (content_type headers) "text/plain";
      check_has "text report" text "CVE-SELF";
      check_has "text report" text pass;
      (* index links to the decision *)
      let code, body = Http.fetch ~port "/explain" in
      check_int "/explain index is 200" 200 code;
      check_has "index" body (Printf.sprintf "/explain?id=%d" flagged.Audit.seq);
      (* malformed and unknown ids *)
      let code, _, _ = Http.fetch_full ~port "/explain?id=abc" in
      check_int "non-numeric id is 400" 400 code;
      let code, headers, body = Http.fetch_full ~port "/explain?id=999999" in
      check_int "unknown id is 404" 404 code;
      check_has "404 content-type" (content_type headers) "application/json";
      check_has "404 body" body "evicted";
      (* /audit?n hardening: negative, non-numeric and huge are 400 *)
      List.iter
        (fun q ->
          let code, _, _ = Http.fetch_full ~port ("/audit?n=" ^ q) in
          check_int ("/audit?n=" ^ q ^ " is 400") 400 code)
        [ "-1"; "abc"; "999999" ];
      let code, headers, _ = Http.fetch_full ~port "/audit?n=2" in
      check_int "/audit?n=2 is 200" 200 code;
      check_has "audit content-type" (content_type headers) "application/json";
      let code, _, _ = Http.fetch_full ~port "/explain?n=abc" in
      check_int "index with bad n is 400" 400 code)

(* ---- exporter robustness: concurrent, oversized and rude clients ---- *)

let test_http_robustness () =
  let obs = Obs.create () in
  let srv = Http.start ~obs ~port:0 () in
  Fun.protect
    ~finally:(fun () -> Http.stop srv)
    (fun () ->
      let port = Http.port srv in
      let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
      (* concurrent clients on separate domains all get served *)
      let worker =
        Domain.spawn (fun () ->
            let ok = ref true in
            for _ = 1 to 10 do
              let code, _ = Http.fetch ~port "/metrics" in
              if code <> 200 then ok := false
            done;
            !ok)
      in
      let ok = ref true in
      for _ = 1 to 10 do
        let code, _ = Http.fetch ~port "/healthz" in
        if code <> 200 then ok := false
      done;
      check_bool "interleaved client served" true !ok;
      check_bool "concurrent domain client served" true (Domain.join worker);
      (* a client that connects and hangs up immediately *)
      let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect s addr;
      Unix.close s;
      (* a request line far beyond the 16 KiB read bound, never terminated *)
      let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect s addr;
      let junk = Bytes.make 20_000 'A' in
      (try ignore (Unix.write s junk 0 (Bytes.length junk))
       with Unix.Unix_error _ -> ());
      (try Unix.close s with Unix.Unix_error _ -> ());
      (* the server survives all of it *)
      let code, _ = Http.fetch ~port "/healthz" in
      check_int "server alive after abuse" 200 code)

(* ---- eviction over HTTP: an evicted id is 404, a retained record
   without a diff is a 200 with the capture marked unavailable ---- *)

let append_simple au i ~source =
  Audit.append au
    ~func_name:(Printf.sprintf "f%d" i)
    ~func_index:i ~bytecode_hash:i ~feedback_hash:(i * 7) ~verdict:Audit.Allow
    ~matches:[] ~thr:2 ~ratio:0.5 ~prefilter_candidates:0 ~prefilter_hits:0
    ~db_generation:1 ~db_size:4 ~source ~duration:1e-6 ()

let test_http_evicted_id () =
  let obs = Obs.create ~audit_capacity:2 ~explain:true () in
  let au = Obs.audit obs in
  let first = append_simple au 0 ~source:Audit.Fresh in
  let rest = List.init 4 (fun i -> append_simple au (i + 1) ~source:Audit.Fresh) in
  let newest = List.nth rest 3 in
  let srv = Http.start ~obs ~port:0 () in
  Fun.protect
    ~finally:(fun () -> Http.stop srv)
    (fun () ->
      let port = Http.port srv in
      let code, _, body =
        Http.fetch_full ~port (Printf.sprintf "/explain?id=%d" first.Audit.seq)
      in
      check_int "audit-evicted id is 404" 404 code;
      check_has "404 body" body "evicted";
      (* the newest decision is retained in the audit ring but carries no
         diff (nothing compiled): 200 with the capture marked
         unavailable, not a crash *)
      let code, _, body =
        Http.fetch_full ~port
          (Printf.sprintf "/explain?id=%d&format=text" newest.Audit.seq)
      in
      check_int "retained id is 200" 200 code;
      check_has "diffless report" body "not captured")

(* ---- cache-hit resolution: evidence replay without the engine ---- *)

let test_cache_hit_resolution () =
  let au = Audit.create () in
  let matches =
    [
      {
        Audit.cm_cve = "CVE-2019-9810";
        cm_passes =
          [
            {
              Audit.pm_pass = "licm";
              pm_side = "added";
              pm_eq_chains = 4;
              pm_max_eq_chains = 6;
              pm_chains = [ ("^guard->loadelement", 2) ];
            };
          ];
      };
    ]
  in
  let fresh =
    Audit.append au ~func_name:"hot" ~func_index:1 ~bytecode_hash:42
      ~feedback_hash:7
      ~verdict:(Audit.Disable [ "licm" ])
      ~matches ~thr:2 ~ratio:0.5 ~prefilter_candidates:4 ~prefilter_hits:1
      ~db_generation:1 ~db_size:4 ~source:Audit.Fresh ~duration:2e-6 ()
  in
  (* same function, different bytecode: must not be picked as evidence *)
  ignore
    (Audit.append au ~func_name:"hot" ~func_index:1 ~bytecode_hash:43
       ~feedback_hash:7 ~verdict:Audit.Allow ~matches:[] ~thr:2 ~ratio:0.5
       ~prefilter_candidates:0 ~prefilter_hits:0 ~db_generation:1 ~db_size:4
       ~source:Audit.Fresh ~duration:1e-6 ());
  let hit =
    Audit.append au ~func_name:"hot" ~func_index:1 ~bytecode_hash:42
      ~feedback_hash:7
      ~verdict:(Audit.Disable [ "licm" ])
      ~matches:[] ~thr:2 ~ratio:0.5 ~prefilter_candidates:0 ~prefilter_hits:0
      ~db_generation:1 ~db_size:4 ~source:Audit.Cache_hit ~duration:0.0 ()
  in
  let e = Explain.resolve ~history:(Audit.records au) hit in
  (match e.Explain.ex_evidence with
  | Some ev -> check_int "evidence is the matching fresh record" fresh.Audit.seq ev.Audit.seq
  | None -> Alcotest.fail "cache hit did not resolve to its fresh record");
  let text = Explain.to_text e in
  check_has "cache-hit report" text "cache hit";
  check_has "cache-hit report" text "CVE-2019-9810";
  check_has "cache-hit report" text "licm";
  check_has "cache-hit report" text "^guard->loadelement";
  (* a hit whose fresh record is gone still renders, marked as such *)
  let orphan = append_simple au 9 ~source:Audit.Cache_hit in
  let e = Explain.resolve ~history:(Audit.records au) orphan in
  check_bool "orphan hit has no evidence" true (e.Explain.ex_evidence = None);
  check_has "orphan report" (Explain.to_text e) "evicted"

let suite =
  ( "explain",
    [
      Alcotest.test_case "every modeled CVE yields a causal report" `Quick
        test_every_cve_explained;
      Alcotest.test_case "/explain endpoints and query hardening" `Quick
        test_http_explain;
      Alcotest.test_case "exporter robustness under abusive clients" `Quick
        test_http_robustness;
      Alcotest.test_case "shared cache: fresh records carry the diff" `Quick
        test_shared_cache_diffs;
      Alcotest.test_case "evicted ids over HTTP" `Quick test_http_evicted_id;
      Alcotest.test_case "offline cache-hit evidence replay" `Quick
        test_cache_hit_resolution;
    ] )
