(* The fleet observability plane: unknown routes answer a JSON 404,
   /push + /fleet aggregation with per-client labels and exact rollups
   (and the pushed records relayed into the daemon's own audit trail),
   the sampling profiler's attribution mechanics, audit-sink rotation,
   and the build-info /metrics series. *)

open Helpers
module Obs = Jitbull_obs.Obs
module Audit = Jitbull_obs.Audit
module Fleet = Jitbull_obs.Fleet
module Profile = Jitbull_obs.Profile
module Jsonx = Jitbull_obs.Jsonx
module Http = Jitbull_obs.Http_export
module Db = Jitbull_core.Db
module Service = Jitbull_service.Service
module Client = Jitbull_service.Client

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.equal (String.sub hay i nn) needle || go (i + 1)) in
  nn = 0 || go 0

let self_matching_db () =
  let db = Db.create () in
  let harvest_src =
    "function tri(x) { var t = 0; for (var i = 0; i < x; i++) { t = t + i; } return t; } \
     var s = 0; for (var j = 0; j < 60; j++) { s = s + tri(10); } print(s);"
  in
  check_bool "self-harvest found DNA" true
    (Db.harvest db ~cve:"CVE-SELF" ~vulns:VC.none harvest_src > 0);
  db

let with_service ?obs db f =
  let svc = Service.create ~workers:1 ?obs ~db ~port:0 () in
  Fun.protect ~finally:(fun () -> Service.stop svc) (fun () -> f svc)

let with_conn svc f =
  let conn = Http.Conn.connect ~port:(Service.port svc) () in
  Fun.protect ~finally:(fun () -> Http.Conn.close conn) (fun () -> f conn)

(* ---- wire: an unknown route is a JSON 404 ---- *)

let test_unknown_route_json_404 () =
  with_service (self_matching_db ()) (fun svc ->
      with_conn svc (fun conn ->
          let status, headers, body = Http.Conn.request conn "/no-such-route" in
          check_int "unknown route is a 404" 404 status;
          check_string "404 body is JSON" "application/json"
            (List.assoc "content-type" headers);
          check_bool "404 body carries an error field" true (contains body "\"error\"")))

(* ---- /push + /fleet: per-client labels, exact rollups ---- *)

let append_audit au ~tag ~n ~verdict =
  for i = 1 to n do
    ignore
      (Audit.append au
         ~func_name:(Printf.sprintf "%s%d" tag i)
         ~func_index:i ~bytecode_hash:i ~feedback_hash:(i * 3) ~verdict
         ~matches:[] ~thr:3 ~ratio:0.5 ~prefilter_candidates:1 ~prefilter_hits:0
         ~db_generation:0 ~db_size:1 ~source:Audit.Fresh ~duration:1e-4 ()
        : Audit.record)
  done

let push_ok what client =
  match Client.push client with
  | Ok n -> n
  | Error m -> Alcotest.failf "%s push failed: %s" what m

let test_fleet_aggregation_e2e () =
  let db = self_matching_db () in
  let obs_a = Obs.create () and obs_b = Obs.create () in
  let server_obs = Obs.create () in
  with_service ~obs:server_obs db (fun svc ->
      let connect id obs =
        Client.connect ~subscribe:false ~obs ~client_id:id
          ~port:(Service.port svc) ()
      in
      let a = connect "alpha" obs_a and b = connect "beta" obs_b in
      Fun.protect
        ~finally:(fun () ->
          Client.close a;
          Client.close b)
        (fun () ->
          append_audit (Obs.audit obs_a) ~tag:"fa" ~n:3 ~verdict:Audit.Allow;
          append_audit (Obs.audit obs_b) ~tag:"fb" ~n:2
            ~verdict:(Audit.Disable [ "gvn" ]);
          check_int "alpha delta accepted" 3 (push_ok "alpha" a);
          check_int "beta delta accepted" 2 (push_ok "beta" b);
          (* cumulative snapshots: a re-push replaces, never double-counts *)
          check_int "re-push carries no new delta" 0 (push_ok "alpha again" a);
          (* the pushed decisions land in the daemon's own trail, once
             each, labeled with the client that made them *)
          let relayed = Audit.records (Obs.audit server_obs) in
          let from id =
            List.filter (fun (r : Audit.record) -> r.Audit.client_id = Some id) relayed
          in
          check_int "daemon trail holds every pushed record" 5 (List.length relayed);
          check_bool "alpha's records relayed as decided" true
            (List.map (fun (r : Audit.record) -> (r.Audit.func_name, r.Audit.verdict)) (from "alpha")
            = [ ("fa1", Audit.Allow); ("fa2", Audit.Allow); ("fa3", Audit.Allow) ]);
          check_int "beta's records relayed" 2 (List.length (from "beta"));
          check_bool "relayed records renumbered in the daemon's sequence" true
            (List.mapi (fun i (r : Audit.record) -> r.Audit.seq = i) relayed
            |> List.for_all Fun.id);
          with_conn svc (fun conn ->
              let status, headers, body =
                Http.Conn.request conn "/fleet?format=json"
              in
              check_int "/fleet json is 200" 200 status;
              check_string "json content type" "application/json"
                (List.assoc "content-type" headers);
              let j = Jsonx.parse body in
              let clients = Jsonx.member "clients" j in
              let rollup = Jsonx.member "rollup" j in
              (match clients with
              | Jsonx.Assoc l ->
                let ids = List.map fst l in
                check_bool "both client series present" true
                  (List.mem "alpha" ids && List.mem "beta" ids)
              | _ -> Alcotest.fail "clients is an object");
              check_int "rollup records = sum of local counters" 5
                (Jsonx.to_int (Jsonx.member "records" rollup));
              check_int "rollup allow" 3 (Jsonx.to_int (Jsonx.member "allow" rollup));
              check_int "rollup disable" 2
                (Jsonx.to_int (Jsonx.member "disable" rollup));
              let alpha = Jsonx.member "alpha" clients in
              check_int "alpha per-client totals" 3
                (Jsonx.to_int (Jsonx.member "records" (Jsonx.member "totals" alpha)));
              check_int "alpha delta records counted" 3
                (Jsonx.to_int (Jsonx.member "delta_records" alpha));
              let status, _, prom = Http.Conn.request conn "/fleet" in
              check_int "/fleet prometheus is 200" 200 status;
              check_bool "alpha series labeled" true (contains prom "client=\"alpha\"");
              check_bool "beta series labeled" true (contains prom "client=\"beta\"");
              let status, headers, html =
                Http.Conn.request conn "/fleet?format=html"
              in
              check_int "/fleet html is 200" 200 status;
              check_bool "html content type" true
                (contains (List.assoc "content-type" headers) "text/html");
              check_bool "dashboard lists alpha" true (contains html "alpha"))))

let test_push_rejects_malformed () =
  with_service (self_matching_db ()) (fun svc ->
      with_conn svc (fun conn ->
          let status, headers, _ =
            Http.Conn.request conn ~meth:"POST" ~body:"not json" "/push"
          in
          check_int "garbage push body is a 400" 400 status;
          check_string "400 content type" "application/json"
            (List.assoc "content-type" headers);
          let status, _, _ =
            Http.Conn.request conn ~meth:"POST" ~body:"{\"ts\": 1}" "/push"
          in
          check_int "snapshot without a client id is a 400" 400 status;
          let status, _, _ =
            Http.Conn.request conn ~meth:"POST" ~body:"{\"client\": \"c\", \"ts\": 1}" "/push"
          in
          check_int "snapshot without totals is a 400" 400 status;
          let status, _, _ = Http.Conn.request conn "/push" in
          check_bool "GET /push is rejected" true (status >= 400)))

(* ---- sampling profiler mechanics ---- *)

let spin_tag = Profile.tag "test;spin"

let spin_for seconds =
  let t0 = Unix.gettimeofday () in
  let x = ref 0 in
  while Unix.gettimeofday () -. t0 < seconds do
    for _ = 1 to 20_000 do
      x := (!x * 1664525) + 1013904223
    done
  done;
  !x

let test_profiler_attribution () =
  if not (Profile.available ()) then ()
  else begin
    Profile.stop ();
    Profile.reset ();
    check_int "fresh profiler holds no samples" 0 (Profile.total_samples ());
    ignore (Profile.with_tag spin_tag (fun () -> spin_for 0.05) : int);
    check_int "disabled profiling records nothing" 0 (Profile.total_samples ());
    check_bool "sampler armed" true (Profile.start ());
    ignore (Profile.with_tag spin_tag (fun () -> spin_for 0.4) : int);
    Profile.stop ();
    let total = Profile.total_samples () in
    check_bool "sampler ticked while armed" true (total > 0);
    let spin =
      Option.value ~default:0 (List.assoc_opt "test;spin" (Profile.report ()))
    in
    check_bool "spin frame dominates the profile" true (spin * 2 > total);
    check_bool "most ticks attributed" true (Profile.attributed_fraction () >= 0.5);
    check_bool "collapsed-stack output carries the frame" true
      (contains (Profile.collapsed ()) "jsrun;test;spin ");
    let after_stop = Profile.total_samples () in
    ignore (spin_for 0.05 : int);
    check_int "stopped sampler stays silent" after_stop (Profile.total_samples ());
    Profile.reset ();
    check_int "reset zeroes the counters" 0 (Profile.total_samples ())
  end

(* ---- audit sink rotation ---- *)

let test_audit_sink_rotation () =
  let au = Audit.create () in
  let path = Filename.temp_file "jitbull_rot" ".jsonl" in
  Audit.set_file_sink au ~max_bytes:700 path;
  append_audit au ~tag:"rot" ~n:24 ~verdict:Audit.Allow;
  Audit.close au;
  check_bool "sink rotated at least once" true (Audit.sink_rotations au >= 1);
  check_bool "rotated-out file exists" true (Sys.file_exists (path ^ ".1"));
  (* the live file picks up cleanly after a rotation: every line is a
     well-formed record *)
  let ic = open_in path in
  (try
     while true do
       ignore (Audit.record_of_json (Jsonx.parse (input_line ic)) : Audit.record)
     done
   with End_of_file -> close_in ic);
  check_bool "rotation counter exported" true
    (contains (Audit.render_prometheus au) "jitbull_audit_sink_rotations_total");
  Sys.remove path;
  (try Sys.remove (path ^ ".1") with Sys_error _ -> ())

(* ---- /metrics build info ---- *)

let test_metrics_build_info () =
  let obs = Obs.create () in
  with_service ~obs (self_matching_db ()) (fun svc ->
      with_conn svc (fun conn ->
          let status, _, body = Http.Conn.request conn "/metrics" in
          check_int "/metrics is 200" 200 status;
          check_bool "build info series present" true
            (contains body "jitbull_build_info{version=\"");
          check_bool "ocaml version labeled" true
            (contains body ("ocaml=\"" ^ Sys.ocaml_version ^ "\""));
          check_bool "process start time exported" true
            (contains body "process_start_time_seconds ");
          let status, _, _ = Http.Conn.request conn "/profile" in
          check_int "/profile is served" 200 status))

let suite =
  ( "fleet",
    [
      Alcotest.test_case "unknown route is a JSON 404" `Quick
        test_unknown_route_json_404;
      Alcotest.test_case "fleet aggregation end to end" `Slow
        test_fleet_aggregation_e2e;
      Alcotest.test_case "push rejects malformed bodies" `Quick
        test_push_rejects_malformed;
      Alcotest.test_case "profiler attribution" `Slow test_profiler_attribution;
      Alcotest.test_case "audit sink rotation" `Quick test_audit_sink_rotation;
      Alcotest.test_case "metrics build info" `Quick test_metrics_build_info;
    ] )
