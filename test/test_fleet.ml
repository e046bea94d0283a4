(* The fleet observability plane: traceparent codec round-trip and
   hostile-input rejection (property tests), wire-level 400s on
   malformed headers, cross-process trace reconstruction (client +
   server trace files merged, parent links walked from the server's
   verdict span back to the engine's tier-up anchor), /push + /fleet
   aggregation with per-client labels and exact rollups, the sampling
   profiler's attribution mechanics, audit-sink rotation, and the
   build-info /metrics series. *)

open Helpers
module Obs = Jitbull_obs.Obs
module Tracer = Jitbull_obs.Tracer
module Audit = Jitbull_obs.Audit
module Fleet = Jitbull_obs.Fleet
module Propagate = Jitbull_obs.Propagate
module Profile = Jitbull_obs.Profile
module Jsonx = Jitbull_obs.Jsonx
module Http = Jitbull_obs.Http_export
module Db = Jitbull_core.Db
module Jitbull = Jitbull_core.Jitbull
module Service = Jitbull_service.Service
module Client = Jitbull_service.Client
module CQ = Jitbull_jit.Compile_queue
module Op = Jitbull_bytecode.Op
module Value = Jitbull_runtime.Value

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

(* ---- propagation codec: property round-trip + hostile rejection ---- *)

let qcheck_propagate_roundtrip =
  QCheck.Test.make
    ~count:(qcheck_count 200)
    ~name:"propagate: decode is a strict inverse of encode"
    QCheck.(triple pos_int pos_int pos_int)
    (fun (a, b, p) ->
      let trace_id = Printf.sprintf "%016x%016x" (max a 1) b in
      let ctx = { Propagate.trace_id; parent_id = max p 1 } in
      let header = Propagate.encode ctx in
      String.length header = 55
      && (match Propagate.decode header with
         | Ok c -> c = ctx
         | Error _ -> false))

let test_propagate_rejects_hostile () =
  let good =
    Propagate.encode
      { Propagate.trace_id = Propagate.fresh_trace_id (); parent_id = 42 }
  in
  (match Propagate.decode good with
  | Ok _ -> ()
  | Error m -> Alcotest.fail ("valid header rejected: " ^ m));
  let bad =
    [
      "";
      "00";
      "garbage";
      (* wrong version *)
      "01-0123456789abcdef0123456789abcdef-0123456789abcdef-01";
      (* uppercase hex *)
      "00-0123456789ABCDEF0123456789abcdef-0123456789abcdef-01";
      (* all-zero trace id *)
      "00-00000000000000000000000000000000-0123456789abcdef-01";
      (* zero parent id *)
      "00-0123456789abcdef0123456789abcdef-0000000000000000-01";
      (* bad delimiters *)
      "00_0123456789abcdef0123456789abcdef_0123456789abcdef_01";
      (* trailing junk *)
      good ^ "x";
      (* truncated *)
      String.sub good 0 (String.length good - 1);
    ]
  in
  List.iter
    (fun h ->
      match Propagate.decode h with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "hostile header accepted: %S" h)
    bad

(* Trace ids and span ids stay unique when minted from concurrent
   domains (the tracer id counter is process-global and pid-seeded). *)
let test_id_uniqueness_across_domains () =
  let obs = Some (Obs.create ()) in
  let alloc n =
    List.init n (fun _ ->
        match Obs.alloc_id obs with
        | Some i -> i
        | None -> Alcotest.fail "alloc_id on a live obs")
  in
  let d1 = Domain.spawn (fun () -> alloc 500) in
  let d2 = Domain.spawn (fun () -> List.init 200 (fun _ -> Propagate.fresh_trace_id ())) in
  let local_ids = alloc 500 in
  let remote_ids = Domain.join d1 in
  let remote_tids = Domain.join d2 in
  let local_tids = List.init 200 (fun _ -> Propagate.fresh_trace_id ()) in
  let ids = local_ids @ remote_ids in
  let tbl = Hashtbl.create 2048 in
  List.iter (fun i -> Hashtbl.replace tbl i ()) ids;
  check_int "span ids unique across domains" (List.length ids) (Hashtbl.length tbl);
  let tids = local_tids @ remote_tids in
  let ttbl = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace ttbl s ()) tids;
  check_int "trace ids unique across domains" (List.length tids) (Hashtbl.length ttbl);
  check_bool "trace ids well-formed" true (List.for_all Propagate.valid_trace_id tids)

(* ---- wire: malformed traceparent is a 400 on any route ---- *)

let test_traceparent_wire_validation () =
  with_service (self_matching_db ()) (fun svc ->
      with_conn svc (fun conn ->
          let status, headers, _ =
            Http.Conn.request conn ~headers:[ (Propagate.header_name, "zz") ] "/gen"
          in
          check_int "malformed traceparent is a 400" 400 status;
          check_string "400 body is JSON" "application/json"
            (List.assoc "content-type" headers);
          let good =
            Propagate.encode
              { Propagate.trace_id = Propagate.fresh_trace_id (); parent_id = 7 }
          in
          let status, _, _ =
            Http.Conn.request conn ~headers:[ (Propagate.header_name, good) ] "/gen"
          in
          check_int "well-formed traceparent passes" 200 status;
          let status, headers, body = Http.Conn.request conn "/no-such-route" in
          check_int "unknown route is a 404" 404 status;
          check_string "404 body is JSON" "application/json"
            (List.assoc "content-type" headers);
          check_bool "404 body carries an error field" true (contains body "\"error\"")))

(* ---- cross-process chain: client + server trace files merge ---- *)

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

let read_trace path =
  let ic = open_in path in
  let events = ref [] in
  (try
     while true do
       events := Tracer.event_of_json (Jsonx.parse (input_line ic)) :: !events
     done
   with End_of_file -> close_in ic);
  List.rev !events

let test_cross_process_trace_chain () =
  let db = self_matching_db () in
  let server_obs = Obs.create () in
  let server_trace = Filename.temp_file "jitbull_srv" ".jsonl" in
  Obs.set_trace_file server_obs server_trace;
  let client_obs = Obs.create () in
  let client_trace = Filename.temp_file "jitbull_cli" ".jsonl" in
  Obs.set_trace_file client_obs client_trace;
  let svc = Service.create ~workers:1 ~obs:server_obs ~db ~port:0 () in
  let pool = CQ.create ~jobs:test_jobs () in
  let client =
    Client.connect ~subscribe:false ~obs:client_obs ~client_id:"chain-test"
      ~port:(Service.port svc) ()
  in
  Fun.protect
    ~finally:(fun () ->
      Client.close client;
      CQ.shutdown pool;
      Service.stop svc)
    (fun () ->
      let cfg = Client.engine_config client ~vulns:VC.none () in
      let cfg =
        {
          cfg with
          Engine.baseline_threshold = 2;
          ion_threshold = 4;
          obs = Some client_obs;
          compile_pool = Some pool;
        }
      in
      let eng =
        Engine.create cfg
          (Jitbull_bytecode.Compiler.compile (Jitbull_frontend.Parser.parse drive_src))
      in
      let tri = func_idx eng "tri" in
      let served () =
        List.exists
          (fun (e : Tracer.event) -> String.equal e.Tracer.name "service.verdict")
          (Tracer.events (Obs.tracer server_obs))
      in
      let deadline = Unix.gettimeofday () +. 20.0 in
      while (not (served ())) && Unix.gettimeofday () < deadline do
        ignore (Vm.call_function (Engine.vm eng) tri [ Value.Number 8.0 ]);
        Engine.drain eng;
        Unix.sleepf 0.002
      done;
      check_bool "server recorded a verdict span" true (served ()));
  Obs.close (Some client_obs);
  Obs.close (Some server_obs);
  let events = read_trace server_trace @ read_trace client_trace in
  Sys.remove server_trace;
  Sys.remove client_trace;
  let by_id = Hashtbl.create 512 in
  List.iter
    (fun (e : Tracer.event) -> if e.Tracer.id <> 0 then Hashtbl.replace by_id e.Tracer.id e)
    events;
  let sv =
    match
      List.find_opt
        (fun (e : Tracer.event) -> String.equal e.Tracer.name "service.verdict")
        events
    with
    | Some e -> e
    | None -> Alcotest.fail "merged trace lost the server verdict span"
  in
  check_bool "server span labeled with the client id" true
    (match List.assoc_opt "client" sv.Tracer.fields with
    | Some (Jsonx.String c) -> String.equal c "chain-test"
    | _ -> false);
  check_bool "server span carries the client trace id" true
    (match List.assoc_opt "trace_id" sv.Tracer.fields with
    | Some (Jsonx.String _) -> true
    | _ -> false);
  (* walk parent links from the server span back into the client's
     trace, all the way to the tier-up anchor *)
  let rec walk id steps chain =
    if steps > 64 then
      Alcotest.failf "no tier_up_request within 64 hops: %s"
        (String.concat " <- " (List.rev chain))
    else
      match Hashtbl.find_opt by_id id with
      | None ->
        Alcotest.failf "dangling parent id %d (chain so far: %s)" id
          (String.concat " <- " (List.rev chain))
      | Some e ->
        let chain = e.Tracer.name :: chain in
        if String.equal e.Tracer.name "tier_up_request" then List.rev chain
        else (
          match e.Tracer.parent with
          | Some p -> walk p (steps + 1) chain
          | None ->
            Alcotest.failf "chain ended at %s before tier_up_request" e.Tracer.name)
  in
  (match sv.Tracer.parent with
  | None -> Alcotest.fail "server span has no remote parent"
  | Some p ->
    let chain = walk p 0 [ sv.Tracer.name ] in
    check_bool "chain crosses the client's remote_verdict span" true
      (List.mem "remote_verdict" chain));
  (* and the server-side audit trail carries the same provenance *)
  check_bool "server audit stamped with client id + remote parent" true
    (List.exists
       (fun (r : Audit.record) ->
         r.Audit.client_id = Some "chain-test" && r.Audit.remote_parent <> None)
       (Audit.records (Obs.audit server_obs)))

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
  with_service db (fun svc ->
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
      qtest qcheck_propagate_roundtrip;
      Alcotest.test_case "propagate rejects hostile headers" `Quick
        test_propagate_rejects_hostile;
      Alcotest.test_case "ids unique across domains" `Quick
        test_id_uniqueness_across_domains;
      Alcotest.test_case "traceparent wire validation" `Quick
        test_traceparent_wire_validation;
      Alcotest.test_case "cross-process trace chain" `Slow
        test_cross_process_trace_chain;
      Alcotest.test_case "fleet aggregation end to end" `Slow
        test_fleet_aggregation_e2e;
      Alcotest.test_case "push rejects malformed bodies" `Quick
        test_push_rejects_malformed;
      Alcotest.test_case "profiler attribution" `Slow test_profiler_attribution;
      Alcotest.test_case "audit sink rotation" `Quick test_audit_sink_rotation;
      Alcotest.test_case "metrics build info" `Quick test_metrics_build_info;
    ] )
