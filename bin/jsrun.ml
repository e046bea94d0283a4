(* jsrun — run a mini-JS script on the tiered engine.

     jsrun script.js                    full JIT
     jsrun --no-jit script.js           interpreter tier only (paper's NoJIT)
     jsrun --interp script.js           reference tree-walking interpreter
     jsrun --vuln CVE-2019-17026 ...    activate an injected pass bug
     jsrun --db jitbull.db ...          enable JITBULL with this database
     jsrun --verdict-server ADDR ...    ask a jitbulld daemon instead of a
                                        local DB (ADDR = PORT or HOST:PORT,
                                        loopback only)
     jsrun --stats ...                  print engine statistics afterwards
     jsrun --metrics[=FILE] ...         telemetry snapshot at exit
     jsrun --trace-file out.jsonl ...   structured event trace (JSON lines)
     jsrun --jobs N ...                 N helper domains for background Ion compiles
     jsrun --native / --no-native       x86-64 machine code for the Ion tier
                                        (default on; falls back to the LIR
                                        executor off x86-64 or under
                                        JITBULL_NO_NATIVE=1)
     jsrun --audit-file out.jsonl ...   go/no-go decision audit trail (JSON lines)
     jsrun --audit-rotate-bytes N ...   rotate the audit sink once it exceeds N bytes
     jsrun --push SECONDS ...           with --verdict-server: push telemetry
                                        snapshots + audit deltas to the daemon
                                        every SECONDS (and once at exit)
     jsrun --client-id NAME ...         fleet label on pushes and verdict requests
     jsrun --profile[=FILE] ...         CPU sampling profile (SIGPROF, Linux/x86-64);
                                        collapsed stacks to FILE or stderr at exit
     jsrun --explain[=FUNC] ...         capture per-pass IR diffs; print causal
                                        go/no-go reports at exit (all flagged
                                        decisions, or just FUNC's)
     jsrun --explain-capacity K ...     keep the last K compiles' IR diffs
     jsrun --serve-metrics PORT ...     live HTTP /metrics + /healthz + /audit + /explain
     jsrun --serve-hold SECONDS ...     keep serving after the script finishes
     jsrun --quiet / -v ...             verbosity control (errors only / info / -vv debug) *)

open Cmdliner
module Engine = Jitbull_jit.Engine
module Compile_queue = Jitbull_jit.Compile_queue
module Interp = Jitbull_interp.Interp
module Realm = Jitbull_runtime.Realm
module Errors = Jitbull_runtime.Errors
module VC = Jitbull_passes.Vuln_config
module Db = Jitbull_core.Db
module Jitbull = Jitbull_core.Jitbull
module Obs = Jitbull_obs.Obs
module Metrics = Jitbull_obs.Metrics
module Report = Jitbull_obs.Report
module Jsonx = Jitbull_obs.Jsonx
module Audit = Jitbull_obs.Audit
module Explain = Jitbull_obs.Explain
module Profile = Jitbull_obs.Profile
module Pipeline = Jitbull_passes.Pipeline
module Table = Jitbull_util.Text_table
module Client = Jitbull_service.Client

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* A reporter is always installed so the engine's warnings and errors are
   never silently dropped. Default level Warning; --quiet drops to Error,
   -v raises to Info, -vv (or the legacy --trace) to Debug. *)
let setup_logging ~quiet ~verbose trace =
  Logs.set_reporter (Logs.format_reporter ());
  let level =
    if quiet then Logs.Error
    else if trace || verbose >= 2 then Logs.Debug
    else if verbose = 1 then Logs.Info
    else Logs.Warning
  in
  Logs.set_level (Some level)

let has_suffix suf s =
  let ls = String.length suf and l = String.length s in
  l >= ls && String.equal (String.sub s (l - ls) ls) suf

(* Dump the metrics snapshot: the per-pass compile profile as a table on
   stderr, then the registry itself — Prometheus text by default, JSON
   when the destination ends in .json, stderr when it is "-". *)
let report_metrics obs dest =
  let view = Obs.view obs in
  let headers, rows = Report.pass_profile view in
  if rows <> [] then begin
    Printf.eprintf "-- per-pass compile profile --\n";
    prerr_string (Table.render ~headers rows);
    prerr_newline ()
  end;
  let as_json = has_suffix ".json" dest in
  let body =
    if as_json then Jsonx.to_string (Metrics.view_to_json view) ^ "\n"
    else Metrics.render_prometheus view
  in
  if String.equal dest "-" then begin
    Printf.eprintf "-- metrics --\n";
    prerr_string body
  end
  else begin
    let oc = open_out dest in
    output_string oc body;
    close_out oc
  end

(* Print a causal report per flagged decision: all non-allow verdicts and
   allow-with-matches (an empty filter), or every decision of one
   function. *)
let report_explanations obs ~filter =
  match obs with
  | None -> ()
  | Some o ->
    let records = Audit.records (Obs.audit o) in
    let interesting (r : Audit.record) =
      match filter with
      | "" -> r.Audit.matches <> [] || r.Audit.verdict <> Audit.Allow
      | f -> String.equal r.Audit.func_name f
    in
    let selected = List.filter interesting records in
    Printf.eprintf "-- go/no-go explanations (%d of %d decisions) --\n"
      (List.length selected) (List.length records);
    if selected = [] then
      Printf.eprintf "(nothing to explain%s)\n"
        (if filter = "" then " - every decision was a clean allow"
         else ": no decision for function " ^ filter);
    List.iter
      (fun r ->
        let e = Explain.resolve ?irdiff:(Obs.irdiff o) ~history:records r in
        prerr_string (Explain.to_text ~can_disable:Pipeline.can_disable e);
        prerr_newline ())
      selected;
    (* the process may be killed during --serve-hold; don't leave the
       report in the channel buffer *)
    flush stderr

(* --verdict-server accepts a bare port or HOST:PORT; the daemon binds
   loopback only, so reject anything else early with a clear message. *)
let parse_verdict_server addr =
  let port_str =
    match String.rindex_opt addr ':' with
    | Some i ->
      let host = String.sub addr 0 i in
      if host <> "" && host <> "127.0.0.1" && host <> "localhost" then
        failwith ("verdict server must be loopback (127.0.0.1), got " ^ host);
      String.sub addr (i + 1) (String.length addr - i - 1)
    | None -> addr
  in
  match int_of_string_opt port_str with
  | Some p when p > 0 && p < 65536 -> p
  | _ -> failwith ("bad --verdict-server address: " ^ addr)

let run file no_jit use_interp vuln_names db_path verdict_server push_interval
    client_id stats ion_threshold seed trace metrics
    trace_file audit_file audit_rotate_bytes explain explain_capacity
    serve_metrics serve_hold profile
    jobs native quiet verbose =
  setup_logging ~quiet ~verbose:(List.length verbose) trace;
  let source = read_file file in
  let vulns =
    List.map
      (fun name ->
        match VC.cve_of_name name with
        | Some cve -> cve
        | None -> failwith (Printf.sprintf "unknown CVE %s (known: %s)" name
                              (String.concat ", " (List.map VC.cve_name VC.all))))
      vuln_names
  in
  let vulns = VC.make vulns in
  let realm = Realm.create ~seed ~echo:true () in
  try
    let obs =
      (* --push counts: a telemetry pusher with nothing to push would be
         an empty fleet series *)
      match
        (metrics, trace_file, audit_file, serve_metrics, explain,
         push_interval)
      with
      | None, None, None, None, None, None -> None
      | _ ->
        let explain_capacity =
          match explain with Some _ -> Some explain_capacity | None -> None
        in
        let o = Obs.create ?explain_capacity () in
        (match trace_file with
        | Some path -> Obs.set_trace_file o path
        | None -> ());
        (match audit_file with
        | Some path ->
          Obs.set_audit_file o ?max_bytes:audit_rotate_bytes path
        | None -> ());
        Some o
    in
    (match profile with
    | Some _ ->
      if not (Profile.start ()) then
        Logs.warn (fun m ->
            m "--profile: sampling unsupported on this platform (need \
               Linux/x86-64); the profile will be empty")
    | None -> ());
    if push_interval <> None && verdict_server = None then
      Logs.warn (fun m -> m "--push has no effect without --verdict-server");
    let server =
      match (serve_metrics, obs) with
      | Some port, Some o ->
        let s =
          Jitbull_obs.Http_export.start ~can_disable:Pipeline.can_disable ~obs:o
            ~port ()
        in
        Printf.eprintf
          "serving /metrics /healthz /audit /explain on 127.0.0.1:%d\n%!"
          (Jitbull_obs.Http_export.port s);
        Some s
      | _ -> None
    in
    let jobs =
      match jobs with Some n -> max 0 n | None -> Compile_queue.default_jobs ()
    in
    let pool = if jobs > 0 then Some (Compile_queue.create ~jobs ()) else None in
    let remote = ref None in
    let finish () =
      (* stop sampling before teardown so shutdown work isn't profiled *)
      (match profile with
      | Some dest ->
        Profile.stop ();
        Printf.eprintf "-- profile: %d samples, %.1f%% attributed --\n"
          (Profile.total_samples ())
          (100.0 *. Profile.attributed_fraction ());
        let body = Profile.collapsed () in
        if String.equal dest "-" then prerr_string body
        else begin
          let oc = open_out dest in
          output_string oc body;
          close_out oc
        end
      | None -> ());
      (match !remote with Some c -> Client.close c | None -> ());
      (match pool with Some p -> Compile_queue.shutdown p | None -> ());
      (match explain with
      | Some filter -> report_explanations obs ~filter
      | None -> ());
      (match metrics with
      | Some dest -> report_metrics obs dest
      | None -> ());
      (* hold the scrape endpoint open (CI smoke, manual curl) before
         tearing it down *)
      (match server with
      | Some s ->
        if serve_hold > 0.0 then Unix.sleepf serve_hold;
        Jitbull_obs.Http_export.stop s
      | None -> ());
      Obs.close obs
    in
    Fun.protect ~finally:finish (fun () ->
        if use_interp then begin
          ignore (Interp.run_source ~realm source);
          `Ok ()
        end
        else begin
          let config =
            match (verdict_server, db_path) with
            | Some addr, _ ->
              if db_path <> None then
                Logs.warn (fun m ->
                    m "--verdict-server overrides --db: verdicts come from \
                       the daemon (its DB syncs into the fallback replica)");
              let port = parse_verdict_server addr in
              let client =
                Client.connect ?obs ?client_id
                  ?push_interval_s:push_interval ~port ()
              in
              remote := Some client;
              let c = Client.engine_config client ~vulns () in
              {
                c with
                Engine.jit_enabled = not no_jit;
                ion_threshold;
                native;
                compile_pool = pool;
              }
            | None, Some path ->
              let db = Db.load path in
              let c = Jitbull.config ?obs ?compile_pool:pool ~vulns db in
              { c with Engine.jit_enabled = not no_jit; ion_threshold; native }
            | None, None ->
              { Engine.default_config with Engine.vulns; jit_enabled = not no_jit;
                ion_threshold; native; obs; compile_pool = pool }
          in
          let _, engine = Engine.run_source ~realm config source in
          if stats then begin
            let s = Engine.stats engine in
            Printf.eprintf
              "-- engine statistics --\n\
               baseline compiles: %d\nion compiles:      %d\n\
               Nr_JIT: %d  Nr_DisJIT: %d  Nr_NoJIT: %d\n\
               bailouts: %d  deopts: %d\n"
              s.Engine.baseline_compiles s.Engine.ion_compiles s.Engine.nr_jit
              s.Engine.nr_disjit s.Engine.nr_nojit s.Engine.bailouts s.Engine.deopts;
            Printf.eprintf "native installs:   %d\n" s.Engine.native_installs;
            if jobs > 0 then
              Printf.eprintf
                "compile jobs: %d\nasync installs: %d  stale results: %d\n\
                 main-thread stall: %.6fs\n"
                jobs s.Engine.async_installs s.Engine.stale_results
                s.Engine.main_stall_seconds
          end;
          `Ok ()
        end)
  with
  | Errors.Shellcode_executed msg ->
    Printf.eprintf "SHELLCODE EXECUTED: %s\n" msg;
    `Error (false, "script achieved simulated code execution")
  | Errors.Crash msg ->
    Printf.eprintf "CRASH: %s\n" msg;
    `Error (false, "script crashed the simulated runtime")
  | Errors.Type_error msg -> `Error (false, "type error: " ^ msg)
  | Sys_error msg | Fun.Finally_raised (Sys_error msg) -> `Error (false, msg)
  | Jitbull_frontend.Parser.Parse_error (msg, pos) ->
    `Error (false, Printf.sprintf "parse error at %d:%d: %s" pos.Jitbull_frontend.Token.line
              pos.Jitbull_frontend.Token.column msg)
  | Jitbull_frontend.Lexer.Lex_error (msg, pos) ->
    `Error (false, Printf.sprintf "lex error at %d:%d: %s" pos.Jitbull_frontend.Token.line
              pos.Jitbull_frontend.Token.column msg)

let file =
  Arg.(required & pos 0 (some non_dir_file) None & info [] ~docv:"SCRIPT" ~doc:"Script to run.")

let no_jit = Arg.(value & flag & info [ "no-jit" ] ~doc:"Disable the JIT (interpreter tier only).")

let use_interp =
  Arg.(value & flag & info [ "interp" ] ~doc:"Use the reference tree-walking interpreter.")

let vuln_names =
  Arg.(value & opt_all string [] & info [ "vuln" ] ~docv:"CVE"
         ~doc:"Activate an injected pass bug (repeatable), e.g. CVE-2019-17026.")

let db_path =
  Arg.(value & opt (some non_dir_file) None & info [ "db" ] ~docv:"FILE"
         ~doc:"JITBULL DNA database file (enables the go/no-go policy).")

let verdict_server =
  Arg.(value & opt (some string) None
       & info [ "verdict-server" ] ~docv:"ADDR"
           ~doc:"Ask a running jitbulld daemon for go/no-go verdicts instead \
                 of analyzing against a local DB. $(docv) is a port or \
                 HOST:PORT (loopback only). Compile-time queries are \
                 coalesced into JSONL batches; generation pushes from the \
                 daemon invalidate the local policy cache; if the daemon is \
                 unreachable, verdicts fall back to a synced local replica. \
                 Overrides --db.")

let push_interval =
  Arg.(value & opt (some float) None
       & info [ "push" ] ~docv:"SECONDS"
           ~doc:"With --verdict-server: push a cumulative telemetry snapshot \
                 (audit verdict totals, install-latency p99, the metrics \
                 view) plus the audit-record delta to the daemon's /push \
                 every $(docv) seconds, and once more at exit. The daemon \
                 aggregates pushes into per-client fleet series served at \
                 /fleet.")

let client_id =
  Arg.(value & opt (some string) None
       & info [ "client-id" ] ~docv:"NAME"
           ~doc:"Fleet label this engine reports as: the x-jitbull-client \
                 header on verdict requests and the series label on \
                 telemetry pushes. Defaults to pid-<pid>.")

let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print engine statistics to stderr.")

let ion_threshold =
  Arg.(value & opt int Engine.default_config.Engine.ion_threshold
       & info [ "ion-threshold" ] ~docv:"N" ~doc:"Invocations before Ion compilation.")

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Math.random seed.")

let trace =
  Arg.(value & flag & info [ "trace" ] ~doc:"Log tier-up, bailout and JITBULL policy events.")

let metrics =
  Arg.(value & opt ~vopt:(Some "-") (some string) None
       & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Record telemetry and dump a metrics snapshot at exit: the per-pass \
                 compile profile plus the full registry (Prometheus text, or JSON when \
                 $(docv) ends in .json). Without $(docv), prints to stderr.")

let trace_file =
  Arg.(value & opt (some string) None
       & info [ "trace-file" ] ~docv:"FILE"
           ~doc:"Stream structured engine events (compile spans, per-pass spans, tier-ups, \
                 bailouts, go/no-go verdicts) to $(docv) as JSON lines.")

let audit_file =
  Arg.(value & opt (some string) None
       & info [ "audit-file" ] ~docv:"FILE"
           ~doc:"Stream the go/no-go audit trail — one JSON record per policy \
                 decision, with the matched CVEs, per-pass EqChains scores, \
                 verdict, DB generation and deciding domain — to $(docv) as \
                 JSON lines.")

let audit_rotate_bytes =
  Arg.(value & opt (some int) None
       & info [ "audit-rotate-bytes" ] ~docv:"N"
           ~doc:"With --audit-file: once the sink exceeds $(docv) bytes, \
                 rotate it (the file moves to FILE.1, replacing any previous \
                 FILE.1, and the trail continues in a fresh FILE). Bounds \
                 long-run disk use at roughly twice $(docv).")

let explain =
  Arg.(value & opt ~vopt:(Some "") (some string) None
       & info [ "explain" ] ~docv:"FUNC"
           ~doc:"Capture per-pass IR diffs during compilation and print a \
                 causal go/no-go report per decision at exit: the matched \
                 CVEs, the contributing passes with their EqChains evidence \
                 and matching sub-chains, and the IR transformations that \
                 introduced them. Without $(docv), reports every decision \
                 that matched or restricted JIT; with $(docv), every \
                 decision for that function.")

let explain_capacity =
  Arg.(value & opt int 64
       & info [ "explain-capacity" ] ~docv:"K"
           ~doc:"With --explain: keep the IR diffs of the last $(docv) \
                 compiles (older ones are evicted; their audit records \
                 remain).")

let serve_metrics =
  Arg.(value & opt (some int) None
       & info [ "serve-metrics" ] ~docv:"PORT"
           ~doc:"Serve live observability over HTTP on 127.0.0.1:$(docv) while \
                 the script runs: /metrics (Prometheus text), /healthz \
                 (200/503 against queue-depth, stall, stale-result and \
                 install-latency-p99 thresholds), /audit?n=K (recent \
                 go/no-go decisions as JSON), /explain (recent-decisions \
                 index) and /explain?id=N (single-decision report, HTML or \
                 &format=text). PORT 0 picks a free port (printed to \
                 stderr).")

let serve_hold =
  Arg.(value & opt float 0.0
       & info [ "serve-hold" ] ~docv:"SECONDS"
           ~doc:"With --serve-metrics: keep the HTTP endpoint up for $(docv) \
                 seconds after the script finishes, so external scrapers can \
                 observe the final state.")

let profile =
  Arg.(value & opt ~vopt:(Some "-") (some string) None
       & info [ "profile" ] ~docv:"FILE"
           ~doc:"Sample the process at ~997 Hz CPU time (SIGPROF; \
                 Linux/x86-64 only) and write collapsed-stack lines \
                 (flamegraph.pl / speedscope input) to $(docv) at exit — \
                 native code pages by function, plus VM dispatch, pass \
                 pipeline, comparator and host-call frames. Without \
                 $(docv), prints to stderr. With --serve-metrics, the live \
                 profile is also served at /profile.")

let jobs =
  Arg.(value & opt (some int) None
       & info [ "jobs" ] ~docv:"N"
           ~doc:"Helper domains for background Ion compilation. 0 compiles \
                 synchronously on the main thread. Defaults to the machine's \
                 recommended domain count minus one, capped at 4.")

let native =
  Arg.(value
       & vflag true
           [
             ( true,
               info [ "native" ]
                 ~doc:"Back Ion-tier compiles with generated x86-64 machine \
                       code (the default). Automatically falls back to the \
                       LIR executor on non-x86-64 hosts or when \
                       JITBULL_NO_NATIVE is set." );
             ( false,
               info [ "no-native" ]
                 ~doc:"Run Ion-tier code on the LIR executor instead of \
                       generated machine code." );
           ])

let quiet =
  Arg.(value & flag
       & info [ "quiet"; "q" ] ~doc:"Only log errors (suppresses warnings).")

let verbose =
  Arg.(value & flag_all
       & info [ "v"; "verbose" ]
           ~doc:"Increase log verbosity: -v logs tier-up and policy decisions \
                 (info), -vv everything (debug). Repeatable.")

let cmd =
  let doc = "run a mini-JS script on the JITBULL engine" in
  Cmd.v
    (Cmd.info "jsrun" ~doc)
    Term.(ret (const run $ file $ no_jit $ use_interp $ vuln_names $ db_path
               $ verdict_server $ push_interval $ client_id $ stats
               $ ion_threshold $ seed $ trace $ metrics $ trace_file $ audit_file
               $ audit_rotate_bytes $ explain $ explain_capacity
               $ serve_metrics $ serve_hold $ profile
               $ jobs $ native
               $ quiet $ verbose))

let () = exit (Cmd.eval cmd)
