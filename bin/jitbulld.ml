(* jitbulld — the fleet's DNA-database distributor.

     jitbulld --db jitbull.db                serve an existing database
     jitbulld --builtin                      self-harvest the bundled VDCs' DNA
     jitbulld --port 7433 ...                fixed port (default 0: pick + print)
     jitbulld --workers 8 ...                server domains
     jitbulld --hold 30 ...                  exit after SECONDS (CI smoke)

     jitbulld --audit-file out.jsonl ...     the fleet's decision trail
     jitbulld --audit-rotate-bytes N ...     rotate it after N bytes

   Every engine client keeps a /delta-synced replica of the DB and
   decides go/no-go on it; the daemon distributes the DB and collects
   the fleet's telemetry. Serves GET /subscribe (generation long poll),
   GET /delta (replica catch-up), GET /gen, POST /install, POST /remove,
   POST /push + GET /fleet (fleet telemetry, whose audit deltas feed the
   daemon's own trail) — plus the observability routes (/metrics,
   /healthz, /audit, /explain, /profile) from the same listener. *)

open Cmdliner
module Db = Jitbull_core.Db
module VC = Jitbull_passes.Vuln_config
module V = Jitbull_vdc.Demonstrators
module Obs = Jitbull_obs.Obs
module Service = Jitbull_service.Service

let setup_logging ~quiet ~verbose =
  Logs.set_reporter (Logs.format_reporter ());
  let level =
    if quiet then Logs.Error
    else if verbose >= 2 then Logs.Debug
    else if verbose = 1 then Logs.Info
    else Logs.Warning
  in
  Logs.set_level (Some level)

(* Without --db, self-harvest: run every bundled demonstrator with its
   pass bug active and install the harvested DNA. A freshly started
   daemon is then immediately useful (and CI needs no fixture file). *)
let harvested_db () =
  let db = Db.create () in
  List.iter
    (fun ((d : V.t), n) ->
      Logs.info (fun m -> m "harvested %d DNA vector(s) for %s" n d.V.name))
    (V.harvest db VC.all);
  db

let run port workers db_path builtin hold audit_file
    audit_rotate_bytes quiet verbose =
  setup_logging ~quiet ~verbose:(List.length verbose);
  (* Long-lived server: a larger minor heap keeps per-request body
     allocation from forcing frequent stop-the-world minor collections
     across the worker domains. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 4 * 1024 * 1024 };
  let db =
    match (db_path, builtin) with
    | Some path, _ -> Db.load path
    | None, true -> harvested_db ()
    | None, false ->
      failwith "no database: pass --db FILE or --builtin to self-harvest"
  in
  let obs = Obs.create () in
  (match audit_file with
  | Some path -> Obs.set_audit_file obs ?max_bytes:audit_rotate_bytes path
  | None -> ());
  let t = Service.create ~workers ~obs ~db ~port () in
  (* CI smoke parses this line to find the port; keep the format stable *)
  Printf.printf "jitbulld listening on 127.0.0.1:%d (%d entries, %d workers)\n%!"
    (Service.port t) (Db.size db) workers;
  let finish () =
    Service.stop t;
    Obs.close (Some obs)
  in
  Fun.protect ~finally:finish (fun () ->
      if hold > 0.0 then Unix.sleepf hold
      else
        (* serve until killed *)
        while true do
          Unix.sleepf 3600.0
        done);
  `Ok ()

let port =
  Arg.(value & opt int 0
       & info [ "port"; "p" ] ~docv:"PORT"
           ~doc:"Listen on 127.0.0.1:$(docv). 0 picks a free port (printed \
                 on stdout).")

let workers =
  Arg.(value & opt int 4
       & info [ "workers" ] ~docv:"N"
           ~doc:"Accept/serve domains sharing the listening socket. Each \
                 long-poll subscriber occupies one for the duration of its \
                 wait; size to cores + expected subscribers.")

let db_path =
  Arg.(value & opt (some non_dir_file) None
       & info [ "db" ] ~docv:"FILE" ~doc:"DNA database to serve.")

let builtin =
  Arg.(value & flag
       & info [ "builtin" ]
           ~doc:"Without --db: self-harvest the bundled vulnerability \
                 demonstrators' DNA at startup and serve that.")

let hold =
  Arg.(value & opt float 0.0
       & info [ "hold" ] ~docv:"SECONDS"
           ~doc:"Exit cleanly after $(docv) seconds (CI smoke jobs). \
                 Default 0: serve until killed.")

let audit_file =
  Arg.(value & opt (some string) None
       & info [ "audit-file" ] ~docv:"FILE"
           ~doc:"Stream the fleet's go/no-go audit trail (one JSON record \
                 per decision an engine client pushed to /push, stamped with \
                 that client's id) to $(docv) as JSON lines.")

let audit_rotate_bytes =
  Arg.(value & opt (some int) None
       & info [ "audit-rotate-bytes" ] ~docv:"N"
           ~doc:"With --audit-file: rotate the sink to FILE.1 once it \
                 exceeds $(docv) bytes (bounds disk use at roughly twice \
                 $(docv)).")

let quiet =
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Only log errors.")

let verbose =
  Arg.(value & flag_all
       & info [ "v"; "verbose" ] ~doc:"Increase log verbosity. Repeatable.")

let cmd =
  let doc = "distribute a DNA database to a fleet of engines and collect their telemetry" in
  Cmd.v
    (Cmd.info "jitbulld" ~doc)
    Term.(ret (const run $ port $ workers $ db_path $ builtin $ hold
               $ audit_file $ audit_rotate_bytes
               $ quiet $ verbose))

let () = exit (Cmd.eval cmd)
