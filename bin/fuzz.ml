(* jitbull-fuzz — differential fuzzing and the §IV-A fuzzer-to-database
   pipeline.

     jitbull-fuzz --count 100                        benign differential run
     jitbull-fuzz --aggressive --vuln all --count 50
     jitbull-fuzz --guided --count 450               benign guided campaign
     jitbull-fuzz --aggressive --vuln all --corpus corpus/ --time-budget 60
                                                     coverage-guided campaign
     jitbull-fuzz --aggressive --vuln all --auto-db out.db --minimize
                                                     harvest + shrink findings
     jitbull-fuzz --master --port 9300 --corpus c/   corpus-sync master
     jitbull-fuzz --worker w1 --connect 9300         one sync worker
     jitbull-fuzz --workers 2 --vuln all             in-process 2-worker fleet
     jitbull-fuzz --corpus c/ --distill distilled/   coverage-preserving subset

   Guided campaigns (--guided, --corpus, sync workers) run their seed
   programs as-is and mutate only at the typed-IL level: every mutant is
   an Il_mutate offspring of an IL-carrying corpus entry or an IL seed,
   and the "yield:" line reports how many of them ran clean.

   Exit status is nonzero whenever the campaign ends with un-harvested
   signals: any signal at all without --auto-db, or a signal the freshly
   harvested database fails to neutralize with it — so CI can gate on the
   binary directly. *)

open Cmdliner
module F = Jitbull_fuzz
module VC = Jitbull_passes.Vuln_config
module Engine = Jitbull_jit.Engine
module Db = Jitbull_core.Db
module Jitbull = Jitbull_core.Jitbull

let parse_vulns vuln_names =
  if List.mem "all" vuln_names then VC.make VC.all
  else
    VC.make
      (List.map
         (fun name ->
           match VC.cve_of_name name with
           | Some cve -> cve
           | None -> failwith ("unknown CVE " ^ name))
         vuln_names)

let fast cfg = { cfg with Engine.baseline_threshold = 2; Engine.ion_threshold = 4 }

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc contents)

let print_yield (y : F.Harness.yield) =
  Printf.printf "yield: il %d/%d (%.1f%%)\n" y.F.Harness.y_valid y.F.Harness.y_mutants
    (100. *. F.Harness.yield_ratio y)

(* --distill: minimize the persisted corpus to a coverage-preserving
   subset and commit it (MANIFEST + renumbered entries) to OUT. *)
let run_distill config corpus_dir out =
  match corpus_dir with
  | None -> `Error (false, "--distill requires --corpus DIR (the corpus to minimize)")
  | Some dir ->
    let corpus = F.Corpus.create ~dir () in
    let d = F.Sync.distill ~config (F.Corpus.entries corpus) in
    F.Sync.write_distilled ~dir:out d;
    Printf.printf "distilled %d -> %d entries, %d features preserved -> %s\n"
      d.F.Sync.d_total
      (List.length d.F.Sync.d_entries)
      d.F.Sync.d_features out;
    `Ok ()

(* --master: serve the corpus-sync endpoints until killed (or for
   --serve-seconds, which CI uses). *)
let run_master config corpus_dir port serve_seconds =
  let m = F.Sync.Master.start ~config ?corpus_dir ~port () in
  Printf.printf "master on 127.0.0.1:%d (corpus: %s)\n%!" (F.Sync.Master.port m)
    (match corpus_dir with Some d -> d | None -> "in-memory");
  (match serve_seconds with
  | Some s -> Unix.sleepf s
  | None ->
    let forever = Mutex.create () in
    let never = Condition.create () in
    Mutex.lock forever;
    while true do
      Condition.wait never forever
    done);
  Printf.printf "master: coverage %d, corpus %d, syncs %d\n"
    (F.Sync.Master.coverage_count m)
    (F.Sync.Master.corpus_size m) (F.Sync.Master.syncs m);
  F.Sync.Master.stop m;
  `Ok ()

let print_worker id (r : F.Sync.Worker.result) =
  Printf.printf
    "worker %s: %d rounds, %d execs, coverage %d, corpus %d, uploaded %d, imported %d, signals %d\n"
    id r.F.Sync.Worker.w_rounds r.w_execs r.w_coverage r.w_corpus_size r.w_uploaded
    r.w_imported (List.length r.w_signals);
  print_yield r.w_yield;
  match r.w_cve_execs with
  | [] -> ()
  | l ->
    Printf.printf "  attributed: %s\n"
      (String.concat ", "
         (List.map (fun (c, e) -> Printf.sprintf "%s@%d" (VC.cve_name c) e) l))

let run count seed0 aggressive vuln_names auto_db verbose corpus_dir guided minimize
    time_budget master worker connect port rounds serve_seconds workers
    distill_out =
  let vulns = parse_vulns vuln_names in
  let config = fast { Engine.default_config with Engine.vulns } in
  match (distill_out, master, worker) with
  | Some out, _, _ -> run_distill config corpus_dir out
  | None, true, _ -> run_master config corpus_dir port serve_seconds
  | None, false, Some id ->
    let r =
      F.Sync.Worker.run ~config ~rounds ~execs_per_round:count
        ~rng_seed:seed0 ~id ~port:connect ()
    in
    print_worker id r;
    if r.F.Sync.Worker.w_signals = [] then `Ok ()
    else
      `Error
        ( false,
          Printf.sprintf "%d signal%s"
            (List.length r.F.Sync.Worker.w_signals)
            (if List.length r.F.Sync.Worker.w_signals = 1 then "" else "s") )
  | None, false, None when workers > 0 ->
    (* in-process topology: one master + N worker threads *)
    let m = F.Sync.Master.start ~config ?corpus_dir ~port () in
    let results = Array.make workers None in
    let threads =
      List.init workers (fun i ->
          Thread.create
            (fun i ->
              let id = Printf.sprintf "w%d" (i + 1) in
              results.(i) <-
                Some
                  ( id,
                    F.Sync.Worker.run ~config ~rounds ~execs_per_round:count
                      ~rng_seed:(seed0 + i) ~id ~port:(F.Sync.Master.port m) () ))
            i)
    in
    List.iter Thread.join threads;
    let signals = ref [] in
    Array.iter
      (function
        | None -> ()
        | Some (id, r) ->
          print_worker id r;
          signals := !signals @ r.F.Sync.Worker.w_signals)
      results;
    Printf.printf "master: coverage %d, corpus %d, syncs %d\n"
      (F.Sync.Master.coverage_count m)
      (F.Sync.Master.corpus_size m) (F.Sync.Master.syncs m);
    F.Sync.Master.stop m;
    if !signals = [] then `Ok ()
    else
      `Error
        ( false,
          Printf.sprintf "%d signal%s" (List.length !signals)
            (if List.length !signals = 1 then "" else "s") )
  | None, false, None ->
  let use_guided = guided || corpus_dir <> None in
  let signals =
    if use_guided then begin
      let corpus = F.Corpus.create ?dir:corpus_dir () in
      let seed_sources =
        if aggressive then F.Harness.default_seed_sources ()
        else List.init 8 (fun i -> F.Generator.benign ~seed:(seed0 + i))
      in
      let g =
        F.Harness.guided_campaign ~config ~corpus ~rng_seed:seed0 ?time_budget
          ~seed_sources ~max_execs:count ()
      in
      Printf.printf
        "execs: %d  coverage: %d features  corpus: %d entries  signals: %d  (%.1f execs/s)\n"
        g.F.Harness.g_execs g.F.Harness.g_coverage g.F.Harness.g_corpus_size
        (List.length g.F.Harness.g_signals)
        (float_of_int g.F.Harness.g_execs /. Float.max 1e-9 g.F.Harness.g_seconds);
      print_yield g.F.Harness.g_yield;
      g.F.Harness.g_signals
    end
    else begin
      let profile = if aggressive then `Aggressive else `Benign in
      let seeds = List.init count (fun i -> seed0 + i) in
      let report = F.Harness.campaign ~profile ~seeds ~config () in
      Printf.printf "programs: %d  agree: %d  signals: %d\n" report.F.Harness.total
        report.F.Harness.agreements
        (List.length report.F.Harness.signals);
      report.F.Harness.signals
    end
  in
  List.iter
    (fun (f : F.Harness.finding) ->
      Printf.printf "  %s %-6d %s\n"
        (if use_guided then "exec" else "seed")
        f.F.Harness.seed
        (F.Oracle.verdict_summary f.F.Harness.verdict);
      if verbose then print_string f.F.Harness.source)
    signals;
  let shrink_errors = ref 0 in
  if minimize && signals <> [] then begin
    let crash_dir =
      match corpus_dir with
      | Some d ->
        let dir = Filename.concat d "crashes" in
        if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
        Some dir
      | None -> None
    in
    List.iter
      (fun (f : F.Harness.finding) ->
        let small =
          F.Shrink.shrink_signal ~config ~seed:seed0 ~errors:shrink_errors
            ~verdict:f.F.Harness.verdict f.F.Harness.source
        in
        Printf.printf "  minimized %d: %d -> %d bytes\n" f.F.Harness.seed
          (String.length f.F.Harness.source)
          (String.length small);
        match crash_dir with
        | Some dir -> write_file (Filename.concat dir (Printf.sprintf "min-%06d.js" f.F.Harness.seed)) small
        | None -> if verbose then print_string small)
      signals;
    if !shrink_errors > 0 then
      Printf.eprintf "warning: %d predicate crash%s during shrinking\n"
        !shrink_errors
        (if !shrink_errors = 1 then "" else "es")
  end;
  let unharvested =
    match auto_db with
    | Some path when signals <> [] ->
      let db = if Sys.file_exists path then Db.load path else Db.create () in
      let n = F.Harness.auto_harvest ~vulns ~db signals in
      Db.save db path;
      Printf.printf "auto-harvested %d DNA entries into %s\n" n path;
      (* does the fuzz-fed database actually neutralize what was found? *)
      let protected_cfg = fast (Jitbull.config ~vulns db) in
      F.Harness.unharvested ~config:protected_cfg signals
    | Some path ->
      Printf.printf "no signals; %s unchanged\n" path;
      []
    | None -> signals
  in
  match (unharvested, !shrink_errors) with
  | [], 0 -> `Ok ()
  | [], n ->
    (* the shrinker's oracle predicate crashed: the minimized
       reproducers are untrustworthy — fail the run even though every
       signal was harvested *)
    `Error
      (false, Printf.sprintf "%d predicate crash%s during shrinking" n
                (if n = 1 then "" else "es"))
  | fs, _ ->
    `Error
      ( false,
        Printf.sprintf "%d un-harvested signal%s" (List.length fs)
          (if List.length fs = 1 then "" else "s") )

let count =
  Arg.(value & opt int 50 & info [ "count" ] ~docv:"N" ~doc:"Programs to execute.")
let seed0 = Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc:"First seed.")
let aggressive =
  Arg.(value & flag & info [ "aggressive" ] ~doc:"Generate exploit-shaped programs.")
let vuln_names =
  Arg.(value & opt_all string [] & info [ "vuln" ] ~docv:"CVE"
       ~doc:"Activate pass bugs ($(b,all) = every modeled CVE).")
let auto_db =
  Arg.(value & opt (some string) None & info [ "auto-db" ] ~docv:"FILE"
       ~doc:"Harvest DNA of every finding into this database (paper §IV-A).")
let verbose = Arg.(value & flag & info [ "verbose" ] ~doc:"Print finding sources.")
let corpus_dir =
  Arg.(value & opt (some string) None & info [ "corpus" ] ~docv:"DIR"
       ~doc:"Coverage-guided mode, corpus persisted to (and reloaded from) $(docv).")
let guided =
  Arg.(value & flag & info [ "guided" ]
       ~doc:"Coverage-guided mode without persistence (implied by $(b,--corpus)).")
let minimize =
  Arg.(value & flag & info [ "minimize" ]
       ~doc:"Delta-debug each finding to a small reproducer (saved under \
             CORPUS/crashes/ when a corpus directory is set).")
let time_budget =
  Arg.(value & opt (some float) None & info [ "time-budget" ] ~docv:"S"
       ~doc:"Stop the guided campaign after $(docv) seconds.")
let master =
  Arg.(value & flag & info [ "master" ]
       ~doc:"Serve the corpus-sync master ($(b,/fuzz/*), $(b,/push), $(b,/fleet)) \
             on $(b,--port).")
let worker =
  Arg.(value & opt (some string) None & info [ "worker" ] ~docv:"ID"
       ~doc:"Run one sync worker against the master at $(b,--connect).")
let connect =
  Arg.(value & opt int 9300 & info [ "connect" ] ~docv:"PORT"
       ~doc:"Master port a $(b,--worker) dials.")
let port =
  Arg.(value & opt int 0 & info [ "port" ] ~docv:"PORT"
       ~doc:"Master listen port (0 picks a free one).")
let rounds =
  Arg.(value & opt int 2 & info [ "rounds" ] ~docv:"N"
       ~doc:"Sync rounds per worker (each runs $(b,--count) executions).")
let serve_seconds =
  Arg.(value & opt (some float) None & info [ "serve-seconds" ] ~docv:"S"
       ~doc:"Stop a $(b,--master) after $(docv) seconds (default: run until killed).")
let workers =
  Arg.(value & opt int 0 & info [ "workers" ] ~docv:"N"
       ~doc:"In-process topology: one master plus $(docv) worker threads.")
let distill_out =
  Arg.(value & opt (some string) None & info [ "distill" ] ~docv:"DIR"
       ~doc:"Minimize the $(b,--corpus) directory to a coverage-preserving \
             subset written to $(docv) (MANIFEST + renumbered entries).")

let cmd =
  Cmd.v
    (Cmd.info "jitbull-fuzz" ~doc:"differential fuzzing with auto-harvest into JITBULL")
    Term.(
      ret
        (const run $ count $ seed0 $ aggressive $ vuln_names $ auto_db $ verbose
       $ corpus_dir $ guided $ minimize $ time_budget $ master $ worker
       $ connect $ port $ rounds $ serve_seconds $ workers $ distill_out))

let () = exit (Cmd.eval cmd)
