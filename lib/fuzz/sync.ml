module Engine = Jitbull_jit.Engine
module Http = Jitbull_obs.Http_export
module Jsonx = Jitbull_obs.Jsonx
module Fleet = Jitbull_obs.Fleet
module Obs = Jitbull_obs.Obs
module Metrics = Jitbull_obs.Metrics
module Audit = Jitbull_obs.Audit
module Prng = Jitbull_util.Prng
module VC = Jitbull_passes.Vuln_config

let json body = Http.respond ~content_type:"application/json" body

let json_error status msg =
  Http.respond ~status ~content_type:"application/json"
    (Jsonx.to_string (Jsonx.Assoc [ ("error", Jsonx.String msg) ]))

let digest s = Digest.to_hex (Digest.string s)

let entry_to_json (e : Corpus.entry) =
  Jsonx.Assoc
    [
      ("id", Jsonx.Int e.Corpus.id);
      ("gain", Jsonx.Int e.Corpus.gain);
      ("source", Jsonx.String e.Corpus.source);
      ("il", match e.Corpus.il with None -> Jsonx.Null | Some t -> Jsonx.String t);
    ]

let features_to_json fs = Jsonx.List (List.map (fun f -> Jsonx.Int f) fs)

let features_of_json j = List.map Jsonx.to_int (Jsonx.to_list_exn j)

(* Features an input contributes, recomputed deterministically from an
   instrumented replay — what both admission and distillation score. *)
let features_of_source ~config source =
  Coverage.features_of_run (Oracle.run_instrumented ~config source)

(* ------------------------------------------------------------------ *)
(* Master                                                             *)
(* ------------------------------------------------------------------ *)

module Master = struct
  type lease = {
    mutable l_worker : string;
    l_lo : int;
    l_hi : int;
    mutable l_issued : float;
  }

  type t = {
    server : Http.Server.t;
    mu : Mutex.t;
    coverage : Coverage.t;
    corpus : Corpus.t;
    known : (string, unit) Hashtbl.t;  (* source digests already admitted *)
    mutable next_seed : int;
    mutable leases : lease list;  (* outstanding, oldest first *)
    chunk : int;
    lease_timeout : float;
    fleet : Fleet.t;
    mutable syncs : int;
  }

  let locked t f =
    Mutex.lock t.mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

  (* ---- GET /fuzz/work: lease a seed range (work stealing) ---- *)

  let work_response t query =
    let worker = Option.value ~default:"anonymous" (List.assoc_opt "worker" query) in
    match Http.parse_count "n" query ~default:t.chunk with
    | Error msg -> Http.bad_request msg
    | Ok n ->
      let n = max 1 n in
      let lo, hi, stolen =
        locked t (fun () ->
            let now = Unix.gettimeofday () in
            match
              List.find_opt (fun l -> now -. l.l_issued > t.lease_timeout) t.leases
            with
            | Some l ->
              (* expired: some worker leased it and never reported done —
                 steal the range instead of leaving a seed hole *)
              l.l_worker <- worker;
              l.l_issued <- now;
              (l.l_lo, l.l_hi, true)
            | None ->
              let lo = t.next_seed in
              let hi = lo + n in
              t.next_seed <- hi;
              t.leases <-
                t.leases @ [ { l_worker = worker; l_lo = lo; l_hi = hi; l_issued = now } ];
              (lo, hi, false))
      in
      json
        (Jsonx.to_string
           (Jsonx.Assoc
              [ ("lo", Jsonx.Int lo); ("hi", Jsonx.Int hi); ("stolen", Jsonx.Bool stolen) ]))

  (* ---- POST /fuzz/done: release a lease ---- *)

  let done_response t body =
    match Jsonx.parse body with
    | exception Jsonx.Parse_error msg -> json_error 400 ("bad body: " ^ msg)
    | j ->
      let lo = Jsonx.to_int (Jsonx.member "lo" j) in
      let hi = Jsonx.to_int (Jsonx.member "hi" j) in
      locked t (fun () ->
          t.leases <- List.filter (fun l -> not (l.l_lo = lo && l.l_hi = hi)) t.leases);
      json {|{"ok":true}|}

  (* ---- POST /fuzz/coverage: two-way union merge ---- *)

  let coverage_response t body =
    match Jsonx.parse body with
    | exception Jsonx.Parse_error msg -> json_error 400 ("bad body: " ^ msg)
    | j ->
      let sent = features_of_json (Jsonx.member "features" j) in
      let fresh, missing, total =
        locked t (fun () ->
            let fresh = Coverage.add_features t.coverage sent in
            let have = Hashtbl.create (List.length sent) in
            List.iter (fun f -> Hashtbl.replace have f ()) sent;
            let missing =
              List.filter (fun f -> not (Hashtbl.mem have f)) (Coverage.features t.coverage)
            in
            t.syncs <- t.syncs + 1;
            (fresh, missing, Coverage.count t.coverage))
      in
      json
        (Jsonx.to_string
           (Jsonx.Assoc
              [
                ("new", Jsonx.Int fresh);
                ("total", Jsonx.Int total);
                ("missing", features_to_json missing);
              ]))

  (* ---- POST /fuzz/interesting: deduplicated input upload ---- *)

  let interesting_response t body =
    match Jsonx.parse body with
    | exception Jsonx.Parse_error msg -> json_error 400 ("bad body: " ^ msg)
    | j -> (
      match Jsonx.member "source" j with
      | Jsonx.String source when source <> "" ->
        (* the sidecar becomes every worker's mutation input: keep it only
           when it is a well-typed program that lowers to exactly [source] *)
        let il =
          match Jsonx.member "il" j with
          | Jsonx.String text -> (
            match Il.parse text with
            | Ok p when Il.to_source p = source -> Some text
            | _ -> None)
          | _ -> None
        in
        let gain =
          match Jsonx.member "gain" j with Jsonx.Int g -> max 1 g | _ -> 1
        in
        let admitted, id =
          locked t (fun () ->
              let d = digest source in
              if Hashtbl.mem t.known d then (false, -1)
              else begin
                Hashtbl.replace t.known d ();
                let e = Corpus.add t.corpus ?il ~gain source in
                (true, e.Corpus.id)
              end)
        in
        json
          (Jsonx.to_string
             (Jsonx.Assoc [ ("admitted", Jsonx.Bool admitted); ("id", Jsonx.Int id) ]))
      | _ -> json_error 400 "source: required")

  (* ---- GET /fuzz/corpus?since=N: corpus broadcast ---- *)

  let corpus_response t query =
    match Http.parse_count ~max_value:max_int "since" query ~default:0 with
    | Error msg -> Http.bad_request msg
    | Ok since ->
      let entries, next =
        locked t (fun () ->
            let es =
              List.filter (fun e -> e.Corpus.id >= since) (Corpus.entries t.corpus)
            in
            let next =
              List.fold_left (fun acc e -> max acc (e.Corpus.id + 1)) since es
            in
            (es, next))
      in
      json
        (Jsonx.to_string
           (Jsonx.Assoc
              [
                ("entries", Jsonx.List (List.map entry_to_json entries));
                ("next", Jsonx.Int next);
              ]))

  (* ---- GET /fuzz/stats ---- *)

  let stats_response t =
    let body =
      locked t (fun () ->
          Jsonx.to_string
            (Jsonx.Assoc
               [
                 ("coverage", Jsonx.Int (Coverage.count t.coverage));
                 ("corpus", Jsonx.Int (Corpus.length t.corpus));
                 ("next_seed", Jsonx.Int t.next_seed);
                 ("leases", Jsonx.Int (List.length t.leases));
                 ("syncs", Jsonx.Int t.syncs);
                 ( "workers",
                   Jsonx.List (List.map (fun c -> Jsonx.String c) (Fleet.clients t.fleet))
                 );
               ]))
    in
    json body

  let handle t (req : Http.request) =
    match (req.Http.rq_path, req.Http.rq_meth) with
    | "/fuzz/work", "GET" -> work_response t req.Http.rq_query
    | "/fuzz/done", "POST" -> done_response t req.Http.rq_body
    | "/fuzz/coverage", "POST" -> coverage_response t req.Http.rq_body
    | "/fuzz/interesting", "POST" -> interesting_response t req.Http.rq_body
    | "/fuzz/corpus", "GET" -> corpus_response t req.Http.rq_query
    | "/fuzz/stats", "GET" -> stats_response t
    | "/push", "POST" -> fst (Fleet.push_response t.fleet req.Http.rq_body)
    | "/push", _ -> json_error 405 "POST required"
    | "/fleet", _ -> Fleet.fleet_response t.fleet req.Http.rq_query
    | ("/fuzz/work" | "/fuzz/corpus" | "/fuzz/stats"), _ -> json_error 405 "GET required"
    | ("/fuzz/done" | "/fuzz/coverage" | "/fuzz/interesting"), _ ->
      json_error 405 "POST required"
    | _ -> Http.not_found ()

  let start ?(config = Oracle.default_config) ?corpus_dir ?(chunk = 64)
      ?(lease_timeout = 30.) ~port () =
    let corpus = Corpus.create ?dir:corpus_dir () in
    let coverage = Coverage.create () in
    let known = Hashtbl.create 256 in
    (* a restarted master replays its persisted corpus so the coverage
       map (and dedup set) match what the entries actually cover *)
    List.iter
      (fun (e : Corpus.entry) ->
        Hashtbl.replace known (digest e.Corpus.source) ();
        ignore (Coverage.add_features coverage (features_of_source ~config e.Corpus.source)))
      (Corpus.entries corpus);
    let rec t =
      lazy
        {
          server =
            Http.Server.start ~handler:(fun req -> handle (Lazy.force t) req) ~port ();
          mu = Mutex.create ();
          coverage;
          corpus;
          known;
          next_seed = 0;
          leases = [];
          chunk;
          lease_timeout;
          fleet = Fleet.create ();
          syncs = 0;
        }
    in
    Lazy.force t

  let port t = Http.Server.port t.server
  let coverage_count t = locked t (fun () -> Coverage.count t.coverage)
  let corpus_size t = locked t (fun () -> Corpus.length t.corpus)
  let corpus_entries t = locked t (fun () -> Corpus.entries t.corpus)
  let syncs t = locked t (fun () -> t.syncs)
  let stop t = Http.Server.stop t.server
end

(* ------------------------------------------------------------------ *)
(* Worker                                                             *)
(* ------------------------------------------------------------------ *)

module Worker = struct
  type result = {
    w_rounds : int;
    w_execs : int;
    w_signals : Harness.finding list;
    w_coverage : int;
    w_corpus_size : int;
    w_uploaded : int;
    w_imported : int;
    w_yield : Harness.yield;
    w_cve_execs : (VC.cve * int) list;
  }

  let get conn path =
    let status, _, body = Http.Conn.request conn path in
    if status <> 200 then failwith (Printf.sprintf "GET %s: %d" path status);
    Jsonx.parse body

  let post conn path payload =
    let status, _, body =
      Http.Conn.request conn ~meth:"POST" ~body:(Jsonx.to_string payload) path
    in
    if status <> 200 then failwith (Printf.sprintf "POST %s: %d" path status);
    Jsonx.parse body

  let empty_totals =
    { Audit.tt_records = 0; tt_allow = 0; tt_disable = 0; tt_forbid = 0; tt_cache_hits = 0 }

  let run ?(config = Oracle.default_config) ?(rounds = 2)
      ?(execs_per_round = 200) ?rng_seed ?(track_cves = false) ~id ~port () =
    let conn = Http.Conn.connect ~port () in
    Fun.protect
      ~finally:(fun () -> Http.Conn.close conn)
      (fun () ->
        let obs = Obs.create ~capacity:64 ~audit_capacity:8 () in
        (* the campaign maintains fuzz.il_mutants / fuzz.valid_ratio on
           the config's obs handle; pointing it at the worker's own
           registry puts them in every fleet push *)
        let config = { config with Engine.obs = Some obs } in
        (* local campaign state persists across rounds *)
        let coverage = Coverage.create () in
        let corpus = Corpus.create () in
        let known = Hashtbl.create 64 in
        let rng_seed =
          match rng_seed with Some s -> s | None -> Hashtbl.hash id land 0xffff
        in
        let execs = ref 0 in
        let signals = ref [] in
        let uploaded = ref 0 in
        let imported = ref 0 in
        let yield = ref { Harness.y_mutants = 0; y_valid = 0 } in
        let cve_execs = ref [] in
        let since = ref 0 in
        for round = 0 to rounds - 1 do
          (* 1. lease a seed range *)
          let w = get conn ("/fuzz/work?worker=" ^ id) in
          let lo = Jsonx.to_int (Jsonx.member "lo" w) in
          let hi = Jsonx.to_int (Jsonx.member "hi" w) in
          (* 2. local campaign over the leased generator range; the first
             round also seeds the known-exploit demonstrators, the same
             seed corpus a local guided campaign starts from *)
          let seed_sources =
            let range = List.init (hi - lo) (fun i -> Generator.aggressive ~seed:(lo + i)) in
            if round = 0 then Harness.vdc_seed_sources () @ range else range
          in
          let before = Corpus.length corpus in
          let g =
            Harness.guided_campaign ~config ~corpus ~coverage ~track_cves
              ~rng_seed:(rng_seed + round) ~seed_sources ~max_execs:execs_per_round ()
          in
          let execs_before = !execs in
          execs := !execs + g.Harness.g_execs;
          signals := !signals @ g.Harness.g_signals;
          (* attribution restarts per round; keep only first sighting of
             each CVE, exec counts made cumulative across rounds *)
          List.iter
            (fun (cve, e) ->
              if not (List.mem_assoc cve !cve_execs) then
                cve_execs := !cve_execs @ [ (cve, execs_before + e) ])
            g.Harness.g_cve_execs;
          yield :=
            {
              Harness.y_mutants = !yield.Harness.y_mutants + g.Harness.g_yield.Harness.y_mutants;
              y_valid = !yield.Harness.y_valid + g.Harness.g_yield.Harness.y_valid;
            };
          Obs.add (Some obs) "fuzz.execs" g.Harness.g_execs;
          Obs.set_gauge (Some obs) "fuzz.coverage" (float_of_int (Coverage.count coverage));
          (* 3. upload what this round found *)
          let fresh =
            let all = Corpus.entries corpus in
            List.filteri (fun i _ -> i >= before) all
          in
          List.iter
            (fun (e : Corpus.entry) ->
              let d = digest e.Corpus.source in
              if not (Hashtbl.mem known d) then begin
                Hashtbl.replace known d ();
                let payload =
                  Jsonx.Assoc
                    [
                      ("worker", Jsonx.String id);
                      ("source", Jsonx.String e.Corpus.source);
                      ( "il",
                        match e.Corpus.il with
                        | None -> Jsonx.Null
                        | Some t -> Jsonx.String t );
                      ("gain", Jsonx.Int e.Corpus.gain);
                    ]
                in
                let r = post conn "/fuzz/interesting" payload in
                match Jsonx.member "admitted" r with
                | Jsonx.Bool true -> incr uploaded
                | _ -> ()
              end)
            fresh;
          (* 4. two-way coverage union *)
          let r =
            post conn "/fuzz/coverage"
              (Jsonx.Assoc
                 [
                   ("worker", Jsonx.String id);
                   ("features", features_to_json (Coverage.features coverage));
                 ])
          in
          ignore (Coverage.add_features coverage (features_of_json (Jsonx.member "missing" r)));
          Obs.incr (Some obs) "fuzz.corpus_syncs";
          (* 5. corpus broadcast: import entries other workers found *)
          let b = get conn (Printf.sprintf "/fuzz/corpus?since=%d" !since) in
          since := Jsonx.to_int (Jsonx.member "next" b);
          List.iter
            (fun ej ->
              match Jsonx.member "source" ej with
              | Jsonx.String source ->
                let d = digest source in
                if not (Hashtbl.mem known d) then begin
                  Hashtbl.replace known d ();
                  let il =
                    match Jsonx.member "il" ej with Jsonx.String s -> Some s | _ -> None
                  in
                  let gain =
                    match Jsonx.member "gain" ej with Jsonx.Int g -> max 1 g | _ -> 1
                  in
                  ignore (Corpus.add corpus ?il ~gain source);
                  incr imported
                end
              | _ -> ())
            (Jsonx.to_list_exn (Jsonx.member "entries" b));
          (* 6. fleet push: per-worker series on the master's /fleet *)
          let snapshot =
            {
              Fleet.sn_client = id;
              sn_ts = Obs.now (Some obs);
              sn_totals = empty_totals;
              sn_metrics = Metrics.view_to_json (Obs.view (Some obs));
            }
          in
          ignore
            (Http.Conn.request conn ~meth:"POST" ~body:(Fleet.encode_push snapshot [])
               "/push");
          (* 7. release the lease *)
          ignore
            (post conn "/fuzz/done"
               (Jsonx.Assoc
                  [
                    ("worker", Jsonx.String id);
                    ("lo", Jsonx.Int lo);
                    ("hi", Jsonx.Int hi);
                  ]))
        done;
        {
          w_rounds = rounds;
          w_execs = !execs;
          w_signals = !signals;
          w_coverage = Coverage.count coverage;
          w_corpus_size = Corpus.length corpus;
          w_uploaded = !uploaded;
          w_imported = !imported;
          w_yield = !yield;
          w_cve_execs = !cve_execs;
        })
end

(* ------------------------------------------------------------------ *)
(* Distillation                                                       *)
(* ------------------------------------------------------------------ *)

type distilled = {
  d_entries : Corpus.entry list;
  d_covers : int list;
  d_features : int;
  d_total : int;
}

let distill ?(config = Oracle.default_config) entries =
  let scored =
    List.map (fun (e : Corpus.entry) -> (e, features_of_source ~config e.Corpus.source)) entries
  in
  let all = Coverage.create () in
  List.iter (fun (_, fs) -> ignore (Coverage.add_features all fs)) scored;
  let covered = Coverage.create () in
  let kept = ref [] in
  let covers = ref [] in
  let remaining = ref scored in
  let continue = ref true in
  while !continue do
    let best =
      List.fold_left
        (fun best (e, fs) ->
          let fresh = List.length (List.filter (fun f -> not (Coverage.seen covered f)) fs) in
          match best with
          | Some (_, _, best_fresh) when best_fresh >= fresh -> best
          | _ when fresh > 0 -> Some (e, fs, fresh)
          | _ -> best)
        None !remaining
    in
    match best with
    | None -> continue := false
    | Some ((e : Corpus.entry), fs, fresh) ->
      ignore (Coverage.add_features covered fs);
      kept := e :: !kept;
      covers := fresh :: !covers;
      remaining := List.filter (fun ((r : Corpus.entry), _) -> r.Corpus.id <> e.Corpus.id) !remaining
  done;
  {
    d_entries = List.rev !kept;
    d_covers = List.rev !covers;
    d_features = Coverage.count all;
    d_total = List.length entries;
  }

let manifest_version = "jitbull distilled corpus v1"

let manifest d =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (manifest_version ^ "\n");
  Buffer.add_string buf (Printf.sprintf "entries %d\n" (List.length d.d_entries));
  Buffer.add_string buf (Printf.sprintf "features %d\n" d.d_features);
  Buffer.add_string buf (Printf.sprintf "of %d\n" d.d_total);
  List.iteri
    (fun ord ((e : Corpus.entry), cover) ->
      Buffer.add_string buf
        (Printf.sprintf "entry %06d cover %d md5 %s %s\n" ord cover
           (digest e.Corpus.source)
           (match e.Corpus.il with Some _ -> "il" | None -> "js")))
    (List.combine d.d_entries d.d_covers);
  Buffer.contents buf

let rec mkdir_p path =
  if path <> "" && path <> "/" && path <> "." && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc contents)

let write_distilled ~dir d =
  mkdir_p dir;
  List.iteri
    (fun ord (e : Corpus.entry) ->
      write_file (Filename.concat dir (Printf.sprintf "%06d.js" ord)) e.Corpus.source;
      match e.Corpus.il with
      | None -> ()
      | Some t -> write_file (Filename.concat dir (Printf.sprintf "%06d.il" ord)) t)
    d.d_entries;
  write_file (Filename.concat dir "MANIFEST") (manifest d)
