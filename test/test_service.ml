(* Tests for jitbulld as a DB distributor and the client that decides on
   its replica: the /delta catch-up payloads, the keep-alive HTTP layer,
   the distribution endpoints, in-process decisions while installs land,
   atomic replica resyncs, replica == server under racing installs,
   push-driven re-decisions, one engine's audit trail, the DNA text, and
   stopping the server with clients still connected. *)

open Helpers
module Http = Jitbull_obs.Http_export
module Jsonx = Jitbull_obs.Jsonx
module Sexpr = Jitbull_util.Sexpr
module Db = Jitbull_core.Db
module Dna = Jitbull_core.Dna
module Delta = Jitbull_core.Delta
module Comparator = Jitbull_core.Comparator
module Jitbull = Jitbull_core.Jitbull
module V = Jitbull_vdc.Demonstrators
module Proto = Jitbull_service.Proto
module Service = Jitbull_service.Service
module Client = Jitbull_service.Client
module Generator = Jitbull_fuzz.Generator
module Obs = Jitbull_obs.Obs
module Metrics = Jitbull_obs.Metrics
module Audit = Jitbull_obs.Audit
module Tracer = Jitbull_obs.Tracer

let params = Comparator.default_params

(* A harvested DB of two CVEs; each test builds its own. *)
let harvest_cves = [ List.nth VC.all 0; List.nth VC.all 1 ]

let build_db () =
  let db = Db.create () in
  ignore (V.harvest db harvest_cves);
  db

let dna_text dna = Sexpr.to_string (Dna.to_sexpr dna)

let req_of_entry ?(id = 0) (e : Db.entry) =
  {
    Proto.vr_id = id;
    vr_func = e.Db.dna.Dna.func_name;
    vr_bytecode_hash = 0x1234 + id;
    vr_feedback_hash = 0x5678 + id;
    vr_dna = dna_text e.Db.dna;
  }

(* the verdict the in-process path computes for the same DNA *)
let local_verdict db dna =
  let _, verdict = Jitbull.verdict_of_matches (Db.matching ~params db dna) in
  verdict

(* ---- delta_since ---- *)

let test_delta_since () =
  let db = build_db () in
  let gen = Db.generation db in
  let n = List.length (Db.entries db) in
  check_bool "harvest bumped the generation once per entry" true (gen = n && n >= 2);
  (match Db.delta_since db 0 with
  | g, Db.Append es ->
    check_int "full append from 0" n (List.length es);
    check_int "delta generation is current" gen g
  | _, Db.Resync _ -> Alcotest.fail "append-only history answered Resync");
  (match Db.delta_since db (gen - 1) with
  | _, Db.Append es -> check_int "suffix append" 1 (List.length es)
  | _, Db.Resync _ -> Alcotest.fail "suffix answered Resync");
  (match Db.delta_since db gen with
  | g, Db.Append [] -> check_int "up-to-date replica gets empty append" gen g
  | _ -> Alcotest.fail "up-to-date replica should get Append []");
  let cve0 = (List.hd (Db.entries db)).Db.cve in
  Db.remove_cve db cve0;
  match Db.delta_since db gen with
  | g, Db.Resync es ->
    check_int "resync ships the full post-removal list" (List.length (Db.entries db))
      (List.length es);
    check_int "resync generation is current" (Db.generation db) g
  | _, Db.Append _ -> Alcotest.fail "pre-removal generation must Resync"

(* ---- keep-alive regression ---- *)

(* Two sequential requests on one connection must reuse the socket: the
   server's connection counter stays at 1 while its request counter
   reaches 2. (This is the regression test for the accept loop serving
   one request per connection or closing keep-alive sockets early.) *)
let test_keep_alive_reuses_socket () =
  let server =
    Http.Server.start ~workers:1
      ~handler:(fun req -> Http.respond ("echo:" ^ req.Http.rq_path))
      ~port:0 ()
  in
  Fun.protect
    ~finally:(fun () -> Http.Server.stop server)
    (fun () ->
      let conn = Http.Conn.connect ~port:(Http.Server.port server) () in
      Fun.protect
        ~finally:(fun () -> Http.Conn.close conn)
        (fun () ->
          let status1, _, body1 = Http.Conn.request conn "/first" in
          let status2, _, body2 = Http.Conn.request conn "/second" in
          check_int "first status" 200 status1;
          check_int "second status" 200 status2;
          check_string "first body" "echo:/first" body1;
          check_string "second body" "echo:/second" body2;
          check_int "one TCP connection" 1 (Http.Server.connections server);
          check_int "two requests through it" 2 (Http.Server.requests server)))

(* ---- service end-to-end ---- *)

let with_service db f =
  let svc = Service.create ~workers:1 ~db ~port:0 () in
  Fun.protect ~finally:(fun () -> Service.stop svc) (fun () -> f svc)

let post conn ?(body = "") path = Http.Conn.request conn ~meth:"POST" ~body path

let get_json conn path =
  match Http.Conn.request conn path with
  | 200, _, body -> Jsonx.parse body
  | status, _, body -> Alcotest.failf "GET %s: HTTP %d: %s" path status body

let delta_entries j =
  List.map
    (fun s -> Db.entry_of_sexpr (Sexpr.of_string (Jsonx.to_str s)))
    (Jsonx.to_list_exn (Jsonx.member "entries" j))

let test_distribution_endpoints () =
  let db = build_db () in
  with_service db (fun svc ->
      let e = List.hd (Db.entries db) in
      let conn = Http.Conn.connect ~port:(Service.port svc) () in
      Fun.protect
        ~finally:(fun () -> Http.Conn.close conn)
        (fun () ->
          (* /install moves the generation, and /delta ships the entry *)
          let gen = Db.generation db in
          let installed = { Db.cve = "CVE-TEST-INSTALL"; dna = e.Db.dna } in
          let status, _, body =
            post conn ~body:(Sexpr.to_string (Db.entry_to_sexpr installed)) "/install"
          in
          check_int "install status" 200 status;
          check_int "install answers the new generation" (gen + 1)
            (Jsonx.to_int (Jsonx.member "generation" (Jsonx.parse body)));
          let j = get_json conn (Printf.sprintf "/delta?gen=%d" gen) in
          check_string "a suffix is an append" "append" (Jsonx.to_str (Jsonx.member "mode" j));
          check_bool "the delta carries the installed entry" true
            (List.map (fun x -> Sexpr.to_string (Db.entry_to_sexpr x)) (delta_entries j)
            = [ Sexpr.to_string (Db.entry_to_sexpr installed) ]);
          check_int "a replica at 0 gets every entry" (Db.size db)
            (List.length (delta_entries (get_json conn "/delta?gen=0")));
          (* a removal fences the history: older replicas resync *)
          let status, _, _ = post conn "/remove?cve=CVE-TEST-INSTALL" in
          check_int "remove status" 200 status;
          let j = get_json conn (Printf.sprintf "/delta?gen=%d" gen) in
          check_string "pre-removal replica resyncs" "resync"
            (Jsonx.to_str (Jsonx.member "mode" j));
          check_int "resync ships the post-removal list" (Db.size db)
            (List.length (delta_entries j));
          (* subscribe long-poll answers immediately for a stale gen *)
          check_int "subscribe reports the current generation" (Db.generation db)
            (Jsonx.to_int
               (Jsonx.member "generation" (get_json conn "/subscribe?gen=0&timeout_ms=200")));
          (* no verdicts on the wire *)
          let status, _, _ = post conn ~body:"{}" "/verdict" in
          check_int "/verdict is not served" 404 status;
          (* a delta multiplicity below 1 is malformed DNA *)
          let bad =
            {
              e.Db.dna with
              Dna.deltas =
                [
                  ( "gvn",
                    {
                      Delta.removed = Delta.side_of_list [ ("a->b->c", -3) ];
                      added = Delta.side_of_list [];
                    } );
                ];
            }
          in
          let gen_before = Db.generation db in
          let status, _, _ =
            post conn
              ~body:(Sexpr.to_string (Db.entry_to_sexpr { Db.cve = "CVE-TEST-BAD"; dna = bad }))
              "/install"
          in
          check_int "negative multiplicity in an install is a 400" 400 status;
          check_int "rejected install leaves the DB alone" gen_before (Db.generation db);
          let status, _, _ = Http.Conn.request conn "/first" in
          check_int "connection survives the 400" 404 status))

(* ---- one decision per DNA ---- *)

let gvn_dna = "(dna (func f) (deltas (gvn (delta (removed (x->y 3)) (added)))))"

let gvn_db () =
  let db = Db.create () in
  Db.add db { Db.cve = "CVE-COLLIDE"; dna = Dna.of_sexpr (Sexpr.of_string gvn_dna) };
  db

(* Two requests whose identities an xor-folded hash of (dna, bytecode
   hash, feedback hash) would confuse: A's bytecode hash is
   fnv(dna A) xor fnv(dna B) xor B's. [Service.decide] keeps no memo per
   request identity, so after answering A it decides B on its own
   DNA. *)
let test_forged_identity_decided_apart () =
  let b =
    { Proto.vr_id = 1; vr_func = "f"; vr_bytecode_hash = 0x1234;
      vr_feedback_hash = 0x5678; vr_dna = gvn_dna }
  in
  let a =
    { b with Proto.vr_bytecode_hash = 4585242521019323057;
             vr_dna = "(dna (func f) (deltas))" }
  in
  with_service (gvn_db ()) (fun svc ->
      check_bool "A is allowed" true ((Service.decide svc a).Proto.vs_verdict = `Allow);
      check_bool "B is decided on its own DNA" true
        ((Service.decide svc b).Proto.vs_verdict = `Disable [ "gvn" ]))

(* ---- verdicts decided while installs land ---- *)

(* Every bundled demonstrator's entries, for the install race below. *)
let all_entries =
  lazy
    (let db = Db.create () in
     ignore (V.harvest db VC.all);
     Array.of_list (Db.entries db))

(* One domain loops [Service.decide] over harvested entries while the
   main thread installs them one by one into an empty DB (appends
   only). Every response must be the verdict of the DB as it stood at
   the response's generation: with appends only, that is the first
   [vs_generation] entries. *)
let test_decide_during_installs () =
  let all = Lazy.force all_entries in
  let n = Array.length all in
  let db = Db.create () in
  let prefix =
    Array.init (n + 1) (fun g ->
        lazy
          (let p = Db.create () in
           Array.iter (Db.add p) (Array.sub all 0 g);
           p))
  in
  with_service db (fun svc ->
      let stop = Atomic.make false in
      let decided = Atomic.make 0 in
      (* the entry about to be installed: its own verdict is the one an
         install flips, so the reader keeps asking about it *)
      let next = Atomic.make 0 in
      let reader =
        Domain.spawn (fun () ->
            let out = ref [] in
            let i = ref 0 in
            while not (Atomic.get stop) do
              let j = if !i land 1 = 0 then Atomic.get next else !i / 2 mod n in
              let e = all.(j) in
              out := (e, Service.decide svc (req_of_entry ~id:j e)) :: !out;
              incr i;
              Atomic.incr decided
            done;
            !out)
      in
      (* let the reader decide a few times at every generation *)
      let wait_for_reader () =
        let target = Atomic.get decided + 3 in
        let deadline = Unix.gettimeofday () +. 10.0 in
        while Atomic.get decided < target && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.001
        done
      in
      for i = 0 to n - 1 do
        Atomic.set next i;
        wait_for_reader ();
        Service.install svc all.(i)
      done;
      wait_for_reader ();
      Atomic.set stop true;
      let responses = Domain.join reader in
      check_bool "the reader decided across installs" true
        (List.length responses >= 3 * (n + 1));
      List.iter
        (fun ((e : Db.entry), (r : Proto.verdict_resp)) ->
          let g = r.Proto.vs_generation in
          if g < 0 || g > n then
            Alcotest.failf "generation %d outside the install window" g;
          let expected =
            snd
              (Jitbull.verdict_of_matches
                 (Db.matching ~params (Lazy.force prefix.(g)) e.Db.dna))
          in
          let show = function
            | `Allow -> "allow"
            | `Disable ps -> "disable " ^ String.concat "," ps
            | `Forbid -> "forbid"
          in
          if r.Proto.vs_verdict <> expected then
            Alcotest.failf "%s at generation %d: %s, the prefix DB says %s"
              e.Db.dna.Dna.func_name g (show r.Proto.vs_verdict) (show expected))
        responses)

(* ---- the DNA text ---- *)

(* a DNA as plain data: per pass, each side's (sub-chain, count) pairs
   in key order *)
let dna_data (d : Dna.t) =
  let side tbl =
    List.sort compare (Hashtbl.fold (fun k c acc -> (Delta.key_to_string k, c) :: acc) tbl [])
  in
  ( d.Dna.func_name,
    List.map
      (fun (pass, (x : Delta.t)) -> (pass, side x.Delta.removed, side x.Delta.added))
      d.Dna.deltas )

(* The one-line DNA text (the form /delta ships entries in) decodes to
   the DNA it was printed from, and jitbulld's decision on it is the one
   the client's replica (synced over /delta) gives: the 8 VDC harvests
   and the Ion compiles of four benign generated programs. *)
let test_wire_dna_identity () =
  let db = Db.create () in
  ignore (V.harvest db VC.all);
  let benign =
    List.concat_map
      (fun seed ->
        List.map
          (fun (_, _, _, trace) -> Dna.extract trace)
          (compiles ~vulns:VC.none
             (Generator.benign_params
                { Generator.p_seed = seed; p_funcs = 8; p_rounds = 40; p_depth = 2 })))
      [ 900; 901; 902; 903 ]
  in
  check_bool "benign programs reached Ion" true (benign <> []);
  let dnas = List.map (fun (e : Db.entry) -> e.Db.dna) (Db.entries db) @ benign in
  with_service db (fun svc ->
      let client = Client.connect ~subscribe:false ~port:(Service.port svc) () in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          let replica = Client.replica client in
          check_int "replica synced every entry" (Db.size db) (Db.size replica);
          List.iteri
            (fun i dna ->
              let name = Printf.sprintf "%s #%d" dna.Dna.func_name i in
              let text = dna_text dna in
              check_bool (name ^ ": one line") false (String.contains text '\n');
              check_bool (name ^ ": decodes to the same DNA") true
                (dna_data (Dna.of_sexpr (Sexpr.of_string text)) = dna_data dna);
              let resp =
                Service.decide svc
                  { Proto.vr_id = i; vr_func = dna.Dna.func_name; vr_bytecode_hash = i;
                    vr_feedback_hash = 0; vr_dna = text }
              in
              let matched = Db.matching ~params replica dna in
              let passes, verdict = Jitbull.verdict_of_matches matched in
              check_bool (name ^ ": remote verdict == replica verdict") true
                (resp.Proto.vs_verdict = verdict);
              check_bool (name ^ ": same passes") true (resp.Proto.vs_passes = passes);
              check_bool (name ^ ": same matches") true (resp.Proto.vs_matched = matched))
            dnas))

(* ---- stop with clients still connected ---- *)

(* [f ()] on a thread, failing unless it returns within [limit] seconds
   (a hung stop fails the test instead of hanging the suite) *)
let returns_within limit what f =
  let finished = Atomic.make false in
  let t0 = Unix.gettimeofday () in
  let th = Thread.create (fun () -> f (); Atomic.set finished true) () in
  while (not (Atomic.get finished)) && Unix.gettimeofday () -. t0 < 5.0 do
    Unix.sleepf 0.005
  done;
  let took = Unix.gettimeofday () -. t0 in
  if not (Atomic.get finished) then Alcotest.failf "%s still blocked after %.1fs" what took;
  Thread.join th;
  if took > limit then Alcotest.failf "%s took %.2fs (limit %.1fs)" what took limit

let test_stop_with_clients_connected () =
  let db = build_db () in
  let svc = Service.create ~workers:1 ~db ~port:0 () in
  let port = Service.port svc in
  let idle = Http.Conn.connect ~port () in
  let poll = Http.Conn.connect ~port () in
  Fun.protect
    ~finally:(fun () ->
      Http.Conn.close idle;
      Http.Conn.close poll)
    (fun () ->
      let status, _, _ = Http.Conn.request idle "/gen" in
      check_int "/gen on the keep-alive connection" 200 status;
      let polled = ref None in
      let poller =
        Thread.create
          (fun () ->
            polled :=
              Some
                (match
                   Http.Conn.request poll ~timeout_s:30.0
                     (Printf.sprintf "/subscribe?gen=%d&timeout_ms=60000" (Db.generation db))
                 with
                | status, _, _ -> Some status
                | exception _ -> None))
          ()
      in
      (* the long poll is parked in its handler once the server counted it *)
      let deadline = Unix.gettimeofday () +. 5.0 in
      while
        Http.Server.requests (Service.server svc) < 2 && Unix.gettimeofday () < deadline
      do
        Unix.sleepf 0.005
      done;
      check_int "the long poll reached the server" 2
        (Http.Server.requests (Service.server svc));
      returns_within 1.0 "Service.stop" (fun () -> Service.stop svc);
      Thread.join poller;
      match !polled with
      | Some (Some 200) | Some None -> ()
      | Some (Some st) -> Alcotest.failf "the long poll ended with HTTP %d" st
      | None -> Alcotest.fail "the long poll never ended")

(* A client whose server stops under it keeps deciding on its replica at
   its last synced generation: every verdict still equals the analyzer's
   on the server's DB, and the replica neither moves nor empties. *)
let test_client_falls_back_after_stop () =
  let db = build_db () in
  let cve = List.hd harvest_cves in
  let calls = compiles ~vulns:(VC.make [ cve ]) (V.find cve).V.source in
  let decide analyzer =
    List.map
      (fun (ctx, func_index, name, trace) -> analyzer ~ctx ~func_index ~name ~trace)
      calls
  in
  let expected = decide (Jitbull.analyzer ~params db) in
  check_bool "the demonstrator is flagged" true
    (List.exists (fun d -> d <> Engine.Allow) expected);
  let svc = Service.create ~workers:1 ~db ~port:0 () in
  let client = Client.connect ~port:(Service.port svc) () in
  Fun.protect
    ~finally:(fun () ->
      Client.close client;
      Service.stop svc)
    (fun () ->
      let analyzer =
        match (Client.engine_config ~params client ~vulns:VC.none ()).Engine.analyzer with
        | Some a -> a
        | None -> Alcotest.fail "engine_config carries an analyzer"
      in
      check_bool "replica verdicts before the stop" true (decide analyzer = expected);
      let synced = Client.generation client in
      let replica_gen = Db.generation (Client.replica client) in
      returns_within 1.0 "Service.stop" (fun () -> Service.stop svc);
      check_bool "replica verdicts after the stop" true (decide analyzer = expected);
      check_bool "a sync fails without a server" true (Result.is_error (Client.sync client));
      check_int "still at the last synced generation" synced (Client.generation client);
      check_int "the replica did not move" replica_gen (Db.generation (Client.replica client)))

(* ---- client: replica sync and push invalidation ---- *)

let test_client_sync_replica () =
  let db = build_db () in
  with_service db (fun svc ->
      let client = Client.connect ~subscribe:false ~port:(Service.port svc) () in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          (match Client.sync client with
          | Ok g -> check_int "synced to the server generation" (Db.generation db) g
          | Error m -> Alcotest.fail m);
          check_int "replica has every entry"
            (List.length (Db.entries db))
            (List.length (Db.entries (Client.replica client)))))

let equiv_source =
  "function hot(a, b) { var t = 0; for (var i = 0; i < 12; i++) { t = t + \
   a * i - b; } return t; } var s = 0; for (var k = 0; k < 80; k++) s = s + \
   hot(k, 2); print(s);"

let counter obs name =
  Option.value ~default:0 (List.assoc_opt name (Obs.view (Some obs)).Metrics.v_counters)

let records_of obs source =
  List.filter (fun (r : Audit.record) -> r.Audit.source = source) (Audit.records (Obs.audit obs))

(* Once the subscriber has seen a generation push and resynced, a verdict
   the policy cache held from before is decided again: the first run
   decides, the second replays from the cache, and the run after the
   push decides afresh. *)
let test_push_invalidates_policy_cache () =
  let db = build_db () in
  with_service db (fun svc ->
      let obs = Obs.create () in
      let client = Client.connect ~obs ~port:(Service.port svc) () in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          let cfg = Client.engine_config client ~vulns:VC.none () in
          let run () = ignore (Engine.run_source cfg equiv_source) in
          let fresh () = List.length (records_of obs Audit.Fresh) in
          run ();
          let decided = fresh () in
          check_bool "the first run decides" true (decided > 0);
          run ();
          check_int "the second run replays every verdict" decided (fresh ());
          check_bool "from the policy cache" true (records_of obs Audit.Cache_hit <> []);
          let e = List.hd (Db.entries db) in
          Service.install svc { Db.cve = "CVE-TEST-PUSH"; dna = e.Db.dna };
          let new_gen = Db.generation db in
          let deadline = Unix.gettimeofday () +. 10.0 in
          while Client.generation client < new_gen && Unix.gettimeofday () < deadline do
            Unix.sleepf 0.01
          done;
          check_bool "the subscriber resynced" true (Client.generation client >= new_gen);
          check_bool "the push was counted" true (counter obs "engine.remote_pushes" >= 1);
          run ();
          check_int "the post-push run decides again" (2 * decided) (fresh ())))

(* One engine's decisions land in one trail: with the client's obs
   overridden by the engine's own (as a benchmark round does), the
   analyzer's Fresh records, its spans and the engine's Cache_hit
   records all go to the engine's obs. *)
let test_engine_obs_owns_its_records () =
  let db = build_db () in
  with_service db (fun svc ->
      let client_obs = Obs.create () in
      let client =
        Client.connect ~subscribe:false ~obs:client_obs ~port:(Service.port svc) ()
      in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          let base = Client.engine_config client ~vulns:VC.none () in
          check_bool "the client's obs is the default" true
            (match base.Engine.obs with Some o -> o == client_obs | None -> false);
          let obs = Obs.create () in
          let cfg = { base with Engine.obs = Some obs } in
          ignore (Engine.run_source cfg equiv_source);
          ignore (Engine.run_source cfg equiv_source);
          check_bool "Fresh records in the engine's trail" true
            (records_of obs Audit.Fresh <> []);
          check_bool "Cache_hit records in the same trail" true
            (records_of obs Audit.Cache_hit <> []);
          check_bool "policy_decide spans in the engine's tracer" true
            (List.exists
               (fun (e : Tracer.event) -> String.equal e.Tracer.name "policy_decide")
               (Tracer.events (Obs.tracer obs)));
          check_int "nothing in the client's trail" 0 (Audit.total (Obs.audit client_obs))))

(* ---- the replica applies a payload atomically ---- *)

(* Domains decide on a DNA the replica matches, in a loop, while the
   replica resyncs over and over (each removal on the server fences the
   history, so every sync is a Resync of the full list). A decision sees
   the replica before or after a resync, never an empty or partial one,
   so it is never Allow. *)
let test_resync_is_atomic () =
  let db = Db.create () in
  Array.iter (Db.add db) (Lazy.force all_entries);
  (* the last entry: a remove-then-add resync would leave it out longest *)
  let dna = (List.hd (List.rev (Db.entries db))).Db.dna in
  with_service db (fun svc ->
      let client = Client.connect ~subscribe:false ~port:(Service.port svc) () in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          let replica = Client.replica client in
          check_bool "the synced replica flags the DNA" true (local_verdict replica dna <> `Allow);
          let stop = Atomic.make false in
          (* three deciders, so one is likely queued for the read side
             whenever the sync's writer lets go of the lock *)
          let deciders =
            List.init 3 (fun _ ->
                Domain.spawn (fun () ->
                    let decided = ref 0 and allowed = ref 0 in
                    while not (Atomic.get stop) do
                      if local_verdict replica dna = `Allow then incr allowed;
                      incr decided
                    done;
                    (!decided, !allowed)))
          in
          let resyncs = 200 in
          for _ = 1 to resyncs do
            Service.remove_cve svc "CVE-NOT-INSTALLED";
            match Client.sync client with
            | Ok g -> check_int "synced the removal" (Db.generation db) g
            | Error m -> Alcotest.fail m
          done;
          Atomic.set stop true;
          let decided, allowed =
            List.fold_left
              (fun (d, a) dom ->
                let d', a' = Domain.join dom in
                (d + d', a + a'))
              (0, 0) deciders
          in
          check_bool "the deciders ran across the resyncs" true (decided > resyncs);
          check_int "no decision saw a partial replica" 0 allowed;
          check_int "the replica still holds every entry" (Db.size db) (Db.size replica)))

(* ---- replica == server ---- *)

let digest db = Sexpr.to_string (Db.to_sexpr db)

(* Installs and removals race the client's own syncs with the subscriber
   on. Every replica state a sync leaves is the server DB's at some
   generation at or past the one the sync reports, never a mix; once the
   writes stop, one more sync makes the replica's digest equal the
   server's at the synced generation, and jitbulld's decision equals the
   replica's on every entry. *)
let test_replica_equals_server () =
  let all = Lazy.force all_entries in
  let db = Db.create () in
  with_service db (fun svc ->
      let history = Hashtbl.create 64 and history_mu = Mutex.create () in
      let record () =
        Mutex.protect history_mu (fun () ->
            Hashtbl.replace history (Db.generation db) (digest db))
      in
      record ();
      let client = Client.connect ~port:(Service.port svc) () in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          let writing = Atomic.make true in
          let writer =
            Thread.create
              (fun () ->
                Array.iteri
                  (fun i (e : Db.entry) ->
                    Service.install svc e;
                    record ();
                    if i mod 4 = 3 then begin
                      Service.remove_cve svc e.Db.cve;
                      record ()
                    end;
                    Unix.sleepf 0.002)
                  all;
                Atomic.set writing false)
              ()
          in
          let samples = ref [] in
          while Atomic.get writing do
            match Client.sync client with
            | Ok g -> samples := (g, digest (Client.replica client)) :: !samples
            | Error m -> Alcotest.fail m
          done;
          Thread.join writer;
          check_bool "syncs raced the writes" true (List.length !samples > 1);
          List.iter
            (fun (g, d) ->
              let seen =
                Hashtbl.fold (fun g' d' acc -> acc || (g' >= g && String.equal d d')) history false
              in
              if not seen then
                Alcotest.failf "replica after a sync to %d is no server state at or past it" g)
            !samples;
          let g =
            match Client.sync client with Ok g -> g | Error m -> Alcotest.fail m
          in
          check_int "synced to the last write" (Db.generation db) g;
          check_string "replica digest == server digest" (Hashtbl.find history g)
            (digest (Client.replica client));
          Array.iteri
            (fun i (e : Db.entry) ->
              let resp =
                Service.decide svc
                  { Proto.vr_id = i; vr_func = e.Db.dna.Dna.func_name; vr_bytecode_hash = i;
                    vr_feedback_hash = 0; vr_dna = dna_text e.Db.dna }
              in
              let matched = Db.matching ~params (Client.replica client) e.Db.dna in
              check_bool "server decision == replica decision" true
                (resp.Proto.vs_matched = matched
                && resp.Proto.vs_verdict = snd (Jitbull.verdict_of_matches matched)))
            all))

let suite =
  ( "service",
    [
      Alcotest.test_case "delta_since append/resync" `Quick test_delta_since;
      Alcotest.test_case "keep-alive reuses one socket" `Quick
        test_keep_alive_reuses_socket;
      Alcotest.test_case "distribution endpoints and malformed input" `Quick
        test_distribution_endpoints;
      Alcotest.test_case "forged request identities decided apart" `Quick
        test_forged_identity_decided_apart;
      Alcotest.test_case "decide while installs land" `Quick
        test_decide_during_installs;
      Alcotest.test_case "client replica sync" `Quick test_client_sync_replica;
      Alcotest.test_case "push invalidates pre-bump verdicts" `Quick
        test_push_invalidates_policy_cache;
      Alcotest.test_case "replica == server under racing installs" `Quick
        test_replica_equals_server;
      Alcotest.test_case "replica resync is atomic under decisions" `Quick
        test_resync_is_atomic;
      Alcotest.test_case "engine obs owns its Fresh and Cache_hit records" `Quick
        test_engine_obs_owns_its_records;
      Alcotest.test_case "wire DNA decodes identically, remote == replica" `Quick
        test_wire_dna_identity;
      Alcotest.test_case "stop returns with clients connected" `Quick
        test_stop_with_clients_connected;
      Alcotest.test_case "client falls back to its replica after stop" `Quick
        test_client_falls_back_after_stop;
    ] )
