(* Tests for the jitbulld verdict service: wire protocol, keep-alive
   HTTP layer, the content-checked line cache with generation
   invalidation, verdicts decided while installs land, push-driven cache
   flushes on the client, the remote==local analyzer oracle, the DNA text
   on the wire, and stopping the server with clients still connected. *)

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
module Oracle = Jitbull_fuzz.Oracle
module Generator = Jitbull_fuzz.Generator
module Obs = Jitbull_obs.Obs
module Metrics = Jitbull_obs.Metrics
module Intern = Jitbull_util.Intern

let params = Comparator.default_params

(* One harvested DB shared by the suite (harvesting runs demonstrators,
   so do it once). Tests that mutate build their own copy. *)
let harvest_cves = [ List.nth VC.all 0; List.nth VC.all 1 ]

let build_db () =
  let db = Db.create () in
  ignore (V.harvest db harvest_cves);
  db

let shared_db = lazy (build_db ())

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

(* ---- wire protocol ---- *)

let test_proto_roundtrip () =
  let reqs =
    [
      { Proto.vr_id = 0; vr_func = "f"; vr_bytecode_hash = 1;
        vr_feedback_hash = 2; vr_dna = "(dna (func f) (deltas))" };
      { Proto.vr_id = max_int; vr_func = "weird \"name\"\n";
        vr_bytecode_hash = -5; vr_feedback_hash = 0;
        vr_dna = "line1\nline2\ttab" };
    ]
  in
  let round = Proto.decode_reqs (Proto.encode_reqs reqs) in
  check_bool "req batch round-trips" true (round = reqs);
  let resps =
    [
      { Proto.vs_id = 1; vs_verdict = `Allow; vs_passes = [];
        vs_matched = []; vs_generation = 3; vs_cached = false };
      { Proto.vs_id = 2; vs_verdict = `Disable [ "gvn"; "licm" ];
        vs_passes = [ "gvn"; "licm" ];
        vs_matched = [ ("CVE-1", [ "gvn" ]) ]; vs_generation = 3;
        vs_cached = true };
      { Proto.vs_id = 3; vs_verdict = `Forbid; vs_passes = [];
        vs_matched = []; vs_generation = 0; vs_cached = false };
    ]
  in
  let round = Proto.decode_resps (Proto.encode_resps resps) in
  check_bool "resp batch round-trips" true (round = resps)

let test_proto_keys () =
  check_bool "line_key distinguishes lines" true
    (Proto.line_key "{\"id\":1}" <> Proto.line_key "{\"id\":2}");
  check_bool "line_key is non-negative" true (Proto.line_key "x" >= 0)

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

let test_verdict_endpoint_and_cache () =
  let db = build_db () in
  with_service db (fun svc ->
      let entries = Db.entries db in
      let e = List.hd entries in
      let req = req_of_entry ~id:1 e in
      let conn = Http.Conn.connect ~port:(Service.port svc) () in
      Fun.protect
        ~finally:(fun () -> Http.Conn.close conn)
        (fun () ->
          (* fresh: decided by the indexed query, not cached *)
          let resp =
            match Client.verdict_roundtrip conn [ req ] with
            | Ok [ r ] -> r
            | Ok l -> Alcotest.failf "expected 1 response, got %d" (List.length l)
            | Error m -> Alcotest.fail m
          in
          check_bool "first answer is uncached" false resp.Proto.vs_cached;
          check_bool "remote == local" true
            (resp.Proto.vs_verdict = local_verdict db e.Db.dna);
          check_int "verdict generation" (Db.generation db) resp.Proto.vs_generation;
          check_bool "an exploit DNA replayed verbatim is not Allow" true
            (resp.Proto.vs_verdict <> `Allow);
          (* repeat: served from the server cache, same verdict *)
          let again =
            match Client.verdict_roundtrip conn [ req ] with
            | Ok [ r ] -> r
            | _ -> Alcotest.fail "second round-trip failed"
          in
          check_bool "repeat is served cached" true again.Proto.vs_cached;
          check_bool "cached verdict identical" true
            (again.Proto.vs_verdict = resp.Proto.vs_verdict);
          (* a batch mixes cached and fresh lines; ids are echoed in order *)
          let e2 = List.nth entries (List.length entries - 1) in
          let batch = [ req; req_of_entry ~id:2 e2 ] in
          (match Client.verdict_roundtrip conn batch with
          | Ok [ r1; r2 ] ->
            check_int "batch echoes id 1" 1 r1.Proto.vs_id;
            check_int "batch echoes id 2" 2 r2.Proto.vs_id;
            check_bool "batch remote == local (2)" true
              (r2.Proto.vs_verdict = local_verdict db e2.Db.dna)
          | Ok l -> Alcotest.failf "expected 2 responses, got %d" (List.length l)
          | Error m -> Alcotest.fail m);
          (* the same batch again: the line cache answers every line,
             each still echoing its own id *)
          (match Client.verdict_roundtrip conn batch with
          | Ok [ r1; r2 ] ->
            check_bool "repeated batch line 1 cached" true r1.Proto.vs_cached;
            check_bool "repeated batch line 2 cached" true r2.Proto.vs_cached;
            check_int "repeated batch echoes id 1" 1 r1.Proto.vs_id;
            check_int "repeated batch echoes id 2" 2 r2.Proto.vs_id
          | Ok l -> Alcotest.failf "expected 2 responses, got %d" (List.length l)
          | Error m -> Alcotest.fail m);
          (* DB mutation invalidates the line cache *)
          let gen_before = Db.generation db in
          Service.install svc { Db.cve = "CVE-TEST-INSTALL"; dna = e.Db.dna };
          check_bool "install bumped the generation" true
            (Db.generation db > gen_before);
          let after =
            match Client.verdict_roundtrip conn [ req ] with
            | Ok [ r ] -> r
            | _ -> Alcotest.fail "post-install round-trip failed"
          in
          check_bool "post-install answer is re-decided, not cached" false
            after.Proto.vs_cached;
          check_int "post-install generation" (Db.generation db)
            after.Proto.vs_generation;
          (* subscribe long-poll answers immediately for a stale gen *)
          let status, _, body = Http.Conn.request conn "/subscribe?gen=0&timeout_ms=200" in
          check_int "subscribe status" 200 status;
          check_int "subscribe reports the current generation"
            (Db.generation db)
            (Jsonx.to_int (Jsonx.member "generation" (Jsonx.parse body)));
          (* malformed input is a 400, not a closed connection *)
          let status, _, _ =
            Http.Conn.request conn ~meth:"POST" ~body:"not json" "/verdict"
          in
          check_int "malformed batch is a 400" 400 status;
          (* a delta multiplicity below 1 is malformed DNA on both the
             verdict and the install path *)
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
          let status, _, _ =
            Http.Conn.request conn ~meth:"POST"
              ~body:(Proto.encode_reqs [ { req with Proto.vr_dna = dna_text bad } ])
              "/verdict"
          in
          check_int "negative multiplicity in a verdict is a 400" 400 status;
          let gen_before = Db.generation db in
          let status, _, _ =
            Http.Conn.request conn ~meth:"POST"
              ~body:
                (Sexpr.to_string
                   (Db.entry_to_sexpr { Db.cve = "CVE-TEST-BAD"; dna = bad }))
              "/install"
          in
          check_int "negative multiplicity in an install is a 400" 400 status;
          check_int "rejected install leaves the DB alone" gen_before
            (Db.generation db);
          let status, _, _ = Http.Conn.request conn "/first" in
          check_int "connection survives the 400" 404 status))

(* ---- the line cache answers only the bytes it stored ---- *)

let gvn_dna = "(dna (func f) (deltas (gvn (delta (removed (x->y 3)) (added)))))"

let gvn_db () =
  let db = Db.create () in
  Db.add db { Db.cve = "CVE-COLLIDE"; dna = Dna.of_sexpr (Sexpr.of_string gvn_dna) };
  db

let roundtrip conn req =
  match Client.verdict_roundtrip conn [ req ] with
  | Ok [ r ] -> r
  | Ok l -> Alcotest.failf "expected 1 response, got %d" (List.length l)
  | Error m -> Alcotest.fail m

(* Two request lines with one 62-bit line key (a claw search over the
   [pad] field found them): the second must be decided on its own
   bytes, not served the first's cached verdict. *)
let test_line_cache_checks_bytes () =
  let line_a =
    {|{"id":1,"func":"f","bytecode_hash":0,"feedback_hash":0,"dna":"(dna (func f) (deltas))","pad":"2ee4e51d68b56f56"}|}
  and line_b =
    {|{"id":1,"func":"f","bytecode_hash":0,"feedback_hash":0,"dna":"(dna (func f) (deltas (gvn (delta (removed (x->y 3)) (added)))))","pad":"07380af8f9a37ea9"}|}
  in
  check_bool "the two lines share a line key" true
    (Proto.line_key line_a = Proto.line_key line_b);
  with_service (gvn_db ()) (fun svc ->
      let conn = Http.Conn.connect ~port:(Service.port svc) () in
      Fun.protect
        ~finally:(fun () -> Http.Conn.close conn)
        (fun () ->
          let post line =
            match Http.Conn.request conn ~meth:"POST" ~body:line "/verdict" with
            | 200, _, body -> (
              match Proto.decode_resps body with
              | [ r ] -> r.Proto.vs_verdict
              | l -> Alcotest.failf "expected 1 response, got %d" (List.length l))
            | status, _, body -> Alcotest.failf "status %d: %s" status body
          in
          check_bool "A is allowed" true (post line_a = `Allow);
          check_bool "B is decided on its own bytes" true
            (post line_b = `Disable [ "gvn" ])))

(* Two requests whose identities an xor-folded hash of (dna, bytecode
   hash, feedback hash) would confuse: A's bytecode hash is
   fnv(dna A) xor fnv(dna B) xor B's. The server must decide B on its
   own DNA after answering A. *)
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
      let conn = Http.Conn.connect ~port:(Service.port svc) () in
      Fun.protect
        ~finally:(fun () -> Http.Conn.close conn)
        (fun () ->
          check_bool "A is allowed" true ((roundtrip conn a).Proto.vs_verdict = `Allow);
          check_bool "B is decided on its own DNA" true
            ((roundtrip conn b).Proto.vs_verdict = `Disable [ "gvn" ])))
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
            | `Disable ps -> "disable " ^ String.concat "," ps
            | v -> Proto.verdict_name v
          in
          if r.Proto.vs_verdict <> expected then
            Alcotest.failf "%s at generation %d: %s, the prefix DB says %s"
              e.Db.dna.Dna.func_name g (show r.Proto.vs_verdict) (show expected))
        responses)

(* ---- the DNA text on the wire ---- *)

(* a DNA as plain data: per pass, each side's (sub-chain, count) pairs
   in key order *)
let dna_data (d : Dna.t) =
  let side tbl =
    List.sort compare (Hashtbl.fold (fun k c acc -> (Intern.to_string k, c) :: acc) tbl [])
  in
  ( d.Dna.func_name,
    List.map
      (fun (pass, (x : Delta.t)) -> (pass, side x.Delta.removed, side x.Delta.added))
      d.Dna.deltas )

(* The client's one-line DNA text decodes on the server to the DNA the
   client extracted, and jitbulld's verdict on it is the one the client's
   replica (synced over /delta) gives: the 8 VDC harvests and the Ion
   compiles of four benign generated programs. *)
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

(* A client whose server stops under it decides against its replica:
   every verdict equals the local analyzer's on the same DB, and each
   one counts as a fallback. *)
let test_client_falls_back_after_stop () =
  let db = build_db () in
  let cve = List.hd harvest_cves in
  let source = (V.find cve).V.source in
  let calls = compiles ~vulns:(VC.make [ cve ]) source in
  let local = Jitbull.analyzer ~params db in
  let decide analyzer =
    List.map
      (fun (ctx, func_index, name, trace) -> analyzer ~ctx ~func_index ~name ~trace)
      calls
  in
  let expected = decide local in
  check_bool "the demonstrator is flagged" true
    (List.exists (fun d -> d <> Engine.Allow) expected);
  let svc = Service.create ~workers:1 ~db ~port:0 () in
  let obs = Obs.create () in
  let client = Client.connect ~obs ~port:(Service.port svc) () in
  let counter name =
    Option.value ~default:0
      (List.assoc_opt name (Obs.view (Some obs)).Metrics.v_counters)
  in
  Fun.protect
    ~finally:(fun () ->
      Client.close client;
      Service.stop svc)
    (fun () ->
      let remote = Client.analyzer ~params client in
      check_bool "remote verdicts before the stop" true (decide remote = expected);
      check_int "answered by the server" (List.length calls) (counter "engine.remote_verdicts");
      returns_within 1.0 "Service.stop" (fun () -> Service.stop svc);
      check_bool "replica verdicts after the stop" true (decide remote = expected);
      check_int "every verdict after the stop fell back" (List.length calls)
        (counter "engine.remote_fallbacks"))

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

(* The push-invalidation acceptance property: once the client has
   observed a generation push, a verdict cached before the bump is never
   served again — the engine-facing policy cache misses. *)
let test_push_invalidates_policy_cache () =
  let db = build_db () in
  with_service db (fun svc ->
      let client = Client.connect ~port:(Service.port svc) () in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          let cfg = Client.engine_config client ~vulns:VC.none () in
          let cache =
            match cfg.Engine.policy_cache with
            | Some c -> c
            | None -> Alcotest.fail "engine_config carries a policy cache"
          in
          let key = 424242 in
          Engine.Policy_cache.store cache key (Engine.Disable_passes [ "gvn" ]);
          check_bool "pre-push verdict is cached" true
            (Engine.Policy_cache.lookup cache key <> None);
          let pushed = ref 0 in
          Client.on_push client (fun g -> pushed := g);
          let e = List.hd (Db.entries db) in
          Service.install svc { Db.cve = "CVE-TEST-PUSH"; dna = e.Db.dna };
          let new_gen = Db.generation db in
          let deadline = Unix.gettimeofday () +. 10.0 in
          while Client.generation client < new_gen && Unix.gettimeofday () < deadline do
            Thread.yield ();
            Unix.sleepf 0.01
          done;
          check_bool "client observed the push" true
            (Client.generation client >= new_gen);
          check_bool "push handler saw the new generation" true (!pushed >= new_gen);
          check_bool "pre-bump cached verdict is gone" true
            (Engine.Policy_cache.lookup cache key = None)))

(* ---- remote == local, end to end through an engine ---- *)

let equiv_source =
  "function hot(a, b) { var t = 0; for (var i = 0; i < 12; i++) { t = t + \
   a * i - b; } return t; } var s = 0; for (var k = 0; k < 30; k++) s = s + \
   hot(k, 2); print(s);"

let test_remote_local_analyzer_equiv () =
  let db = Lazy.force shared_db in
  with_service db (fun svc ->
      let client = Client.connect ~subscribe:false ~port:(Service.port svc) () in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          let local = Jitbull.analyzer ~params db in
          let remote = Client.analyzer ~params client in
          match
            Oracle.check_analyzer_equiv ~name_a:"local" ~analyzer_a:local
              ~name_b:"remote" ~analyzer_b:remote equiv_source
          with
          | [] -> ()
          | vs ->
            Alcotest.failf "remote==local violated: %s"
              (String.concat "; "
                 (List.map
                    (fun (v : Oracle.violation) ->
                      v.Oracle.mv_invariant ^ ": " ^ v.Oracle.mv_detail)
                    vs))))

let suite =
  ( "service",
    [
      Alcotest.test_case "proto round-trip" `Quick test_proto_roundtrip;
      Alcotest.test_case "proto cache keys" `Quick test_proto_keys;
      Alcotest.test_case "delta_since append/resync" `Quick test_delta_since;
      Alcotest.test_case "keep-alive reuses one socket" `Quick
        test_keep_alive_reuses_socket;
      Alcotest.test_case "verdict endpoint, cache, invalidation" `Quick
        test_verdict_endpoint_and_cache;
      Alcotest.test_case "line cache checks the request bytes" `Quick
        test_line_cache_checks_bytes;
      Alcotest.test_case "forged request identities decided apart" `Quick
        test_forged_identity_decided_apart;
      Alcotest.test_case "decide while installs land" `Quick
        test_decide_during_installs;
      Alcotest.test_case "client replica sync" `Quick test_client_sync_replica;
      Alcotest.test_case "push invalidates pre-bump verdicts" `Quick
        test_push_invalidates_policy_cache;
      Alcotest.test_case "remote == local analyzer (oracle)" `Quick
        test_remote_local_analyzer_equiv;
      Alcotest.test_case "wire DNA decodes identically, remote == replica" `Quick
        test_wire_dna_identity;
      Alcotest.test_case "stop returns with clients connected" `Quick
        test_stop_with_clients_connected;
      Alcotest.test_case "client falls back to its replica after stop" `Quick
        test_client_falls_back_after_stop;
    ] )
