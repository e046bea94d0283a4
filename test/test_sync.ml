(* Distributed-campaign corpus sync: the master's wire protocol (union
   coverage merge, idempotent re-sync, lease work-stealing, deduplicated
   uploads, corpus broadcast), a real two-worker end-to-end run whose
   merged coverage is the exact union of the per-worker maps, master
   restart persistence, and the distilled-corpus golden format. *)

open Helpers
module F = Jitbull_fuzz
module Http = Jitbull_obs.Http_export
module Jsonx = Jitbull_obs.Jsonx

let with_master ?config ?corpus_dir ?chunk ?lease_timeout f =
  let m = F.Sync.Master.start ?config ?corpus_dir ?chunk ?lease_timeout ~port:0 () in
  Fun.protect ~finally:(fun () -> F.Sync.Master.stop m) (fun () -> f m)

let with_conn m f =
  let conn = Http.Conn.connect ~port:(F.Sync.Master.port m) () in
  Fun.protect ~finally:(fun () -> Http.Conn.close conn) (fun () -> f conn)

let get conn path =
  let status, _, body = Http.Conn.request conn path in
  check_int ("GET " ^ path) 200 status;
  Jsonx.parse body

let post conn path payload =
  let status, _, body =
    Http.Conn.request conn ~meth:"POST" ~body:(Jsonx.to_string payload) path
  in
  check_int ("POST " ^ path) 200 status;
  Jsonx.parse body

let int_field name j = Jsonx.to_int (Jsonx.member name j)

let int_list_field name j =
  List.map Jsonx.to_int (Jsonx.to_list_exn (Jsonx.member name j))

let coverage_payload worker features =
  Jsonx.Assoc
    [
      ("worker", Jsonx.String worker);
      ("features", Jsonx.List (List.map (fun f -> Jsonx.Int f) features));
    ]

let tmp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  d

(* ---- wire protocol ---- *)

let test_coverage_union_and_idempotence () =
  with_master (fun m ->
      with_conn m (fun conn ->
          let r = post conn "/fuzz/coverage" (coverage_payload "a" [ 1; 2; 3 ]) in
          check_int "first sync adds all features" 3 (int_field "new" r);
          check_int "total is the union so far" 3 (int_field "total" r);
          check_bool "nothing missing for the only worker" true
            (int_list_field "missing" r = []);
          let r = post conn "/fuzz/coverage" (coverage_payload "b" [ 3; 4 ]) in
          check_int "only the unseen feature is new" 1 (int_field "new" r);
          check_int "total is |{1,2,3,4}|" 4 (int_field "total" r);
          check_bool "b learns what a contributed" true
            (List.sort compare (int_list_field "missing" r) = [ 1; 2 ]);
          (* idempotent re-sync: same features again is a no-op *)
          let r = post conn "/fuzz/coverage" (coverage_payload "b" [ 1; 2; 3; 4 ]) in
          check_int "re-sync adds nothing" 0 (int_field "new" r);
          check_int "total unchanged" 4 (int_field "total" r);
          check_bool "nothing missing after convergence" true
            (int_list_field "missing" r = []);
          check_int "master counted every sync" 3 (F.Sync.Master.syncs m);
          check_int "master map is the union" 4 (F.Sync.Master.coverage_count m)))

let test_work_leases_and_stealing () =
  (* lease_timeout 0: every outstanding lease is immediately stealable *)
  with_master ~chunk:16 ~lease_timeout:0.0 (fun m ->
      with_conn m (fun conn ->
          let w = get conn "/fuzz/work?worker=a" in
          check_int "first lease starts at 0" 0 (int_field "lo" w);
          check_int "first lease spans the chunk" 16 (int_field "hi" w);
          check_bool "fresh range" true (Jsonx.member "stolen" w = Jsonx.Bool false);
          (* a never reports done; the expired lease is re-issued *)
          let w = get conn "/fuzz/work?worker=b" in
          check_int "stolen range lo" 0 (int_field "lo" w);
          check_int "stolen range hi" 16 (int_field "hi" w);
          check_bool "marked stolen" true (Jsonx.member "stolen" w = Jsonx.Bool true);
          ignore
            (post conn "/fuzz/done"
               (Jsonx.Assoc
                  [
                    ("worker", Jsonx.String "b");
                    ("lo", Jsonx.Int 0);
                    ("hi", Jsonx.Int 16);
                  ]));
          (* released: the next request gets a fresh range, not a steal *)
          let w = get conn "/fuzz/work?worker=c" in
          check_int "fresh range after release" 16 (int_field "lo" w);
          check_bool "not stolen" true (Jsonx.member "stolen" w = Jsonx.Bool false)))

let test_upload_dedup_and_broadcast () =
  with_master (fun m ->
      with_conn m (fun conn ->
          let upload source =
            post conn "/fuzz/interesting"
              (Jsonx.Assoc
                 [
                   ("worker", Jsonx.String "a");
                   ("source", Jsonx.String source);
                   ("gain", Jsonx.Int 2);
                 ])
          in
          let r = upload "print(1);" in
          check_bool "first upload admitted" true
            (Jsonx.member "admitted" r = Jsonx.Bool true);
          let r = upload "print(1);" in
          check_bool "duplicate rejected by digest" true
            (Jsonx.member "admitted" r = Jsonx.Bool false);
          ignore (upload "print(2);");
          check_int "corpus holds the two distinct inputs" 2 (F.Sync.Master.corpus_size m);
          let b = get conn "/fuzz/corpus?since=0" in
          check_int "broadcast returns both" 2
            (List.length (Jsonx.to_list_exn (Jsonx.member "entries" b)));
          let next = int_field "next" b in
          let b = get conn (Printf.sprintf "/fuzz/corpus?since=%d" next) in
          check_int "cursor past the end returns nothing" 0
            (List.length (Jsonx.to_list_exn (Jsonx.member "entries" b)))))

let test_upload_il_sidecar_validated () =
  (* an uploaded IL sidecar becomes every worker's mutation parent: the
     master keeps it only when it parses and lowers to exactly the
     uploaded source, and admits anything else source-only *)
  let p = List.hd (F.Il.seeds ()) in
  let real_source = F.Il.to_source p and real_il = F.Il.serialize p in
  with_master (fun m ->
      with_conn m (fun conn ->
          let upload source il =
            post conn "/fuzz/interesting"
              (Jsonx.Assoc
                 [
                   ("worker", Jsonx.String "a");
                   ("source", Jsonx.String source);
                   ("il", Jsonx.String il);
                 ])
          in
          ignore (upload real_source real_il);
          ignore (upload "print(1);" real_il);
          ignore (upload "print(2);" "il v1\nnot a program");
          let il_of source =
            (List.find
               (fun (e : F.Corpus.entry) -> e.F.Corpus.source = source)
               (F.Sync.Master.corpus_entries m))
              .F.Corpus.il
          in
          check_int "every upload admitted" 3 (F.Sync.Master.corpus_size m);
          check_bool "matching sidecar kept" true (il_of real_source = Some real_il);
          check_bool "sidecar of another program dropped" true (il_of "print(1);" = None);
          check_bool "unparsable sidecar dropped" true (il_of "print(2);" = None)))

(* ---- two-worker end-to-end ---- *)

let test_two_worker_union () =
  with_master (fun m ->
      let port = F.Sync.Master.port m in
      let w1 =
        F.Sync.Worker.run ~rounds:1 ~execs_per_round:25 ~rng_seed:11 ~id:"w1"
          ~port ()
      in
      (* w2 runs after w1, so its closing sync merges the master's map
         (which already holds w1's) back into its own: when it finishes,
         both sides hold exactly the union of the per-worker maps *)
      let w2 =
        F.Sync.Worker.run ~rounds:1 ~execs_per_round:25 ~rng_seed:22 ~id:"w2"
          ~port ()
      in
      check_bool "workers executed" true
        (w1.F.Sync.Worker.w_execs = 25 && w2.F.Sync.Worker.w_execs = 25);
      check_bool "master holds at least each worker's map" true
        (F.Sync.Master.coverage_count m >= w1.F.Sync.Worker.w_coverage
        && F.Sync.Master.coverage_count m >= w2.F.Sync.Worker.w_coverage);
      check_int "last worker converged on the union" (F.Sync.Master.coverage_count m)
        w2.F.Sync.Worker.w_coverage;
      check_bool "second worker imported the first's corpus" true
        (w2.F.Sync.Worker.w_imported > 0);
      check_bool "both workers synced" true (F.Sync.Master.syncs m >= 2))

(* ---- master restart persistence ---- *)

let test_master_restart_keeps_corpus () =
  let dir = tmp_dir "jitbull_sync_corpus" in
  let upload conn source =
    post conn "/fuzz/interesting"
      (Jsonx.Assoc [ ("worker", Jsonx.String "a"); ("source", Jsonx.String source) ])
  in
  with_master ~corpus_dir:dir (fun m ->
      with_conn m (fun conn ->
          ignore (upload conn "print(1);");
          ignore (upload conn "var i = 0; while (i < 3) { i = i + 1; } print(i);");
          check_int "entries persisted" 2 (F.Sync.Master.corpus_size m)));
  (* restart: the corpus reloads and replays into a fresh coverage map,
     and the dedup set still rejects re-uploads of persisted entries *)
  with_master ~corpus_dir:dir (fun m ->
      check_int "corpus survives the restart" 2 (F.Sync.Master.corpus_size m);
      check_bool "coverage replayed from the reloaded entries" true
        (F.Sync.Master.coverage_count m > 0);
      with_conn m (fun conn ->
          let r = upload conn "print(1);" in
          check_bool "persisted entry still deduplicated" true
            (Jsonx.member "admitted" r = Jsonx.Bool false)))

(* ---- distillation + the committed-corpus golden format ---- *)

let distill_fixture () =
  let c = F.Corpus.create () in
  ignore (F.Corpus.add c ~gain:1 "print(1);");
  ignore
    (F.Corpus.add c ~gain:2 "var i = 0; while (i < 4) { i = i + 1; } print(i);");
  ignore
    (F.Corpus.add c ~gain:3
       ~il:"il v1\nfunc 0 in 0\nend\nmain\nend"
       "function f(x) { return x + 1; } print(f(2));");
  F.Corpus.entries c

let test_distill_coverage_preserving () =
  let entries = distill_fixture () in
  let d = F.Sync.distill entries in
  check_int "starts from every entry" 3 d.F.Sync.d_total;
  check_bool "kept a nonempty subset" true
    (d.F.Sync.d_entries <> [] && List.length d.F.Sync.d_entries <= 3);
  (* replaying exactly the kept entries reproduces the full feature set *)
  let cov = F.Coverage.create () in
  List.iter
    (fun (e : F.Corpus.entry) ->
      ignore
        (F.Coverage.add_features cov
           (F.Coverage.features_of_run (F.Oracle.run_instrumented e.F.Corpus.source))))
    d.F.Sync.d_entries;
  check_int "kept subset covers everything" d.F.Sync.d_features (F.Coverage.count cov);
  check_int "one cover count per kept entry" (List.length d.F.Sync.d_entries)
    (List.length d.F.Sync.d_covers);
  check_bool "every kept entry contributes" true
    (List.for_all (fun n -> n > 0) d.F.Sync.d_covers);
  (* deterministic: same entries, same greedy order *)
  let d' = F.Sync.distill entries in
  check_bool "distillation is deterministic" true
    (List.map (fun (e : F.Corpus.entry) -> e.F.Corpus.id) d.F.Sync.d_entries
    = List.map (fun (e : F.Corpus.entry) -> e.F.Corpus.id) d'.F.Sync.d_entries
    && d.F.Sync.d_covers = d'.F.Sync.d_covers)

let is_hex32 s = String.length s = 32 && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

let test_manifest_golden_format () =
  let entries = distill_fixture () in
  let d = F.Sync.distill entries in
  let text = F.Sync.manifest d in
  let lines = String.split_on_char '\n' text |> List.filter (fun l -> l <> "") in
  (* header: pinned verbatim *)
  check_string "version line" "jitbull distilled corpus v1" (List.nth lines 0);
  check_string "entries line"
    (Printf.sprintf "entries %d" (List.length d.F.Sync.d_entries))
    (List.nth lines 1);
  check_string "features line"
    (Printf.sprintf "features %d" d.F.Sync.d_features)
    (List.nth lines 2);
  check_string "of line" "of 3" (List.nth lines 3);
  (* entry lines: [entry NNNNNN cover N md5 <hex32> <js|il>] in cover
     order, with the digest of the kept entry's exact source *)
  List.iteri
    (fun ord ((e : F.Corpus.entry), cover) ->
      let line = List.nth lines (4 + ord) in
      match String.split_on_char ' ' line with
      | [ "entry"; o; "cover"; c; "md5"; h; kind ] ->
        check_string "ordinal is six digits" (Printf.sprintf "%06d" ord) o;
        check_string "cover count" (string_of_int cover) c;
        check_bool "md5 is 32 hex chars" true (is_hex32 h);
        check_string "md5 matches the source"
          (Digest.to_hex (Digest.string e.F.Corpus.source))
          h;
        check_string "kind tags the il sidecar"
          (match e.F.Corpus.il with Some _ -> "il" | None -> "js")
          kind
      | _ -> Alcotest.failf "malformed entry line: %s" line)
    (List.combine d.F.Sync.d_entries d.F.Sync.d_covers)

let test_write_distilled_layout () =
  let entries = distill_fixture () in
  let d = F.Sync.distill entries in
  let dir = tmp_dir "jitbull_distilled" in
  F.Sync.write_distilled ~dir d;
  let read path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  check_string "MANIFEST is the manifest" (F.Sync.manifest d)
    (read (Filename.concat dir "MANIFEST"));
  List.iteri
    (fun ord (e : F.Corpus.entry) ->
      check_string "renumbered .js holds the source" e.F.Corpus.source
        (read (Filename.concat dir (Printf.sprintf "%06d.js" ord)));
      match e.F.Corpus.il with
      | None ->
        check_bool "no spurious .il sidecar" false
          (Sys.file_exists (Filename.concat dir (Printf.sprintf "%06d.il" ord)))
      | Some il ->
        check_string ".il sidecar holds the IL" il
          (read (Filename.concat dir (Printf.sprintf "%06d.il" ord))))
    d.F.Sync.d_entries;
  (* a distilled directory is a loadable corpus: the CI campaign seeds
     from it directly *)
  let c = F.Corpus.create ~dir () in
  check_int "distilled dir reloads as a corpus" (List.length d.F.Sync.d_entries)
    (F.Corpus.length c)

let suite =
  ( "sync",
    [
      Alcotest.test_case "coverage merge: union + idempotent re-sync" `Quick
        test_coverage_union_and_idempotence;
      Alcotest.test_case "work leases: fresh ranges and stealing" `Quick
        test_work_leases_and_stealing;
      Alcotest.test_case "uploads dedup; broadcast pages by cursor" `Quick
        test_upload_dedup_and_broadcast;
      Alcotest.test_case "uploaded IL sidecars are validated" `Quick
        test_upload_il_sidecar_validated;
      Alcotest.test_case "two workers converge on the coverage union" `Slow
        test_two_worker_union;
      Alcotest.test_case "master restart keeps the persisted corpus" `Quick
        test_master_restart_keeps_corpus;
      Alcotest.test_case "distill: coverage-preserving and deterministic" `Quick
        test_distill_coverage_preserving;
      Alcotest.test_case "manifest: golden format" `Quick test_manifest_golden_format;
      Alcotest.test_case "write_distilled: layout round-trips as a corpus" `Quick
        test_write_distilled_layout;
    ] )
