(* Telemetry: the observability layer measuring itself — per-pass
   latency percentiles, comparator throughput, the audit trail's own
   cost and the explain-capture A/B. *)

open Harness
module Table = Jitbull_util.Text_table
module Obs = Jitbull_obs.Obs
module Audit = Jitbull_obs.Audit
module Metrics = Jitbull_obs.Metrics
module Report = Jitbull_obs.Report

(* What does the audit trail itself cost? A synthetic append microbench
   (records/sec through the mutexed ring) and the JSONL footprint
   (bytes/record), plus the verdict mix the instrumented workload run
   actually produced. *)
let audit_cost obs =
  Printf.printf "\n-- audit trail --\n";
  let au = Obs.audit obs in
  let verdict_counts records =
    List.fold_left
      (fun (a, d, f) (r : Audit.record) ->
        match r.Audit.verdict with
        | Audit.Allow -> (a + 1, d, f)
        | Audit.Disable _ -> (a, d + 1, f)
        | Audit.Forbid -> (a, d, f + 1))
      (0, 0, 0) records
  in
  let engine_json =
    let records = Audit.records au in
    let allow, disable, forbid = verdict_counts records in
    let cache_hits =
      List.length
        (List.filter (fun r -> r.Audit.source = Audit.Cache_hit) records)
    in
    Printf.printf
      "workload run: %d decisions audited (allow %d / disable %d / forbid %d), %d cache hits\n"
      (Audit.total au) allow disable forbid cache_hits;
    Jsonx.Assoc
      [
        ("records_total", Jsonx.Int (Audit.total au));
        ("allow", Jsonx.Int allow);
        ("disable", Jsonx.Int disable);
        ("forbid", Jsonx.Int forbid);
        ("cache_hits", Jsonx.Int cache_hits);
      ]
  in
  (* Synthetic append throughput: a fresh ring, records shaped like a
     real disable verdict (one CVE, one matched pass). *)
  let n = 100_000 in
  let fresh = Audit.create () in
  let append ring i =
    ignore
      (Audit.append ring ~func_name:(Printf.sprintf "f%d" (i land 15))
         ~func_index:(i land 15) ~bytecode_hash:(i * 2654435761)
         ~feedback_hash:(i * 40503)
         ~verdict:(Audit.Disable [ "gvn" ])
         ~matches:
           [
             {
               Audit.cm_cve = "CVE-2019-17026";
               cm_passes =
                 [
                   {
                     Audit.pm_pass = "gvn";
                     pm_side = "removed";
                     pm_eq_chains = 3;
                     pm_max_eq_chains = 6;
                     pm_chains =
                       [ ("boundscheck->loadelement", 2); ("^guard->boundscheck", 1) ];
                   };
                 ];
             };
           ]
         ~thr:2 ~ratio:0.5 ~prefilter_candidates:8 ~prefilter_hits:1
         ~db_generation:4 ~db_size:8 ~source:Audit.Fresh ~duration:1e-5 ())
  in
  let (), dt =
    time (fun () ->
        for i = 0 to n - 1 do
          append fresh i
        done)
  in
  let rate = float_of_int n /. dt in
  let bytes =
    let sample = Audit.last fresh 64 in
    let total =
      List.fold_left
        (fun acc r ->
          (* +1: the newline each JSONL sink line costs on disk *)
          acc + String.length (Jsonx.to_string (Audit.record_to_json r)) + 1)
        0 sample
    in
    float_of_int total /. float_of_int (max 1 (List.length sample))
  in
  (* The ring estimate above re-serialises retained records; the number
     operators budget disk by is what the JSONL *file sink* actually
     writes. Run a second, smaller batch through [set_file_sink] and
     stat the file: real bytes/record and append throughput with the
     sink's serialise+write on the hot path. *)
  let sink_n = 10_000 in
  let sink_path = Filename.temp_file "jitbull_bench_audit" ".jsonl" in
  let sink_dt, sink_bytes =
    let sunk = Audit.create () in
    Audit.set_file_sink sunk sink_path;
    let (), sdt =
      time (fun () ->
          for i = 0 to sink_n - 1 do
            append sunk i
          done)
    in
    Audit.close sunk;
    let size = (Unix.stat sink_path).Unix.st_size in
    Sys.remove sink_path;
    (sdt, float_of_int size /. float_of_int sink_n)
  in
  let sink_rate = float_of_int sink_n /. sink_dt in
  Printf.printf
    "append microbench: %d records in %.2f ms — %.0f records/s, %.1f ns/record\n"
    n (dt *. 1000.0) rate (dt /. float_of_int n *. 1e9);
  Printf.printf "JSONL footprint (ring estimate): %.0f bytes/record\n" bytes;
  Printf.printf
    "JSONL file sink: %d records in %.2f ms — %.0f records/s, %.0f bytes/record on disk\n"
    sink_n (sink_dt *. 1000.0) sink_rate sink_bytes;
  emit "telemetry.audit"
    (Jsonx.Assoc
       [
         ("engine", engine_json);
         ("bench_records", Jsonx.Int n);
         ("seconds", Jsonx.Float dt);
         ("records_per_sec", Jsonx.Float rate);
         ("bytes_per_record", Jsonx.Float bytes);
         ("sink_records", Jsonx.Int sink_n);
         ("sink_seconds", Jsonx.Float sink_dt);
         ("sink_records_per_sec", Jsonx.Float sink_rate);
         ("sink_bytes_per_record", Jsonx.Float sink_bytes);
       ])

(* Explain capture A/B: the acceptance bar for the explainability layer
   is that overhead with capture *disabled* is unchanged — the capture
   branch must stay behind [Obs.explain]. Same workload, one
   configuration with capture off and one with it on; the capture side
   also reports the time the diff summarisation billed to
   [explain.capture_seconds]. Capture on also forces full DNA
   extraction (every pass's Δ, not only the DB's posted passes), which
   lands in [policy_decide]. Each run gets a fresh configuration (its
   own policy cache), so every run analyses its Ion compiles instead of
   answering runs 2-5 from the verdicts cached by run 1. The diffs live
   in the audit records, so the ring's capacity bounds their memory:
   the section reports the retained words per record on each side. *)
let explain_capture () =
  let w = Option.get (W.find "Microbench1") in
  let explain_ab explain =
    let obs = Obs.create ~explain () in
    let cfgs = List.init 5 (fun _ -> protected_config ~obs 4) in
    let (), wall =
      time (fun () ->
          List.iter (fun cfg -> ignore (Engine.run_source cfg w.W.source)) cfgs)
    in
    let view = Metrics.snapshot (Obs.metrics obs) in
    let hist_sum name =
      match Metrics.find_histogram view name with
      | Some hv -> hv.Metrics.hv_sum
      | None -> 0.0
    in
    let records = Jitbull_obs.Audit.records (Obs.audit obs) in
    let words =
      float_of_int (Obj.reachable_words (Obj.repr records))
      /. float_of_int (max 1 (List.length records))
    in
    (wall, hist_sum "policy_decide.seconds", hist_sum "explain.capture_seconds", words)
  in
  let off_wall, off_decide, _, off_words = explain_ab false in
  let on_wall, on_decide, on_capture, on_words = explain_ab true in
  Printf.printf
    "\nExplain capture A/B over 5 runs of %s (capture on forces full DNA extraction):\n\
    \  capture off: %.1f ms wall, %.2f ms in policy_decide, %.0f words per audit record\n\
    \  capture on:  %.1f ms wall, %.2f ms in policy_decide, %.2f ms in IR-diff capture, \
     %.0f words per audit record\n"
    w.W.name (off_wall *. 1000.0) (off_decide *. 1000.0) off_words
    (on_wall *. 1000.0) (on_decide *. 1000.0) (on_capture *. 1000.0) on_words;
  emit "telemetry.explain_capture"
    (Jsonx.Assoc
       [
         ("off_wall_seconds", Jsonx.Float off_wall);
         ("off_policy_decide_seconds", Jsonx.Float off_decide);
         ("off_words_per_record", Jsonx.Float off_words);
         ("on_wall_seconds", Jsonx.Float on_wall);
         ("on_policy_decide_seconds", Jsonx.Float on_decide);
         ("on_capture_seconds", Jsonx.Float on_capture);
         ("on_words_per_record", Jsonx.Float on_words);
       ])

let run () =
  section "Telemetry: pipeline pass percentiles and comparator throughput (#4 VDC DB)";
  Printf.printf
    "A fully instrumented run (metrics registry + tracer installed) over a\n\
     workload sample with four VDCs in the database: per-pass latency\n\
     percentiles from the fixed-bucket histograms, comparator throughput,\n\
     and tier dispatch counts.\n\n";
  let obs = Obs.create () in
  List.iter
    (fun (w : W.t) -> ignore (Engine.run_source (protected_config ~obs 4) w.W.source))
    sample;
  let view = Metrics.snapshot (Obs.metrics obs) in
  let headers, rows = Report.pass_profile view in
  Table.print ~headers rows;
  let counter name = Option.value ~default:0 (Metrics.find_counter view name) in
  (* Tail latency comes from the live registry via [Metrics.quantile] —
     the snapshot view only carries the fixed p50/p90 — so the figure
     printed here is the same estimator /healthz alarms on. *)
  let p99 name = Metrics.quantile (Metrics.histogram (Obs.metrics obs) name) 0.99 in
  (match Metrics.find_histogram view "comparator.seconds" with
  | Some hv when hv.Metrics.hv_count > 0 ->
    Printf.printf
      "\ncomparator: %d DNA-pair comparisons in %.2f ms (p50 %.1f us, p90 %.1f us, p99 %.1f us) — %.0f pairs/s, %d pass matches\n"
      hv.Metrics.hv_count
      (hv.Metrics.hv_sum *. 1000.0)
      (hv.Metrics.hv_p50 *. 1e6)
      (hv.Metrics.hv_p90 *. 1e6)
      (p99 "comparator.seconds" *. 1e6)
      (float_of_int hv.Metrics.hv_count /. hv.Metrics.hv_sum)
      (counter "comparator.matches")
  | _ -> ());
  (match Metrics.find_histogram view "policy_decide.seconds" with
  | Some hv when hv.Metrics.hv_count > 0 ->
    Printf.printf
      "policy_decide: %d verdicts (allow %d / disable %d / forbid %d), p90 %.1f us, p99 %.1f us\n"
      hv.Metrics.hv_count (counter "policy.allow") (counter "policy.disable")
      (counter "policy.forbid") (hv.Metrics.hv_p90 *. 1e6)
      (p99 "policy_decide.seconds" *. 1e6)
  | _ -> ());
  Printf.printf "dispatch: %d calls (%d interpreted, %d through JIT code)\n"
    (counter "vm.calls") (counter "vm.dispatch.interp") (counter "vm.dispatch.jit");
  Printf.printf "trace events recorded: %d (ring keeps the newest %d)\n"
    (Jitbull_obs.Tracer.total_recorded (Obs.tracer obs))
    (List.length (Jitbull_obs.Tracer.events (Obs.tracer obs)));
  (* the section payload carries its own host report: telemetry numbers
     archived out of a full --json document stay self-describing *)
  emit "telemetry"
    (Jsonx.Assoc
       [
         ("env_report", Env_report.to_json ());
         ("metrics", Metrics.view_to_json view);
       ]);
  audit_cost obs;
  explain_capture ()
