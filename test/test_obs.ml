(* The observability layer: metrics semantics, span nesting, ring-buffer
   eviction, JSON-lines round-trip, and the engine integration — a VDC
   variant must produce a structured [policy_decide] event whose verdict
   and pass list match its audit record. *)

open Helpers
module Obs = Jitbull_obs.Obs
module Metrics = Jitbull_obs.Metrics
module Tracer = Jitbull_obs.Tracer
module Jsonx = Jitbull_obs.Jsonx
module V = Jitbull_vdc.Demonstrators
module Variants = Jitbull_vdc.Variants
module Db = Jitbull_core.Db
module Jitbull = Jitbull_core.Jitbull

let check_float = Alcotest.(check (float 1e-9))

(* A deterministic clock: every reading advances time by [step]. *)
let fake_clock ?(step = 0.001) () =
  let t = ref 0.0 in
  fun () ->
    t := !t +. step;
    !t

(* ---- metrics ---- *)

let test_counter_semantics () =
  let m = Metrics.create () in
  let c = Metrics.counter m "a" in
  Metrics.incr c;
  Metrics.incr c;
  Metrics.add c 40;
  check_int "counter accumulates" 42 (Metrics.counter_value c);
  (* get-or-create returns the same instrument *)
  Metrics.incr (Metrics.counter m "a");
  check_int "same instrument" 43 (Metrics.counter_value c);
  let g = Metrics.gauge m "g" in
  Metrics.set g 2.5;
  Metrics.set g 1.5;
  check_float "gauge keeps last" 1.5 (Metrics.gauge_value g);
  let view = Metrics.snapshot m in
  check_int "snapshot counter value" 43 (Option.get (Metrics.find_counter view "a"))

let test_histogram_semantics () =
  let m = Metrics.create () in
  let h = Metrics.histogram ~bounds:[| 1.0; 2.0; 4.0 |] m "h" in
  List.iter (Metrics.observe h) [ 0.5; 1.0; 1.5; 3.0; 100.0 ];
  let view = Metrics.snapshot m in
  let hv = Option.get (Metrics.find_histogram view "h") in
  check_int "count" 5 hv.Metrics.hv_count;
  check_float "sum" 106.0 hv.Metrics.hv_sum;
  check_float "min" 0.5 hv.Metrics.hv_min;
  check_float "max" 100.0 hv.Metrics.hv_max;
  (match hv.Metrics.hv_buckets with
  | [ (b1, c1); (b2, c2); (b3, c3); (binf, c4) ] ->
    check_float "bound 1" 1.0 b1;
    check_int "le 1.0 (0.5 and the boundary value 1.0)" 2 c1;
    check_float "bound 2" 2.0 b2;
    check_int "le 2.0" 1 c2;
    check_float "bound 3" 4.0 b3;
    check_int "le 4.0" 1 c3;
    check_bool "last bound is +inf" true (not (Float.is_finite binf));
    check_int "overflow bucket" 1 c4
  | _ -> Alcotest.fail "expected 4 buckets");
  (* quantiles stay within the observed range and are ordered *)
  check_bool "p50 <= p90" true (hv.Metrics.hv_p50 <= hv.Metrics.hv_p90);
  check_bool "p90 <= p99" true (hv.Metrics.hv_p90 <= hv.Metrics.hv_p99);
  check_bool "p99 <= max" true (hv.Metrics.hv_p99 <= hv.Metrics.hv_max);
  check_bool "p50 >= min" true (hv.Metrics.hv_p50 >= hv.Metrics.hv_min)

let test_prometheus_render () =
  let m = Metrics.create () in
  Metrics.add (Metrics.counter m "vm.calls") 7;
  Metrics.observe (Metrics.histogram ~bounds:[| 0.1 |] m "lat") 0.05;
  let text = Metrics.render_prometheus (Metrics.snapshot m) in
  let contains needle =
    let nl = String.length needle and l = String.length text in
    let rec go i = i + nl <= l && (String.equal (String.sub text i nl) needle || go (i + 1)) in
    go 0
  in
  check_bool "sanitized counter line" true (contains "vm_calls 7");
  check_bool "bucket line" true (contains "lat_bucket{le=\"0.1\"} 1");
  check_bool "+Inf bucket" true (contains "lat_bucket{le=\"+Inf\"} 1");
  check_bool "count line" true (contains "lat_count 1")

(* ---- tracer ---- *)

let test_span_nesting_and_durations () =
  let obs = Some (Obs.create ~clock:(fake_clock ()) ()) in
  let result =
    Obs.span obs "outer" (fun () ->
        Obs.event obs "inside";
        Obs.span obs "inner" (fun () -> 21 * 2))
  in
  check_int "span returns the body's value" 42 result;
  let events = Tracer.events (Obs.tracer (Option.get obs)) in
  check_int "three events" 3 (List.length events);
  let find name = List.find (fun (e : Tracer.event) -> String.equal e.Tracer.name name) events in
  let outer = find "outer" and inner = find "inner" and inside = find "inside" in
  check_int "outer depth" 1 outer.Tracer.depth;
  check_int "inner depth" 2 inner.Tracer.depth;
  check_int "point event depth" 1 inside.Tracer.depth;
  check_bool "inner recorded before outer closes" true (inner.Tracer.seq < outer.Tracer.seq);
  check_bool "durations non-negative" true
    (outer.Tracer.dur >= 0.0 && inner.Tracer.dur >= 0.0);
  (* with the fake clock every reading advances, so the enclosing span is
     strictly longer than the nested one *)
  check_bool "outer dur > inner dur" true (outer.Tracer.dur > inner.Tracer.dur);
  (* the span durations feed <name>.seconds histograms *)
  let view = Obs.view obs in
  check_bool "outer histogram exists" true
    (Option.is_some (Metrics.find_histogram view "outer.seconds"))

let test_span_duration_monotonicity () =
  (* deeper nesting = more clock reads = longer measured spans; durations
     of the same-shape span must be non-decreasing in nesting depth *)
  let obs = Some (Obs.create ~clock:(fake_clock ()) ()) in
  let rec nest d = if d = 0 then () else Obs.span obs (Printf.sprintf "lvl%d" d) (fun () -> nest (d - 1)) in
  nest 4;
  let events = Tracer.events (Obs.tracer (Option.get obs)) in
  let dur name =
    (List.find (fun (e : Tracer.event) -> String.equal e.Tracer.name name) events).Tracer.dur
  in
  check_bool "lvl4 >= lvl3" true (dur "lvl4" >= dur "lvl3");
  check_bool "lvl3 >= lvl2" true (dur "lvl3" >= dur "lvl2");
  check_bool "lvl2 >= lvl1" true (dur "lvl2" >= dur "lvl1")

let test_ring_eviction () =
  let tr = Tracer.create ~capacity:4 ~clock:(fake_clock ()) () in
  for i = 1 to 10 do
    Tracer.event tr (Printf.sprintf "e%d" i)
  done;
  check_int "total recorded" 10 (Tracer.total_recorded tr);
  let events = Tracer.events tr in
  check_int "ring bounded" 4 (List.length events);
  Alcotest.(check (list string))
    "newest four, oldest first"
    [ "e7"; "e8"; "e9"; "e10" ]
    (List.map (fun (e : Tracer.event) -> e.Tracer.name) events);
  let seqs = List.map (fun (e : Tracer.event) -> e.Tracer.seq) events in
  check_bool "seq strictly increasing" true
    (List.for_all2 ( < ) (List.filteri (fun i _ -> i < 3) seqs) (List.tl seqs))

(* ---- correlation: ids and parents ---- *)

let contains_sub hay needle =
  let nl = String.length needle and l = String.length hay in
  let rec go i =
    i + nl <= l && (String.equal (String.sub hay i nl) needle || go (i + 1))
  in
  go 0

let test_span_ids_and_parents () =
  let tr = Tracer.create ~clock:(fake_clock ()) () in
  Tracer.with_span tr "outer" (fun () ->
      Tracer.event tr "point";
      Tracer.with_span tr "inner" (fun () -> Tracer.event tr "innermost"));
  Tracer.event tr "after";
  let events = Tracer.events tr in
  let find name =
    List.find (fun (e : Tracer.event) -> String.equal e.Tracer.name name) events
  in
  let outer = find "outer" and inner = find "inner" and point = find "point" in
  let innermost = find "innermost" and after = find "after" in
  check_bool "outer is top-level" true (outer.Tracer.parent = None);
  check_bool "point parents to outer" true (point.Tracer.parent = Some outer.Tracer.id);
  check_bool "inner parents to outer" true (inner.Tracer.parent = Some outer.Tracer.id);
  check_bool "innermost parents to inner" true
    (innermost.Tracer.parent = Some inner.Tracer.id);
  check_bool "closed spans leave no parent behind" true (after.Tracer.parent = None);
  check_int "outer depth" 1 outer.Tracer.depth;
  check_int "inner depth" 2 inner.Tracer.depth;
  check_int "point depth" 1 point.Tracer.depth;
  check_int "innermost depth" 2 innermost.Tracer.depth;
  check_int "top-level event depth" 0 after.Tracer.depth;
  let ids = List.map (fun (e : Tracer.event) -> e.Tracer.id) events in
  check_bool "ids are non-zero" true (List.for_all (fun i -> i > 0) ids);
  check_int "ids are unique" (List.length ids)
    (List.length (List.sort_uniq compare ids))

let test_ring_wraparound_concurrent () =
  let cap = 32 and per_domain = 50 in
  let tr = Tracer.create ~capacity:cap ~clock:(fake_clock ()) () in
  let worker d () =
    for i = 1 to per_domain do
      Tracer.with_span tr (Printf.sprintf "d%d_s%d" d i) (fun () ->
          Tracer.event tr (Printf.sprintf "d%d_e%d" d i))
    done
  in
  List.iter Domain.join (List.init test_domains (fun d -> Domain.spawn (worker d)));
  check_int "every event counted across domains" (test_domains * per_domain * 2)
    (Tracer.total_recorded tr);
  let events = Tracer.events tr in
  check_int "ring stays bounded" cap (List.length events);
  let seqs = List.map (fun (e : Tracer.event) -> e.Tracer.seq) events in
  check_bool "seqs strictly increasing oldest-first" true
    (fst (List.fold_left (fun (ok, prev) s -> (ok && s > prev, s)) (true, -1) seqs));
  let ids = List.map (fun (e : Tracer.event) -> e.Tracer.id) events in
  check_int "retained ids unique" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  (* span ids are allocated at open, before any child records: every
     parent reference points backwards. A parent that fell off the ring
     is an orphan (allowed); one that survived must be a span. *)
  let by_id = Hashtbl.create cap in
  List.iter (fun (e : Tracer.event) -> Hashtbl.replace by_id e.Tracer.id e) events;
  List.iter
    (fun (e : Tracer.event) ->
      match e.Tracer.parent with
      | None -> ()
      | Some p ->
        check_bool "parent id precedes child id" true (p < e.Tracer.id);
        (match Hashtbl.find_opt by_id p with
        | None -> ()
        | Some pe -> check_bool "resolved parent is a span" true (pe.Tracer.kind = Tracer.Span)))
    events

let test_label_escaping () =
  check_string "backslash, quote and newline escaped"
    "a\\\\b \\\"q\\\" end\\n"
    (Metrics.escape_label_value "a\\b \"q\" end\n");
  check_string "clean value untouched" "plain_value.9"
    (Metrics.escape_label_value "plain_value.9");
  (* a hostile function name must not break the exposition format *)
  let module Audit = Jitbull_obs.Audit in
  let au = Audit.create () in
  ignore
    (Audit.append au ~func_name:"evil\"f\\n{}\nname" ~func_index:0
       ~bytecode_hash:0 ~feedback_hash:0 ~verdict:Audit.Forbid ~matches:[]
       ~thr:2 ~ratio:0.5 ~prefilter_candidates:0 ~prefilter_hits:0
       ~db_generation:0 ~db_size:0 ~source:Audit.Fresh ~duration:0.0 ());
  let text = Audit.render_prometheus au in
  check_bool "escaped func label present" true
    (contains_sub text "func=\"evil\\\"f\\\\n{}\\nname\"");
  (* no sample line may be torn by a raw newline inside a label value *)
  List.iter
    (fun line ->
      if String.length line > 0 && line.[0] <> '#' then
        check_bool ("sample line has a value: " ^ line) true
          (String.contains line ' '))
    (String.split_on_char '\n' text)

(* ---- sink failures ---- *)

let append_allow au i =
  ignore
    (Audit.append au ~func_name:(Printf.sprintf "f%d" i) ~func_index:i ~bytecode_hash:0
       ~feedback_hash:0 ~verdict:Audit.Allow ~matches:[] ~thr:2 ~ratio:0.5
       ~prefilter_candidates:0 ~prefilter_hits:0 ~db_generation:0 ~db_size:0
       ~source:Audit.Fresh ~duration:0.0 ())

(* A sink that cannot be written detaches without taking its owner down:
   later appends and reads neither raise nor block, and the ring keeps
   every record. *)
let test_sink_failure_keeps_recording () =
  (* a full device: the first write fails (skipped where absent) *)
  if Sys.file_exists "/dev/full" then begin
    let tr = Tracer.create () in
    Tracer.set_file_sink tr "/dev/full";
    Tracer.event tr "a";
    Tracer.with_span tr "b" ignore;
    check_int "trace ring keeps both events" 2 (List.length (Tracer.events tr));
    Tracer.close tr;
    let au = Audit.create () in
    Audit.set_file_sink au "/dev/full";
    append_allow au 0;
    append_allow au 1;
    check_int "audit ring keeps both records" 2 (List.length (Audit.records au));
    Audit.close au
  end;
  (* rotation into a removed directory: the reopen fails *)
  let dir = Filename.temp_dir "jitbull_sink" "" in
  let path = Filename.concat dir "audit.jsonl" in
  let au = Audit.create () in
  Audit.set_file_sink au ~max_bytes:1 path;
  Sys.remove path;
  Sys.rmdir dir;
  append_allow au 0;
  append_allow au 1;
  check_int "audit ring keeps both records after the failed rotation" 2
    (List.length (Audit.records au));
  check_int "the failed rotation is not counted" 0 (Audit.sink_rotations au);
  Audit.close au

let test_jsonl_round_trip () =
  let path = Filename.temp_file "jitbull_trace" ".jsonl" in
  let obs = Some (Obs.create ~clock:(fake_clock ()) ()) in
  Obs.set_trace_file (Option.get obs) path;
  Obs.event obs "start" ~fields:[ ("n", Jsonx.Int 1); ("pi", Jsonx.Float 3.25) ];
  Obs.span obs "work"
    ~fields:[ ("what", Jsonx.String "a \"quoted\"\nthing"); ("flag", Jsonx.Bool true) ]
    (fun () -> Obs.event obs "mid" ~fields:[ ("xs", Jsonx.List [ Jsonx.Int 1; Jsonx.Int 2 ]) ]);
  Obs.close obs;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let decoded =
    List.rev_map (fun line -> Tracer.event_of_json (Jsonx.parse line)) !lines
  in
  let original = Tracer.events (Obs.tracer (Option.get obs)) in
  check_int "one line per event" (List.length original) (List.length decoded);
  List.iter2
    (fun (a : Tracer.event) (b : Tracer.event) ->
      check_int "seq" a.Tracer.seq b.Tracer.seq;
      check_string "name" a.Tracer.name b.Tracer.name;
      check_int "depth" a.Tracer.depth b.Tracer.depth;
      check_float "ts" a.Tracer.ts b.Tracer.ts;
      check_float "dur" a.Tracer.dur b.Tracer.dur;
      check_bool "kind" true (a.Tracer.kind = b.Tracer.kind);
      check_bool "fields" true (a.Tracer.fields = b.Tracer.fields))
    original decoded;
  Sys.remove path

let test_json_parser () =
  let v = Jsonx.parse {| {"a": [1, -2.5, "x\n", true, null], "b": {"c": 1e3}} |} in
  check_int "int" 1 (Jsonx.to_int (List.nth (Jsonx.to_list_exn (Jsonx.member "a" v)) 0));
  check_float "float" (-2.5)
    (Jsonx.to_float (List.nth (Jsonx.to_list_exn (Jsonx.member "a" v)) 1));
  check_string "escaped string" "x\n"
    (Jsonx.to_str (List.nth (Jsonx.to_list_exn (Jsonx.member "a" v)) 2));
  check_float "exponent" 1000.0 (Jsonx.to_float (Jsonx.member "c" (Jsonx.member "b" v)));
  (* encoder round-trips through the parser *)
  check_bool "round trip" true (Jsonx.parse (Jsonx.to_string v) = v);
  check_bool "reject garbage" true
    (match Jsonx.parse "{broken" with exception Jsonx.Parse_error _ -> true | _ -> false);
  check_string "runs around every escape" "a\"b\\c/d\be\012f\xc3\xa9g\x01"
    (Jsonx.to_str (Jsonx.parse {|"a\"b\\c\/d\be\ff\u00e9g\u0001"|}));
  let fails msg text =
    match Jsonx.parse text with
    | exception Jsonx.Parse_error m -> check_string ("message for " ^ text) msg m
    | _ -> Alcotest.fail ("should not parse: " ^ text)
  in
  fails "unterminated string at offset 4" {|"abc|};
  fails "unterminated string at offset 6" {|"a\nbc|};
  fails "truncated escape at offset 4" {|"ab\|};
  fails "unknown escape at offset 3" {|"a\q"|}

(* the encoder's string escaping, one byte at a time *)
let reference_json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let qcheck_json_strings =
  QCheck.Test.make ~count:(qcheck_count 500)
    ~name:"json strings: encoder equals the per-byte escaper and parses back"
    (QCheck.make ~print:String.escaped awkward_string_gen)
    (fun s ->
      let text = Jsonx.to_string (Jsonx.String s) in
      String.equal text (reference_json_string s) && Jsonx.parse text = Jsonx.String s)

(* ---- zero-cost-when-disabled ---- *)

let test_disabled_obs_is_transparent () =
  (* identical behaviour with no Obs.t installed: default config already
     has obs = None; spans are direct calls *)
  check_int "span None = f ()" 7 (Obs.span None "x" (fun () -> 7));
  Obs.incr None "nothing";
  Obs.event None "nothing";
  let src = "function f(x) { return x + 1; } var t = 0; for (var i = 0; i < 40; i++) t = f(t); print(t);" in
  check_string "engine output unchanged" (interp_output src) (jit_output src)

(* ---- engine integration ---- *)

let test_policy_decide_event_on_variant () =
  let d = V.find Jitbull_passes.Vuln_config.CVE_2019_17026 in
  let vulns = VC.make [ d.V.cve ] in
  let db = Db.create () in
  check_bool "harvest found DNA" true (Db.harvest db ~cve:d.V.name ~vulns d.V.source > 0);
  let obs = Obs.create () in
  let config = Jitbull.config ~obs ~vulns db in
  let variant = Variants.apply Variants.Rename d.V.source in
  (match V.run_exploit config variant d.V.expected with
  | V.Neutralized -> ()
  | V.Exploited _ -> Alcotest.fail "variant should have been neutralized");
  (* the flagged record in the audit trail … *)
  let fresh = fresh_decisions obs in
  let flagged = List.find (fun r -> flagged_passes r <> []) fresh in
  (* … must appear as a structured policy_decide trace event with the
     same function name, verdict and dangerous-pass list *)
  let events = Tracer.events (Obs.tracer obs) in
  let decides =
    List.filter (fun (e : Tracer.event) -> String.equal e.Tracer.name "policy_decide") events
  in
  check_int "one policy_decide event per fresh audit record" (List.length fresh)
    (List.length decides);
  let event_passes (e : Tracer.event) =
    match List.assoc_opt "passes" e.Tracer.fields with
    | Some (Jsonx.List ps) -> List.map Jsonx.to_str ps
    | _ -> []
  in
  let matching =
    List.find_opt
      (fun (e : Tracer.event) ->
        List.assoc_opt "func" e.Tracer.fields = Some (Jsonx.String flagged.Audit.func_name)
        && List.assoc_opt "verdict" e.Tracer.fields
           = Some (Jsonx.String (Audit.verdict_label flagged.Audit.verdict))
        && List.sort_uniq String.compare (event_passes e) = flagged_passes flagged)
      decides
  in
  check_bool "event carries the matching pass list" true (Option.is_some matching);
  let e = Option.get matching in
  check_bool "verdict is not allow" true
    (List.assoc_opt "verdict" e.Tracer.fields <> Some (Jsonx.String "allow"));
  check_bool "decision was timed" true (e.Tracer.dur > 0.0);
  (* the nested spans and per-pass histograms are there too *)
  let names = List.map (fun (e : Tracer.event) -> e.Tracer.name) events in
  check_bool "dna_extract span" true (List.mem "dna_extract" names);
  check_bool "db_compare span" true (List.mem "db_compare" names);
  check_bool "compile_ion span" true (List.mem "compile_ion" names);
  let view = Obs.view (Some obs) in
  check_bool "per-pass histogram recorded" true
    (Option.is_some (Metrics.find_histogram view "pass.gvn.seconds"));
  (* emitted by both comparator paths (naive pairwise and indexed); the
     variant matched, so at least one (entry, pass) pair must have *)
  check_bool "comparator matches counted" true
    (match Metrics.find_counter view "comparator.matches" with Some n -> n > 0 | None -> false);
  check_bool "prefilter hits counted on the indexed default" true
    (match Metrics.find_counter view "comparator.prefilter_hits" with
    | Some n -> n > 0
    | None -> false)

let suite =
  ( "obs",
    [
      Alcotest.test_case "counter and gauge semantics" `Quick test_counter_semantics;
      Alcotest.test_case "histogram buckets and quantiles" `Quick test_histogram_semantics;
      Alcotest.test_case "prometheus rendering" `Quick test_prometheus_render;
      Alcotest.test_case "span nesting and durations" `Quick test_span_nesting_and_durations;
      Alcotest.test_case "span duration monotonicity" `Quick test_span_duration_monotonicity;
      Alcotest.test_case "ring-buffer eviction" `Quick test_ring_eviction;
      Alcotest.test_case "span ids and parent resolution" `Quick test_span_ids_and_parents;
      Alcotest.test_case "ring wraparound under concurrent domains" `Quick
        test_ring_wraparound_concurrent;
      Alcotest.test_case "prometheus label-value escaping" `Quick test_label_escaping;
      Alcotest.test_case "JSON-lines round trip" `Quick test_jsonl_round_trip;
      Alcotest.test_case "sink failure keeps recording" `Quick
        test_sink_failure_keeps_recording;
      Alcotest.test_case "json parser" `Quick test_json_parser;
      qtest qcheck_json_strings;
      Alcotest.test_case "disabled obs is transparent" `Quick test_disabled_obs_is_transparent;
      Alcotest.test_case "policy_decide event on VDC variant" `Quick
        test_policy_decide_event_on_variant;
    ] )
