(* Fleet-scale verdict service: jitbulld throughput.

   Records a compile stream once — every Ion compile of a workload
   sample plus the eight demonstrators, captured as the exact
   [Proto.verdict_req] the remote analyzer would send, with the local
   verdict computed at record time — then replays it against a live
   in-process [Service] over raw keep-alive connections
   ([Client.verdict_roundtrip], one systhread per simulated engine).
   Hot replays hit the server's line cache; cold replays perturb the
   feedback hash per iteration so every request misses it and pays the
   full DNA parse + indexed query.

   Swept: client concurrency C (1/8/64/256) and batch size K (1/8/32).
   Every response is checked against the verdict recorded locally for
   that stream entry — the remote==local oracle holds on every benched
   request or the section fails.

   JITBULL_BENCH_SERVICE_BUDGET_S (default 0.6) is the per-config time
   budget; JITBULL_BENCH_SERVICE_MAXC caps the concurrency sweep (CI
   smoke runs with MAXC=8 and a small budget). *)

open Harness
module Table = Jitbull_util.Text_table
module Sexpr = Jitbull_util.Sexpr
module Dna = Jitbull_core.Dna
module Comparator = Jitbull_core.Comparator
module Http = Jitbull_obs.Http_export
module Proto = Jitbull_service.Proto
module Service = Jitbull_service.Service
module Client = Jitbull_service.Client

(* The recorded stream: requests in compile order plus the expected
   verdict per request id. *)
let record_stream () =
  let params = Comparator.default_params in
  let db = cached_db 8 in
  let reqs = ref [] in
  let expected : (int, Proto.verdict) Hashtbl.t = Hashtbl.create 64 in
  let next_id = ref 0 in
  let analyzer ~ctx ~func_index:_ ~name ~trace =
    let dna = Dna.extract trace in
    let matched = Db.matching ~params db dna in
    let _, verdict = Jitbull.verdict_of_matches matched in
    let id = !next_id in
    incr next_id;
    reqs :=
      {
        Proto.vr_id = id;
        vr_func = name;
        vr_bytecode_hash = ctx.Engine.cc_bytecode_hash;
        vr_feedback_hash = ctx.Engine.cc_feedback_hash;
        vr_dna = Sexpr.to_string (Dna.to_sexpr dna);
      }
      :: !reqs;
    Hashtbl.replace expected id verdict;
    Proto.decision_of_verdict verdict
  in
  List.iter
    (fun (w : W.t) ->
      let cfg = { Engine.default_config with Engine.analyzer = Some analyzer } in
      ignore (Engine.run_source cfg w.W.source))
    sample;
  (* the hit path: demonstrators on an engine carrying their bug *)
  List.iter
    (fun (d : V.t) ->
      let cfg =
        { Engine.default_config with
          Engine.vulns = VC.make [ d.V.cve ]; analyzer = Some analyzer }
      in
      try ignore (Engine.run_source cfg d.V.source) with _ -> ())
    V.all;
  (Array.of_list (List.rev !reqs), expected)

(* Weighted percentile over (round-trip latency, requests in that
   round-trip) samples: each request in a batch experienced the batch's
   round-trip latency. *)
let latency_percentile samples p =
  let samples = List.sort compare samples in
  let total = List.fold_left (fun a (_, c) -> a + c) 0 samples in
  if total = 0 then 0.0
  else begin
    let target = max 1 (int_of_float (ceil (p *. float_of_int total))) in
    let rec go acc = function
      | [] -> 0.0
      | (dt, c) :: rest -> if acc + c >= target then dt else go (acc + c) rest
    in
    go 0 samples
  end

type service_run = {
  sr_requests : int;
  sr_seconds : float;
  sr_rps : float;
  sr_p50_ms : float;
  sr_p99_ms : float;
  sr_mismatches : int;
  sr_errors : int;
  sr_cache_hits : int;  (** responses answered from the line cache (cold only) *)
}

(* One configuration: [clients] threads, each with its own keep-alive
   connection, pulling [batch]-sized windows off a shared cursor into
   the stream until the budget expires.

   [mode] is the replay flavour:
   - [`Hot]: the stream is replayed verbatim, so after the first pass
     every request hits the server's line cache — the fleet regime,
     where many engines compile the same hot functions. Batch bodies
     are pre-encoded once (one per cursor offset), keeping client-side
     serialization off the measured path too.
   - [`Cold]: every replayed request perturbs its feedback hash with
     the replay counter and a salt unique to the run, so no request
     line repeats within a run or across runs on one server: every
     request misses the line cache and pays the full JSON parse + DNA
     parse + indexed query. The verdict (a function of the DNA alone)
     is unchanged, so the oracle still applies. Each stream entry is
     encoded once, split around its feedback hash ([cold_template]), so
     the measured loop only splices in the perturbed number. *)
(* Cheap oracle check without a full JSON parse. [Proto.resp_to_json]
   renders compactly with [id] first and [verdict] second
   ({"id":N,"verdict":"allow",...}), so the measured loop can extract
   both with a linear scan — the full decoder, which would dominate the
   client side of the hot path on a small host, runs only on the warm-up
   round-trip. Verdict kinds are distinguished by their first letter.
   Returns the number of response lines; mismatched or malformed lines
   count into [mismatches]. *)
let scan_oracle ~expected ~mismatches body =
  let n = String.length body in
  let count = ref 0 in
  let pos = ref 0 in
  while !pos < n do
    let eol = match String.index_from_opt body !pos '\n' with
      | Some e -> e
      | None -> n
    in
    if eol > !pos then begin
      incr count;
      let ok =
        let i = !pos in
        if eol - i > 8 && String.sub body i 6 = {|{"id":|} then begin
          let j = ref (i + 6) in
          let neg = body.[!j] = '-' in
          if neg then incr j;
          let id = ref 0 in
          let digits = ref 0 in
          while !j < eol && body.[!j] >= '0' && body.[!j] <= '9' do
            id := (!id * 10) + (Char.code body.[!j] - 48);
            incr digits;
            incr j
          done;
          let id = if neg then - !id else !id in
          let vkey = {|,"verdict":"|} in
          let vl = String.length vkey in
          if !digits > 0 && !j + vl < eol && String.sub body !j vl = vkey then
            match (Hashtbl.find_opt expected id, body.[!j + vl]) with
            | Some `Allow, 'a' -> true
            | Some (`Disable _), 'd' -> true
            | Some `Forbid, 'f' -> true
            | _ -> false
          else false
        end
        else false
      in
      if not ok then Atomic.incr mismatches
    end;
    pos := eol + 1
  done;
  !count

(* First index of [sub] in [s] at or after [from]. *)
let rec find_sub s sub from =
  if from + String.length sub > String.length s then None
  else if String.sub s from (String.length sub) = sub then Some from
  else find_sub s sub (from + 1)

(* Responses answered from the line cache, counted by their
   ["cached":true] field. *)
let cached_answers body =
  let rec go from acc =
    match find_sub body {|"cached":true|} from with
    | Some i -> go (i + 1) (acc + 1)
    | None -> acc
  in
  go 0 0

(* [r]'s request line split around its feedback hash:
   [prefix ^ string_of_int h ^ suffix] is the line of [r] with feedback
   hash [h]. *)
let cold_template (r : Proto.verdict_req) =
  let line = Proto.encode_reqs [ r ] in
  let field = Printf.sprintf {|"feedback_hash":%d,|} r.Proto.vr_feedback_hash in
  match find_sub line field 0 with
  | None -> failwith "cold_template: feedback_hash not found"
  | Some i ->
    let start = i + String.length {|"feedback_hash":|} in
    let stop = i + String.length field - 1 in
    (String.sub line 0 start, String.sub line stop (String.length line - stop))

(* a salt per run, so no two cold runs send the same line *)
let cold_runs = Atomic.make 0

let service_run ~port ~clients ~batch ~budget_s ~mode ~stream ~expected =
  let conns =
    Array.init clients (fun _ -> Http.Conn.connect ~timeout_s:30.0 ~port ())
  in
  let n = Array.length stream in
  (* hot mode: body for the window starting at offset r, encoded once *)
  let hot_bodies =
    match mode with
    | `Cold -> [||]
    | `Hot ->
      Array.init n (fun r ->
          Proto.encode_reqs
            (List.init batch (fun k -> stream.((r + k) mod n))))
  in
  let cold_templates =
    match mode with
    | `Hot -> [||]
    | `Cold -> Array.map cold_template stream
  in
  let salt = Atomic.fetch_and_add cold_runs 1 lsl 32 in
  let cursor = Atomic.make 0 in
  let mismatches = Atomic.make 0 in
  let cache_hits = Atomic.make 0 in
  let errors = Atomic.make 0 in
  let completed = Atomic.make 0 in
  let lats = Array.make clients [] in
  (* one warm-up round-trip so connection setup and first-touch costs sit
     outside the timed region *)
  (match Client.verdict_roundtrip conns.(0) [ stream.(0) ] with
  | Ok _ -> ()
  | Error msg -> failwith ("service bench warm-up failed: " ^ msg));
  let stop_at = Unix.gettimeofday () +. budget_s in
  let worker i =
    let conn = ref conns.(i) in
    let rec loop acc =
      if Unix.gettimeofday () >= stop_at then acc
      else begin
        let base = Atomic.fetch_and_add cursor batch in
        let body =
          match mode with
          | `Hot -> hot_bodies.(base mod n)
          | `Cold ->
            (* the odd multiplier is a bijection, so distinct
               (salt, replay index) pairs give distinct hashes *)
            String.concat "\n"
              (List.init batch (fun k ->
                   let i = base + k in
                   let prefix, suffix = cold_templates.(i mod n) in
                   let h =
                     stream.(i mod n).Proto.vr_feedback_hash
                     lxor ((salt lor i) * 0x9E3779B1)
                   in
                   prefix ^ string_of_int h ^ suffix))
        in
        let t0 = Unix.gettimeofday () in
        match Http.Conn.request !conn ~meth:"POST" ~body "/verdict" with
        | 200, _, rbody ->
          let dt = Unix.gettimeofday () -. t0 in
          let got = scan_oracle ~expected ~mismatches rbody in
          if got <> batch then Atomic.incr mismatches;
          if mode = `Cold then
            ignore (Atomic.fetch_and_add cache_hits (cached_answers rbody));
          ignore (Atomic.fetch_and_add completed got);
          loop ((dt, got) :: acc)
        | _, _, _ | (exception _) -> (
          (* dead connection (timeout / hang-up): count it, reconnect
             and keep replaying; only an unreachable server stops us *)
          Atomic.incr errors;
          match Http.Conn.connect ~timeout_s:30.0 ~port () with
          | c ->
            (try Http.Conn.close !conn with _ -> ());
            conn := c;
            loop acc
          | exception _ -> acc)
      end
    in
    lats.(i) <- loop [];
    try Http.Conn.close !conn with _ -> ()
  in
  let t_start = Unix.gettimeofday () in
  let threads = Array.init clients (fun i -> Thread.create worker i) in
  Array.iter Thread.join threads;
  let elapsed = Unix.gettimeofday () -. t_start in
  let samples = Array.to_list lats |> List.concat in
  {
    sr_requests = Atomic.get completed;
    sr_seconds = elapsed;
    sr_rps = float_of_int (Atomic.get completed) /. Float.max 1e-9 elapsed;
    sr_p50_ms = latency_percentile samples 0.50 *. 1000.0;
    sr_p99_ms = latency_percentile samples 0.99 *. 1000.0;
    sr_mismatches = Atomic.get mismatches;
    sr_errors = Atomic.get errors;
    sr_cache_hits = Atomic.get cache_hits;
  }

let run () =
  section "Fleet-scale verdict service: jitbulld throughput (batch x concurrency)";
  let budget_s =
    match Sys.getenv_opt "JITBULL_BENCH_SERVICE_BUDGET_S" with
    | Some s -> (try float_of_string s with _ -> 0.6)
    | None -> 0.6
  in
  let maxc =
    match Sys.getenv_opt "JITBULL_BENCH_SERVICE_MAXC" with
    | Some s -> (try int_of_string s with _ -> 256)
    | None -> 256
  in
  let stream, expected = record_stream () in
  let stream_bytes =
    Array.fold_left
      (fun a r -> a + String.length (Proto.encode_reqs [ r ]))
      0 stream
  in
  Printf.printf
    "recorded compile stream: %d requests (%d non-allow verdicts, avg\n\
     request line %d bytes); every response is checked against the\n\
     verdict recorded locally for that stream entry. 'hot' replays the\n\
     stream verbatim (server line-cache hits: the fleet regime); 'cold'\n\
     perturbs each request's feedback hash so every request pays the\n\
     full JSON parse + DNA parse + indexed query.\n\n"
    (Array.length stream)
    (Hashtbl.fold (fun _ v n -> if v <> `Allow then n + 1 else n) expected 0)
    (stream_bytes / max 1 (Array.length stream));
  let cs = List.filter (fun c -> c <= maxc) [ 1; 8; 64; 256 ] in
  let cs = if cs = [] then [ 1 ] else cs in
  (* the acceptance comparison is anchored at C=64 (or the largest
     available concurrency below it when MAXC caps the sweep) *)
  let anchor_c =
    List.fold_left max 1 (List.filter (fun c -> c <= 64) cs)
  in
  let cold_c = min 8 anchor_c in
  (* hot: concurrency sweep at K=8, batch sweep at the anchor
     concurrency; cold: the uncached path at one moderate configuration,
     and unbatched at the anchor concurrency — the baseline where every
     request misses the line cache and is parsed and queried one per
     round-trip *)
  let configs =
    List.map (fun c -> (`Hot, c, 8)) cs
    @ [ (`Hot, anchor_c, 1); (`Hot, anchor_c, 32); (`Cold, cold_c, 8); (`Cold, anchor_c, 1) ]
  in
  let mode_name = function `Hot -> "hot" | `Cold -> "cold" in
  (* [workers] sized to the host: extra accept domains on a small
     machine only add stop-the-world GC participants *)
  let workers = max 1 (min 4 (Domain.recommended_domain_count ())) in
  (* long-lived verdict service tuning, mirrored in jitbulld: a larger
     minor heap keeps request-body allocation from forcing frequent
     stop-the-world minor collections across the server domains — on a
     small host those syncs are the dominant latency stragglers. The
     previous settings come back afterwards, so later sections run on
     the heap they run on alone. *)
  let gc = Gc.get () in
  Gc.set { gc with Gc.minor_heap_size = 4 * 1024 * 1024 };
  let results =
    Fun.protect ~finally:(fun () -> Gc.set gc) (fun () ->
        let svc = Service.create ~workers ~db:(cached_db 8) ~port:0 () in
        Fun.protect ~finally:(fun () -> Service.stop svc) (fun () ->
            List.map
              (fun (mode, clients, batch) ->
                ( (mode_name mode, clients, batch),
                  service_run ~port:(Service.port svc) ~clients ~batch ~budget_s ~mode
                    ~stream ~expected ))
              configs))
  in
  let rows =
    List.map
      (fun ((label, clients, batch), r) ->
        [
          label;
          string_of_int clients;
          string_of_int batch;
          string_of_int r.sr_requests;
          Printf.sprintf "%.0f" r.sr_rps;
          Printf.sprintf "%.2f" r.sr_p50_ms;
          Printf.sprintf "%.2f" r.sr_p99_ms;
          (if r.sr_mismatches = 0 then "identical"
           else Printf.sprintf "%d DIVERGED!" r.sr_mismatches);
          string_of_int r.sr_errors;
        ])
      results
  in
  Table.print
    ~headers:
      [ "mode"; "clients"; "batch"; "requests"; "req/s"; "p50 ms"; "p99 ms";
        "oracle"; "errors" ]
    rows;
  let find key = List.assoc_opt key results in
  let speedup_over base =
    match (find ("hot", anchor_c, 8), find base) with
    | Some fast, Some base when base.sr_rps > 0.0 -> fast.sr_rps /. base.sr_rps
    | _ -> 0.0
  in
  let speedup = speedup_over ("cold", anchor_c, 1) in
  let batch_only = speedup_over ("hot", anchor_c, 1) in
  let total_mismatches =
    List.fold_left (fun a (_, r) -> a + r.sr_mismatches) 0 results
  in
  let cold_hits = List.fold_left (fun a (_, r) -> a + r.sr_cache_hits) 0 results in
  Printf.printf
    "\nbatched (K=8) + server cache vs the cold unbatched baseline\n\
     (batch-1, every request a line-cache miss) at C=%d: %.1fx (target: >= 5x)\n\
     batching alone (same server, K=8 vs K=1): %.1fx\n\
     (this host has %d core(s))\n\
     remote==local oracle: %s\n\
     cold rows: %s\n"
    anchor_c speedup batch_only
    (Domain.recommended_domain_count ())
    (if total_mismatches = 0 then "held on every request"
     else Printf.sprintf "%d MISMATCHES" total_mismatches)
    (if cold_hits = 0 then "every response a line-cache miss"
     else Printf.sprintf "%d LINE-CACHE HITS" cold_hits);
  if total_mismatches <> 0 then failwith "service bench: remote verdicts diverged from local";
  if cold_hits <> 0 then failwith "service bench: a cold request hit the line cache";
  emit "service"
    (Jsonx.Assoc
       [
         ("stream_requests", Jsonx.Int (Array.length stream));
         ("budget_s", Jsonx.Float budget_s);
         ("cores", Jsonx.Int (Domain.recommended_domain_count ()));
         ( "runs",
           Jsonx.List
             (List.map
                (fun ((label, clients, batch), r) ->
                  Jsonx.Assoc
                    [
                      ("mode", Jsonx.String label);
                      ("clients", Jsonx.Int clients);
                      ("batch", Jsonx.Int batch);
                      ("requests", Jsonx.Int r.sr_requests);
                      ("seconds", Jsonx.Float r.sr_seconds);
                      ("requests_per_sec", Jsonx.Float r.sr_rps);
                      ("p50_ms", Jsonx.Float r.sr_p50_ms);
                      ("p99_ms", Jsonx.Float r.sr_p99_ms);
                      ("mismatches", Jsonx.Int r.sr_mismatches);
                      ("errors", Jsonx.Int r.sr_errors);
                    ])
                results) );
         ("speedup_vs_cold_unbatched", Jsonx.Float speedup);
         ("speedup_batch_only", Jsonx.Float batch_only);
         ("oracle_held", Jsonx.Bool (total_mismatches = 0));
       ])
