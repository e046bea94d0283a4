module Http = Jitbull_obs.Http_export
module Obs = Jitbull_obs.Obs
module Metrics = Jitbull_obs.Metrics
module Jsonx = Jitbull_obs.Jsonx
module Audit = Jitbull_obs.Audit
module Propagate = Jitbull_obs.Propagate
module Fleet = Jitbull_obs.Fleet
module Sexpr = Jitbull_util.Sexpr
module Db = Jitbull_core.Db
module Dna = Jitbull_core.Dna
module Comparator = Jitbull_core.Comparator
module Jitbull = Jitbull_core.Jitbull

(* Verdict memo: raw JSONL request line → pre-rendered response line.
   A hit skips JSON parse, DNA parse, the DB query AND response
   rendering — under fleet load, where many engines compile the same
   hot functions, this is most requests, and on the wire path it is the
   difference between per-request work that scales with the DNA size
   and work that scales with one hash of the line. A hit must match the
   stored request bytes, not just their hash: a hash collision is then
   a miss, never another request's verdict. Entries are valid only at
   the generation they were decided at, the same
   [store ~if_generation] discipline as the policy cache. *)
type line_cell = {
  l_gen : int;
  l_req : string;  (** the request line this cell answers *)
  l_line : string;  (** rendered response line, [vs_cached = true] *)
}

type t = {
  db : Db.t;
  params : Comparator.params;
  obs : Obs.t option;
  line_mu : Mutex.t;
  lines : (int, line_cell) Hashtbl.t;  (** keyed by {!Proto.line_key} *)
  max_lines : int;
  fleet : Fleet.t;  (** per-client telemetry pushed via [POST /push] *)
  mutable server : Http.Server.t option;
}

let db t = t.db
let fleet t = t.fleet

let port t =
  match t.server with Some s -> Http.Server.port s | None -> invalid_arg "port"

let server t =
  match t.server with Some s -> s | None -> invalid_arg "server"

(* ---- verdict path ---- *)

let json_error status msg =
  Http.respond ~status ~content_type:"application/json"
    (Jsonx.to_string (Jsonx.Assoc [ ("error", Jsonx.String msg) ]))

(* Every served decision is audited (when obs is installed) with the
   same evidence shape as a local one, plus fleet provenance: the
   requesting client id and the remote parent span that asked. *)
let decide t ?client_id ?remote_parent (req : Proto.verdict_req) :
    Proto.verdict_resp =
  let t0 = Obs.now t.obs in
  let dna = Dna.of_sexpr (Sexpr.of_string req.Proto.vr_dna) in
  let q = Db.matching_detailed ~params:t.params ?obs:t.obs t.db dna in
  let matched = Db.drop_details q.Db.q_matches in
  let dangerous, verdict = Jitbull.verdict_of_matches matched in
  (match t.obs with
  | None -> ()
  | Some o ->
    ignore
      (Audit.append (Obs.audit o) ?client_id ?remote_parent
         ~func_name:req.Proto.vr_func ~func_index:req.Proto.vr_id
         ~bytecode_hash:req.Proto.vr_bytecode_hash
         ~feedback_hash:req.Proto.vr_feedback_hash
         ~verdict:(Jitbull.audit_verdict verdict)
         ~matches:(Jitbull.audit_matches q.Db.q_matches)
         ~thr:t.params.Comparator.thr ~ratio:t.params.Comparator.ratio
         ~prefilter_candidates:q.Db.q_prefilter_candidates
         ~prefilter_hits:q.Db.q_prefilter_hits ~db_generation:q.Db.q_generation
         ~db_size:(Db.size t.db) ~source:Audit.Fresh
         ~duration:(Float.max 0.0 (Obs.now t.obs -. t0))
         ()));
  {
    Proto.vs_id = req.Proto.vr_id;
    vs_verdict = verdict;
    vs_passes = dangerous;
    vs_matched = matched;
    vs_generation = q.Db.q_generation;
    vs_cached = false;
  }

(* line cache: lookups are valid only at the generation [gen] the batch
   read on arrival, so a DB mutation implicitly drops every stored
   line *)
let line_find t ~gen key line =
  Mutex.lock t.line_mu;
  let r =
    match Hashtbl.find_opt t.lines key with
    | Some c when c.l_gen = gen && String.equal c.l_req line -> Some c
    | _ -> None
  in
  Mutex.unlock t.line_mu;
  r

let line_store t key cell =
  Mutex.lock t.line_mu;
  if Hashtbl.length t.lines >= t.max_lines then Hashtbl.reset t.lines;
  Hashtbl.replace t.lines key cell;
  Mutex.unlock t.line_mu

let verdict_body t ?client_id ?remote_parent body =
  let lines =
    String.split_on_char '\n' body
    |> List.filter_map (fun l ->
           let l = String.trim l in
           if l = "" then None else Some l)
  in
  if lines = [] then json_error 400 "empty batch"
  else begin
    Obs.observe t.obs ~bounds:Metrics.size_bounds "service.batch_size"
      (float_of_int (List.length lines));
    let gen = Db.generation t.db in
    let answer line =
      let key = Proto.line_key line in
      match line_find t ~gen key line with
      | Some c ->
        Obs.incr t.obs "service.cache_hits";
        c.l_line
      | None ->
        Obs.incr t.obs "service.cache_misses";
        let req = Proto.req_of_json (Jsonx.parse line) in
        let resp = decide t ?client_id ?remote_parent req in
        (* store only a verdict decided at (and still valid at) one
           generation; the stored line answers repeats as cached *)
        if resp.Proto.vs_generation = Db.generation t.db then
          line_store t key
            {
              l_gen = resp.Proto.vs_generation;
              l_req = line;
              l_line =
                Jsonx.to_string
                  (Proto.resp_to_json { resp with Proto.vs_cached = true });
            };
        Jsonx.to_string (Proto.resp_to_json resp)
    in
    match List.map answer lines with
    | answers ->
      Http.respond ~content_type:"application/jsonl"
        (String.concat "\n" answers)
    | exception Jsonx.Parse_error msg -> json_error 400 ("bad request: " ^ msg)
    | exception Sexpr.Decode_error msg -> json_error 400 ("bad dna: " ^ msg)
  end

(* One "service.verdict" span per HTTP request, parented — via the
   traceparent header — on the client-side span that issued the batch:
   merging this process's trace file with the engine's yields one
   connected chain from the engine's tier_up_request through here.
   [Obs.record_span] synthesizes the span without touching the serving
   thread's span stack, so concurrent connection threads can't
   mis-parent each other. *)
let verdict_response t ?ctx ?client body =
  let t0 = Obs.now t.obs in
  let remote_parent = Option.map (fun c -> c.Propagate.parent_id) ctx in
  let resp = verdict_body t ?client_id:client ?remote_parent body in
  (if resp.Http.rs_status = 200 then
     let fields =
       (match client with
       | Some c -> [ ("client", Jsonx.String c) ]
       | None -> [])
       @
       match ctx with
       | Some c -> [ ("trace_id", Jsonx.String c.Propagate.trace_id) ]
       | None -> []
     in
     Obs.record_span t.obs ~fields ?parent:remote_parent ~ts:t0
       ~dur:(Float.max 0.0 (Obs.now t.obs -. t0))
       "service.verdict");
  resp

(* ---- subscribe / delta / gen ---- *)

(* long-poll tick of [GET /subscribe] *)
let subscribe_poll_s = 0.005

let gen_json g = Jsonx.to_string (Jsonx.Assoc [ ("generation", Jsonx.Int g) ])

(* Long poll: hold the request until the DB generation exceeds [g] or
   [timeout_ms] expires, then answer with the current generation either
   way. OCaml's [Condition] has no timed wait, so this sleep-polls at
   [subscribe_poll_s] — pushes arrive within one poll tick, which is
   well under any HTTP round-trip. Each waiting subscriber parks its
   connection thread; clients run one subscription per process. *)
let subscribe_response t query =
  match
    ( Http.parse_count ~max_value:max_int "gen" query ~default:0,
      Http.parse_count ~max_value:300_000 "timeout_ms" query ~default:25_000 )
  with
  | Error msg, _ | _, Error msg -> Http.bad_request msg
  | Ok g, Ok timeout_ms ->
    let deadline = Unix.gettimeofday () +. (float_of_int timeout_ms /. 1000.) in
    let rec wait () =
      let cur = Db.generation t.db in
      if cur > g then begin
        Obs.incr t.obs "service.gen_pushes_total";
        cur
      end
      else if Unix.gettimeofday () >= deadline then cur
      else begin
        Unix.sleepf subscribe_poll_s;
        wait ()
      end
    in
    Http.respond ~content_type:"application/json" (gen_json (wait ()))

let delta_response t query =
  match Http.parse_count ~max_value:max_int "gen" query ~default:0 with
  | Error msg -> Http.bad_request msg
  | Ok g ->
    let gen, sync = Db.delta_since t.db g in
    let mode, entries =
      match sync with
      | Db.Append es -> ("append", es)
      | Db.Resync es -> ("resync", es)
    in
    Http.respond ~content_type:"application/json"
      (Jsonx.to_string
         (Jsonx.Assoc
            [
              ("generation", Jsonx.Int gen);
              ("mode", Jsonx.String mode);
              ( "entries",
                Jsonx.List
                  (List.map
                     (fun e ->
                       Jsonx.String (Sexpr.to_string (Db.entry_to_sexpr e)))
                     entries) );
            ]))

(* ---- mutation (subscribers observe the generation bump on their next
   poll tick) ---- *)

let install t entry = Db.add t.db entry

let remove_cve t cve = Db.remove_cve t.db cve

let install_response t body =
  match Db.entry_of_sexpr (Sexpr.of_string body) with
  | exception Sexpr.Decode_error msg -> json_error 400 ("bad entry: " ^ msg)
  | entry ->
    install t entry;
    Http.respond ~content_type:"application/json" (gen_json (Db.generation t.db))

let remove_response t query =
  match List.assoc_opt "cve" query with
  | None | Some "" -> Http.bad_request "cve: required"
  | Some cve ->
    remove_cve t cve;
    Http.respond ~content_type:"application/json" (gen_json (Db.generation t.db))

(* ---- fleet telemetry (POST /push, GET /fleet) ---- *)

let push_response t body =
  match Fleet.decode_push body with
  | Error msg -> json_error 400 ("bad push: " ^ msg)
  | Ok (s, deltas) ->
    Fleet.apply t.fleet s ~deltas;
    Obs.incr t.obs "service.pushes_total";
    Obs.add t.obs "service.push_delta_records" (List.length deltas);
    Http.respond ~content_type:"application/json"
      (Jsonx.to_string
         (Jsonx.Assoc
            [
              ("ok", Jsonx.Bool true);
              ("clients", Jsonx.Int (List.length (Fleet.clients t.fleet)));
            ]))

let fleet_response t query =
  match List.assoc_opt "format" query with
  | Some "html" ->
    Http.respond ~content_type:"text/html; charset=utf-8"
      (Fleet.render_html t.fleet)
  | Some "json" ->
    Http.respond ~content_type:"application/json"
      (Jsonx.to_string (Fleet.to_json t.fleet))
  | _ ->
    Http.respond ~content_type:"text/plain; version=0.0.4"
      (Fleet.render_prometheus t.fleet)

(* ---- routing ---- *)

let handle t (req : Http.request) =
  let count ep =
    Obs.incr t.obs "service.requests_total";
    Obs.incr t.obs ("service.requests." ^ ep)
  in
  (* A present-but-malformed trace context is a client error on any
     route — hostile header values must not silently drop provenance. *)
  match
    match List.assoc_opt Propagate.header_name req.Http.rq_headers with
    | None -> Ok None
    | Some v -> Result.map Option.some (Propagate.decode v)
  with
  | Error msg -> json_error 400 msg
  | Ok ctx -> (
    let client = List.assoc_opt "x-jitbull-client" req.Http.rq_headers in
    match (req.Http.rq_path, req.Http.rq_meth) with
    | "/verdict", "POST" ->
      count "verdict";
      verdict_response t ?ctx ?client req.Http.rq_body
    | "/verdict", _ -> json_error 405 "POST required"
    | "/push", "POST" ->
      count "push";
      push_response t req.Http.rq_body
    | "/push", _ -> json_error 405 "POST required"
    | "/fleet", _ ->
      count "fleet";
      fleet_response t req.Http.rq_query
    | "/subscribe", _ ->
      count "subscribe";
      subscribe_response t req.Http.rq_query
    | "/delta", _ ->
      count "delta";
      delta_response t req.Http.rq_query
    | "/gen", _ ->
      count "gen";
      Http.respond ~content_type:"application/json"
        (gen_json (Db.generation t.db))
    | "/install", "POST" ->
      count "install";
      install_response t req.Http.rq_body
    | "/remove", "POST" ->
      count "remove";
      remove_response t req.Http.rq_query
    | _ -> (
      match t.obs with
      | Some obs -> (
        match Http.obs_routes ~obs req with
        | Some resp ->
          count
            (String.sub req.Http.rq_path 1 (String.length req.Http.rq_path - 1));
          resp
        | None -> Http.not_found ())
      | None -> Http.not_found ()))

let create ?(params = Comparator.default_params) ?(workers = 4) ?obs ~db ~port () =
  let t =
    {
      db;
      params;
      obs;
      line_mu = Mutex.create ();
      lines = Hashtbl.create 1024;
      max_lines = 65536;
      fleet = Fleet.create ();
      server = None;
    }
  in
  let server =
    Http.Server.start ~workers ~handler:(fun req -> handle t req) ~port ()
  in
  t.server <- Some server;
  t

let stop t = match t.server with Some s -> Http.Server.stop s | None -> ()
