module Http = Jitbull_obs.Http_export
module Obs = Jitbull_obs.Obs
module Jsonx = Jitbull_obs.Jsonx
module Audit = Jitbull_obs.Audit
module Fleet = Jitbull_obs.Fleet
module Sexpr = Jitbull_util.Sexpr
module Db = Jitbull_core.Db
module Dna = Jitbull_core.Dna
module Comparator = Jitbull_core.Comparator
module Jitbull = Jitbull_core.Jitbull

type t = {
  db : Db.t;
  obs : Obs.t option;
  fleet : Fleet.t;  (** per-client telemetry pushed via [POST /push] *)
  stopping : bool Atomic.t;  (** set by {!stop}; ends every long poll *)
  mutable server : Http.Server.t option;
}

let db t = t.db
let fleet t = t.fleet

let port t =
  match t.server with Some s -> Http.Server.port s | None -> invalid_arg "port"

let server t =
  match t.server with Some s -> s | None -> invalid_arg "server"

let json_error status msg =
  Http.respond ~status ~content_type:"application/json"
    (Jsonx.to_string (Jsonx.Assoc [ ("error", Jsonx.String msg) ]))

(* ---- one in-process decision ---- *)

(* Audited (when obs is installed) with the same evidence shape as an
   engine's own decision. *)
let decide t (req : Proto.verdict_req) : Proto.verdict_resp =
  let t0 = Obs.now t.obs in
  let dna = Dna.of_sexpr (Sexpr.of_string req.Proto.vr_dna) in
  let q = Db.matching_detailed ?obs:t.obs t.db dna in
  let matched = Db.drop_details q.Db.q_matches in
  let dangerous, verdict = Jitbull.verdict_of_matches matched in
  (match t.obs with
  | None -> ()
  | Some o ->
    ignore
      (Audit.append (Obs.audit o) ~func_name:req.Proto.vr_func
         ~func_index:req.Proto.vr_id ~bytecode_hash:req.Proto.vr_bytecode_hash
         ~feedback_hash:req.Proto.vr_feedback_hash
         ~verdict:(Jitbull.audit_verdict verdict)
         ~matches:(Jitbull.audit_matches q.Db.q_matches)
         ~thr:Comparator.default_params.Comparator.thr
         ~ratio:Comparator.default_params.Comparator.ratio
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
  }

(* ---- subscribe / delta / gen ---- *)

(* long-poll tick of [GET /subscribe] *)
let subscribe_poll_s = 0.005

let gen_json g = Jsonx.to_string (Jsonx.Assoc [ ("generation", Jsonx.Int g) ])

(* Long poll: hold the request until the DB generation exceeds [g] or
   [timeout_ms] expires, then answer with the current generation either
   way. OCaml's [Condition] has no timed wait, so this sleep-polls at
   [subscribe_poll_s] — pushes arrive within one poll tick, which is
   well under any HTTP round-trip. Each waiting subscriber parks its
   connection thread; clients run one subscription per process. [stop]
   ends the wait at the next tick, so the server's domains can be
   joined. *)
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
      else if Unix.gettimeofday () >= deadline || Atomic.get t.stopping then cur
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
  let resp, pushed = Fleet.push_response t.fleet body in
  Option.iter
    (fun (s, deltas) ->
      (* the fleet's decisions land in this daemon's own trail (and its
         --audit-file), labeled with the client that made them *)
      Option.iter
        (fun o ->
          List.iter
            (fun r -> ignore (Audit.relay (Obs.audit o) ~client_id:s.Fleet.sn_client r))
            deltas)
        t.obs;
      Obs.incr t.obs "service.pushes_total";
      Obs.add t.obs "service.push_delta_records" (List.length deltas))
    pushed;
  resp

(* ---- routing ---- *)

let handle t (req : Http.request) =
  let count ep =
    Obs.incr t.obs "service.requests_total";
    Obs.incr t.obs ("service.requests." ^ ep)
  in
  match (req.Http.rq_path, req.Http.rq_meth) with
  | "/push", "POST" ->
    count "push";
    push_response t req.Http.rq_body
  | "/push", _ -> json_error 405 "POST required"
  | "/fleet", _ ->
    count "fleet";
    Fleet.fleet_response t.fleet req.Http.rq_query
  | "/subscribe", _ ->
    count "subscribe";
    subscribe_response t req.Http.rq_query
  | "/delta", _ ->
    count "delta";
    delta_response t req.Http.rq_query
  | "/gen", _ ->
    count "gen";
    Http.respond ~content_type:"application/json" (gen_json (Db.generation t.db))
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
        count (String.sub req.Http.rq_path 1 (String.length req.Http.rq_path - 1));
        resp
      | None -> Http.not_found ())
    | None -> Http.not_found ())

let create ?(workers = 4) ?obs ~db ~port () =
  let t =
    {
      db;
      obs;
      fleet = Fleet.create ();
      stopping = Atomic.make false;
      server = None;
    }
  in
  let server =
    Http.Server.start ~workers ~handler:(fun req -> handle t req) ~port ()
  in
  t.server <- Some server;
  t

let stop t =
  Atomic.set t.stopping true;
  match t.server with Some s -> Http.Server.stop s | None -> ()
