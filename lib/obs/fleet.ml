(* Fleet telemetry aggregation — the server half of `POST /push` and
   `GET /fleet`, served by jitbulld and the fuzz master alike.

   Engine clients push *cumulative* snapshots (audit verdict totals and
   their full metrics view) plus a
   bounded audit-record delta, framed as JSONL: the first line is the snapshot object, each further line one audit
   record. The aggregator stores the latest snapshot per client, so
   fleet rollups are exactly the sum of the clients' local counters —
   re-pushing is idempotent, and a client restart (totals reset to zero)
   self-corrects on its next push. *)

type snapshot = {
  sn_client : string;
  sn_ts : float;  (* client-side tracer seconds at push time *)
  sn_totals : Audit.totals;
  sn_metrics : Jsonx.t;  (* the client's Metrics.view_to_json *)
}

let snapshot_to_json s =
  Jsonx.Assoc
    [
      ("client", Jsonx.String s.sn_client);
      ("ts", Jsonx.Float s.sn_ts);
      ( "totals",
        Jsonx.Assoc
          [
            ("records", Jsonx.Int s.sn_totals.Audit.tt_records);
            ("allow", Jsonx.Int s.sn_totals.Audit.tt_allow);
            ("disable", Jsonx.Int s.sn_totals.Audit.tt_disable);
            ("forbid", Jsonx.Int s.sn_totals.Audit.tt_forbid);
            ("cache_hits", Jsonx.Int s.sn_totals.Audit.tt_cache_hits);
          ] );
      ("metrics", s.sn_metrics);
    ]

let snapshot_of_json j =
  let t = Jsonx.member "totals" j in
  {
    sn_client = Jsonx.to_str (Jsonx.member "client" j);
    sn_ts = Jsonx.to_float (Jsonx.member "ts" j);
    sn_totals =
      {
        Audit.tt_records = Jsonx.to_int (Jsonx.member "records" t);
        tt_allow = Jsonx.to_int (Jsonx.member "allow" t);
        tt_disable = Jsonx.to_int (Jsonx.member "disable" t);
        tt_forbid = Jsonx.to_int (Jsonx.member "forbid" t);
        tt_cache_hits = Jsonx.to_int (Jsonx.member "cache_hits" t);
      };
    sn_metrics = Jsonx.member "metrics" j;
  }

(* ---- JSONL push framing (snapshot line, then audit-delta lines) ---- *)

let encode_push s deltas =
  String.concat "\n"
    (Jsonx.to_string (snapshot_to_json s)
    :: List.map (fun r -> Jsonx.to_string (Audit.record_to_json r)) deltas)

let decode_push body =
  match
    String.split_on_char '\n' body
    |> List.filter (fun l -> String.trim l <> "")
  with
  | [] -> Error "empty push body"
  | first :: rest ->
    (try
       let s = snapshot_of_json (Jsonx.parse first) in
       if not (String.length s.sn_client > 0 && String.length s.sn_client <= 128)
       then Error "client id must be 1..128 bytes"
       else
         let deltas =
           List.map (fun l -> Audit.record_of_json (Jsonx.parse l)) rest
         in
         Ok (s, deltas)
     with Jsonx.Parse_error msg -> Error msg)

(* ---- the aggregator ---- *)

type client = {
  mutable c_snapshot : snapshot;
  mutable c_pushes : int;
  mutable c_delta_records : int;  (* audit-delta records ever received *)
  mutable c_last_push : float;  (* server wall clock *)
}

type t = {
  mu : Mutex.t;
  clients : (string, client) Hashtbl.t;
}

let create () = { mu = Mutex.create (); clients = Hashtbl.create 16 }

let apply t s ~deltas =
  Mutex.lock t.mu;
  (match Hashtbl.find_opt t.clients s.sn_client with
  | Some c ->
    c.c_snapshot <- s;
    c.c_pushes <- c.c_pushes + 1;
    c.c_delta_records <- c.c_delta_records + List.length deltas;
    c.c_last_push <- Unix.gettimeofday ()
  | None ->
    Hashtbl.replace t.clients s.sn_client
      {
        c_snapshot = s;
        c_pushes = 1;
        c_delta_records = List.length deltas;
        c_last_push = Unix.gettimeofday ();
      });
  Mutex.unlock t.mu

let sorted_clients t =
  Mutex.lock t.mu;
  let cs = Hashtbl.fold (fun id c acc -> (id, c) :: acc) t.clients [] in
  Mutex.unlock t.mu;
  List.sort (fun (a, _) (b, _) -> String.compare a b) cs

let clients t = List.map fst (sorted_clients t)

let rollup t =
  List.fold_left
    (fun acc (_, c) ->
      let tt = c.c_snapshot.sn_totals in
      {
        Audit.tt_records = acc.Audit.tt_records + tt.Audit.tt_records;
        tt_allow = acc.Audit.tt_allow + tt.Audit.tt_allow;
        tt_disable = acc.Audit.tt_disable + tt.Audit.tt_disable;
        tt_forbid = acc.Audit.tt_forbid + tt.Audit.tt_forbid;
        tt_cache_hits = acc.Audit.tt_cache_hits + tt.Audit.tt_cache_hits;
      })
    {
      Audit.tt_records = 0;
      tt_allow = 0;
      tt_disable = 0;
      tt_forbid = 0;
      tt_cache_hits = 0;
    }
    (sorted_clients t)

let rate num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* ---- rendering ---- *)

let render_prometheus t =
  let cs = sorted_clients t in
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let esc = Metrics.escape_label_value in
  line "# TYPE jitbull_fleet_clients gauge\n";
  line "jitbull_fleet_clients %d\n" (List.length cs);
  if cs <> [] then begin
    line "# TYPE jitbull_fleet_pushes_total counter\n";
    List.iter
      (fun (id, c) ->
        line "jitbull_fleet_pushes_total{client=\"%s\"} %d\n" (esc id) c.c_pushes)
      cs;
    line "# TYPE jitbull_fleet_verdicts_total counter\n";
    List.iter
      (fun (id, c) ->
        let tt = c.c_snapshot.sn_totals in
        line "jitbull_fleet_verdicts_total{client=\"%s\",verdict=\"allow\"} %d\n"
          (esc id) tt.Audit.tt_allow;
        line "jitbull_fleet_verdicts_total{client=\"%s\",verdict=\"disable\"} %d\n"
          (esc id) tt.Audit.tt_disable;
        line "jitbull_fleet_verdicts_total{client=\"%s\",verdict=\"forbid\"} %d\n"
          (esc id) tt.Audit.tt_forbid)
      cs;
    line "# TYPE jitbull_fleet_forbid_rate gauge\n";
    List.iter
      (fun (id, c) ->
        let tt = c.c_snapshot.sn_totals in
        line "jitbull_fleet_forbid_rate{client=\"%s\"} %.6f\n" (esc id)
          (rate tt.Audit.tt_forbid tt.Audit.tt_records))
      cs;
    line "# TYPE jitbull_fleet_cache_hit_rate gauge\n";
    List.iter
      (fun (id, c) ->
        let tt = c.c_snapshot.sn_totals in
        line "jitbull_fleet_cache_hit_rate{client=\"%s\"} %.6f\n" (esc id)
          (rate tt.Audit.tt_cache_hits tt.Audit.tt_records))
      cs
  end;
  let r = rollup t in
  line "# TYPE jitbull_fleet_rollup_verdicts_total counter\n";
  line "jitbull_fleet_rollup_verdicts_total{verdict=\"allow\"} %d\n"
    r.Audit.tt_allow;
  line "jitbull_fleet_rollup_verdicts_total{verdict=\"disable\"} %d\n"
    r.Audit.tt_disable;
  line "jitbull_fleet_rollup_verdicts_total{verdict=\"forbid\"} %d\n"
    r.Audit.tt_forbid;
  line "# TYPE jitbull_fleet_rollup_records_total counter\n";
  line "jitbull_fleet_rollup_records_total %d\n" r.Audit.tt_records;
  line "# TYPE jitbull_fleet_rollup_cache_hits_total counter\n";
  line "jitbull_fleet_rollup_cache_hits_total %d\n" r.Audit.tt_cache_hits;
  Buffer.contents buf

let totals_json tt =
  Jsonx.Assoc
    [
      ("records", Jsonx.Int tt.Audit.tt_records);
      ("allow", Jsonx.Int tt.Audit.tt_allow);
      ("disable", Jsonx.Int tt.Audit.tt_disable);
      ("forbid", Jsonx.Int tt.Audit.tt_forbid);
      ("cache_hits", Jsonx.Int tt.Audit.tt_cache_hits);
    ]

let to_json t =
  let cs = sorted_clients t in
  Jsonx.Assoc
    [
      ( "clients",
        Jsonx.Assoc
          (List.map
             (fun (id, c) ->
               ( id,
                 Jsonx.Assoc
                   [
                     ("pushes", Jsonx.Int c.c_pushes);
                     ("delta_records", Jsonx.Int c.c_delta_records);
                     ("totals", totals_json c.c_snapshot.sn_totals);
                     ("metrics", c.c_snapshot.sn_metrics);
                   ] ))
             cs) );
      ("rollup", totals_json (rollup t));
    ]

let html_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render_html t =
  let cs = sorted_clients t in
  let r = rollup t in
  let buf = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  line
    "<!doctype html><html><head><meta charset=\"utf-8\">\
     <title>jitbull fleet</title><style>body{font-family:monospace;\
     margin:2em}table{border-collapse:collapse}td,th{border:1px solid \
     #999;padding:4px 10px;text-align:right}th{background:#eee}td:first-child,\
     th:first-child{text-align:left}</style></head><body>\n";
  line "<h1>jitbull fleet</h1>\n";
  line "<p>%d client(s) &mdash; rollup: %d decisions, %d allow / %d disable / \
        %d forbid, %d cache hits</p>\n"
    (List.length cs) r.Audit.tt_records r.Audit.tt_allow r.Audit.tt_disable
    r.Audit.tt_forbid r.Audit.tt_cache_hits;
  line
    "<table><tr><th>client</th><th>pushes</th><th>decisions</th>\
     <th>allow</th><th>disable</th><th>forbid</th><th>forbid rate</th>\
     <th>cache hit rate</th></tr>\n";
  List.iter
    (fun (id, c) ->
      let tt = c.c_snapshot.sn_totals in
      line
        "<tr><td>%s</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td>\
         <td>%d</td><td>%.4f</td><td>%.4f</td></tr>\n"
        (html_escape id) c.c_pushes tt.Audit.tt_records tt.Audit.tt_allow
        tt.Audit.tt_disable tt.Audit.tt_forbid
        (rate tt.Audit.tt_forbid tt.Audit.tt_records)
        (rate tt.Audit.tt_cache_hits tt.Audit.tt_records))
    cs;
  line "</table>\n<p><a href=\"/metrics\">/metrics</a> &middot; \
        <a href=\"/explain\">/explain</a> &middot; \
        <a href=\"/fleet\">/fleet</a> (Prometheus)</p></body></html>\n";
  Buffer.contents buf

(* ---- the routes ---- *)

module Http = Http_export

let push_response t body =
  match decode_push body with
  | Error msg -> (Http.bad_request ("bad push: " ^ msg), None)
  | Ok (s, deltas) ->
    apply t s ~deltas;
    ( Http.respond ~content_type:"application/json"
        (Jsonx.to_string
           (Jsonx.Assoc
              [ ("ok", Jsonx.Bool true); ("clients", Jsonx.Int (List.length (clients t))) ])),
      Some (s, deltas) )

let fleet_response t query =
  match List.assoc_opt "format" query with
  | Some "html" -> Http.respond ~content_type:"text/html; charset=utf-8" (render_html t)
  | Some "json" -> Http.respond ~content_type:"application/json" (Jsonx.to_string (to_json t))
  | _ -> Http.respond ~content_type:"text/plain; version=0.0.4" (render_prometheus t)
