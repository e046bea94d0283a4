(* The go/no-go audit trail. One structured record per policy decision,
   kept in a bounded ring with cumulative aggregates that survive ring
   eviction, an optional JSON-lines file sink, and query / rendering
   helpers. Like the tracer, one mutex covers ring, sink and aggregates,
   serializing helper compile domains and the main thread.

   This module deliberately speaks its own vocabulary ([verdict],
   [pass_match]) rather than the engine's: [lib/obs] sits below
   [lib/core] and [lib/jit] in the dependency order, so the analyzer
   converts its types on the way in. *)

module Ring = Jitbull_util.Ring

type verdict =
  | Allow
  | Disable of string list
  | Forbid

type pass_match = {
  pm_pass : string;
  pm_side : string;  (* "removed" or "added" *)
  pm_eq_chains : int;
  pm_max_eq_chains : int;
  pm_chains : (string * int) list;
      (* the common sub-chains behind pm_eq_chains: key → min multiplicity *)
}

type cve_match = {
  cm_cve : string;
  cm_passes : pass_match list;
}

type source =
  | Fresh
  | Cache_hit

type record = {
  seq : int;
  ts : float;
  func_name : string;
  func_index : int;
  bytecode_hash : int;
  feedback_hash : int;
  verdict : verdict;
  matches : cve_match list;
  thr : int;
  ratio : float;
  prefilter_candidates : int;
  prefilter_hits : int;
  db_generation : int;
  db_size : int;
  source : source;
  domain : int;
  duration : float;
  (* fleet provenance: set by jitbulld from the request's
     x-jitbull-client and traceparent headers; None for local decisions *)
  client_id : string option;
  remote_parent : int option;
}

type t = {
  ring : record Ring.t;  (* its total doubles as next seq *)
  mutable sink : Sink.t option;
  mu : Mutex.t;
  clock : unit -> float;
  start : float;
  (* cumulative aggregates, maintained at append so Prometheus series
     keep counting after the ring evicts old records *)
  mutable n_allow : int;
  mutable n_disable : int;
  mutable n_forbid : int;
  mutable n_cache_hits : int;
  cve_counts : (string, int) Hashtbl.t;
  func_verdicts : (string * string, int) Hashtbl.t;
}

let create ?(capacity = 1024) ?(clock : (unit -> float) option) () =
  let clock = match clock with Some c -> c | None -> Clock.now in
  {
    ring = Ring.create ~capacity;
    sink = None;
    mu = Mutex.create ();
    clock;
    start = clock ();
    n_allow = 0;
    n_disable = 0;
    n_forbid = 0;
    n_cache_hits = 0;
    cve_counts = Hashtbl.create 16;
    func_verdicts = Hashtbl.create 64;
  }

let now t = t.clock () -. t.start

let verdict_label = function
  | Allow -> "allow"
  | Disable _ -> "disable"
  | Forbid -> "forbid"

let verdict_to_string = function
  | Allow -> "allow"
  | Disable ps -> "disable(" ^ String.concat "," ps ^ ")"
  | Forbid -> "forbid"

let source_to_string = function Fresh -> "fresh" | Cache_hit -> "cache_hit"

let source_of_string = function
  | "fresh" -> Fresh
  | "cache_hit" -> Cache_hit
  | s -> raise (Jsonx.Parse_error ("unknown audit source " ^ s))

(* ---- JSON ---- *)

let verdict_to_json = function
  | Allow -> Jsonx.Assoc [ ("kind", Jsonx.String "allow") ]
  | Disable ps ->
    Jsonx.Assoc
      [
        ("kind", Jsonx.String "disable");
        ("passes", Jsonx.List (List.map (fun p -> Jsonx.String p) ps));
      ]
  | Forbid -> Jsonx.Assoc [ ("kind", Jsonx.String "forbid") ]

let verdict_of_json j =
  match Jsonx.to_str (Jsonx.member "kind" j) with
  | "allow" -> Allow
  | "disable" ->
    Disable
      (List.map Jsonx.to_str (Jsonx.to_list_exn (Jsonx.member "passes" j)))
  | "forbid" -> Forbid
  | s -> raise (Jsonx.Parse_error ("unknown audit verdict " ^ s))

let pass_match_to_json pm =
  Jsonx.Assoc
    [
      ("pass", Jsonx.String pm.pm_pass);
      ("side", Jsonx.String pm.pm_side);
      ("eq_chains", Jsonx.Int pm.pm_eq_chains);
      ("max_eq_chains", Jsonx.Int pm.pm_max_eq_chains);
      ( "chains",
        Jsonx.Assoc (List.map (fun (k, c) -> (k, Jsonx.Int c)) pm.pm_chains) );
    ]

let pass_match_of_json j =
  {
    pm_pass = Jsonx.to_str (Jsonx.member "pass" j);
    pm_side = Jsonx.to_str (Jsonx.member "side" j);
    pm_eq_chains = Jsonx.to_int (Jsonx.member "eq_chains" j);
    pm_max_eq_chains = Jsonx.to_int (Jsonx.member "max_eq_chains" j);
    pm_chains =
      (* absent in records written before the explain layer existed *)
      (match Jsonx.member "chains" j with
      | Jsonx.Null -> []
      | Jsonx.Assoc kvs -> List.map (fun (k, v) -> (k, Jsonx.to_int v)) kvs
      | _ -> raise (Jsonx.Parse_error "pass_match chains must be an object"));
  }

let cve_match_to_json cm =
  Jsonx.Assoc
    [
      ("cve", Jsonx.String cm.cm_cve);
      ("passes", Jsonx.List (List.map pass_match_to_json cm.cm_passes));
    ]

let cve_match_of_json j =
  {
    cm_cve = Jsonx.to_str (Jsonx.member "cve" j);
    cm_passes =
      List.map pass_match_of_json (Jsonx.to_list_exn (Jsonx.member "passes" j));
  }

let record_fields r =
  ([
      ("seq", Jsonx.Int r.seq);
      ("ts", Jsonx.Float r.ts);
      ("func", Jsonx.String r.func_name);
      ("func_index", Jsonx.Int r.func_index);
      ("bytecode_hash", Jsonx.Int r.bytecode_hash);
      ("feedback_hash", Jsonx.Int r.feedback_hash);
      ("verdict", verdict_to_json r.verdict);
      ("matches", Jsonx.List (List.map cve_match_to_json r.matches));
      ("thr", Jsonx.Int r.thr);
      ("ratio", Jsonx.Float r.ratio);
      ("prefilter_candidates", Jsonx.Int r.prefilter_candidates);
      ("prefilter_hits", Jsonx.Int r.prefilter_hits);
      ("db_generation", Jsonx.Int r.db_generation);
      ("db_size", Jsonx.Int r.db_size);
      ("source", Jsonx.String (source_to_string r.source));
      ("domain", Jsonx.Int r.domain);
      ("duration", Jsonx.Float r.duration);
    ]
    @ (match r.client_id with
      | Some c -> [ ("client", Jsonx.String c) ]
      | None -> [])
    @ (match r.remote_parent with
      | Some p -> [ ("remote_parent", Jsonx.Int p) ]
      | None -> []))

let record_to_json r = Jsonx.Assoc (record_fields r)

let record_of_json j =
  {
    seq = Jsonx.to_int (Jsonx.member "seq" j);
    ts = Jsonx.to_float (Jsonx.member "ts" j);
    func_name = Jsonx.to_str (Jsonx.member "func" j);
    func_index = Jsonx.to_int (Jsonx.member "func_index" j);
    bytecode_hash = Jsonx.to_int (Jsonx.member "bytecode_hash" j);
    feedback_hash = Jsonx.to_int (Jsonx.member "feedback_hash" j);
    verdict = verdict_of_json (Jsonx.member "verdict" j);
    matches =
      List.map cve_match_of_json (Jsonx.to_list_exn (Jsonx.member "matches" j));
    thr = Jsonx.to_int (Jsonx.member "thr" j);
    ratio = Jsonx.to_float (Jsonx.member "ratio" j);
    prefilter_candidates = Jsonx.to_int (Jsonx.member "prefilter_candidates" j);
    prefilter_hits = Jsonx.to_int (Jsonx.member "prefilter_hits" j);
    db_generation = Jsonx.to_int (Jsonx.member "db_generation" j);
    db_size = Jsonx.to_int (Jsonx.member "db_size" j);
    source = source_of_string (Jsonx.to_str (Jsonx.member "source" j));
    domain = Jsonx.to_int (Jsonx.member "domain" j);
    duration = Jsonx.to_float (Jsonx.member "duration" j);
    (* absent in records written before the fleet plane existed *)
    client_id =
      (match Jsonx.member "client" j with
      | Jsonx.Null -> None
      | v -> Some (Jsonx.to_str v));
    remote_parent =
      (match Jsonx.member "remote_parent" j with
      | Jsonx.Null -> None
      | v -> Some (Jsonx.to_int v));
  }

(* ---- recording ---- *)

let set_file_sink t ?max_bytes path =
  let sink = Sink.create ?max_bytes ~what:"audit" path in
  Mutex.protect t.mu (fun () ->
      Option.iter Sink.close t.sink;
      t.sink <- Some sink)

let sink_rotations t =
  Mutex.protect t.mu (fun () ->
      match t.sink with Some s -> Sink.rotations s | None -> 0)

let append t ?ts ?client_id ?remote_parent ~func_name ~func_index
    ~bytecode_hash ~feedback_hash ~verdict ~matches ~thr ~ratio
    ~prefilter_candidates ~prefilter_hits ~db_generation ~db_size ~source
    ~duration () =
  let ts = match ts with Some x -> x | None -> now t in
  let domain = (Domain.self () :> int) in
  Mutex.protect t.mu @@ fun () ->
  let r =
    {
      seq = Ring.total t.ring;
      ts;
      func_name;
      func_index;
      bytecode_hash;
      feedback_hash;
      verdict;
      matches;
      thr;
      ratio;
      prefilter_candidates;
      prefilter_hits;
      db_generation;
      db_size;
      source;
      domain;
      duration;
      client_id;
      remote_parent;
    }
  in
  Ring.push t.ring r;
  (match verdict with
  | Allow -> t.n_allow <- t.n_allow + 1
  | Disable _ -> t.n_disable <- t.n_disable + 1
  | Forbid -> t.n_forbid <- t.n_forbid + 1);
  (match source with Cache_hit -> t.n_cache_hits <- t.n_cache_hits + 1 | Fresh -> ());
  List.iter
    (fun cm ->
      Hashtbl.replace t.cve_counts cm.cm_cve
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.cve_counts cm.cm_cve)))
    matches;
  let fv = (func_name, verdict_label verdict) in
  Hashtbl.replace t.func_verdicts fv
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.func_verdicts fv));
  Option.iter (fun s -> Sink.write s (Jsonx.to_string (record_to_json r))) t.sink;
  r

(* ---- queries ---- *)

let records t = Mutex.protect t.mu (fun () -> Ring.to_list t.ring)
let total t = Ring.total t.ring

let last t n = List.rev (records t) |> List.filteri (fun i _ -> i < max 0 n)

(* Cumulative verdict totals (survive ring eviction) — what an engine
   pushes to the fleet aggregator, and what /fleet sums per client. *)
type totals = {
  tt_records : int;
  tt_allow : int;
  tt_disable : int;
  tt_forbid : int;
  tt_cache_hits : int;
}

let totals t =
  Mutex.protect t.mu (fun () ->
      {
        tt_records = Ring.total t.ring;
        tt_allow = t.n_allow;
        tt_disable = t.n_disable;
        tt_forbid = t.n_forbid;
        tt_cache_hits = t.n_cache_hits;
      })

(* Records with [seq >= from], oldest first — the audit-delta a pusher
   sends between snapshots (bounded by ring capacity: older deltas are
   already gone, which the cumulative totals cover). *)
let since t from_seq = List.filter (fun r -> r.seq >= from_seq) (records t)

let by_function t name =
  List.filter (fun r -> String.equal r.func_name name) (records t)

let by_cve t cve =
  List.filter
    (fun r -> List.exists (fun cm -> String.equal cm.cm_cve cve) r.matches)
    (records t)

let close t = Mutex.protect t.mu (fun () -> Option.iter Sink.close t.sink)

(* ---- rendering ---- *)

let table ?(limit = 20) t =
  let headers =
    [ "seq"; "ts"; "function"; "verdict"; "cves"; "eq"; "src"; "gen"; "dom" ]
  in
  let rows =
    last t limit |> List.rev
    |> List.map (fun r ->
           let cves = String.concat " " (List.map (fun cm -> cm.cm_cve) r.matches) in
           let eq =
             r.matches
             |> List.concat_map (fun cm -> cm.cm_passes)
             |> List.map (fun pm ->
                    Printf.sprintf "%s:%d/%d" pm.pm_pass pm.pm_eq_chains
                      pm.pm_max_eq_chains)
             |> String.concat " "
           in
           [
             string_of_int r.seq;
             Printf.sprintf "%.6f" r.ts;
             r.func_name;
             verdict_to_string r.verdict;
             (if cves = "" then "-" else cves);
             (if eq = "" then "-" else eq);
             source_to_string r.source;
             string_of_int r.db_generation;
             string_of_int r.domain;
           ])
  in
  (headers, rows)

let render_prometheus t =
  let total, allow, disable, forbid, cache_hits, rotations, cves, funcs =
    Mutex.protect t.mu (fun () ->
        ( Ring.total t.ring,
          t.n_allow,
          t.n_disable,
          t.n_forbid,
          t.n_cache_hits,
          (match t.sink with Some s -> Sink.rotations s | None -> 0),
          Hashtbl.fold (fun cve n acc -> (cve, n) :: acc) t.cve_counts []
          |> List.sort (fun (a, _) (b, _) -> String.compare a b),
          Hashtbl.fold (fun fv n acc -> (fv, n) :: acc) t.func_verdicts []
          |> List.sort compare ))
  in
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  line "# TYPE jitbull_audit_records_total counter\n";
  line "jitbull_audit_records_total %d\n" total;
  line "# TYPE jitbull_audit_verdicts_total counter\n";
  line "jitbull_audit_verdicts_total{verdict=\"allow\"} %d\n" allow;
  line "jitbull_audit_verdicts_total{verdict=\"disable\"} %d\n" disable;
  line "jitbull_audit_verdicts_total{verdict=\"forbid\"} %d\n" forbid;
  line "# TYPE jitbull_audit_cache_hits_total counter\n";
  line "jitbull_audit_cache_hits_total %d\n" cache_hits;
  line "# TYPE jitbull_audit_sink_rotations_total counter\n";
  line "jitbull_audit_sink_rotations_total %d\n" rotations;
  if cves <> [] then begin
    line "# TYPE jitbull_audit_cve_matches_total counter\n";
    List.iter
      (fun (cve, n) ->
        line "jitbull_audit_cve_matches_total{cve=\"%s\"} %d\n"
          (Metrics.escape_label_value cve) n)
      cves
  end;
  if funcs <> [] then begin
    line "# TYPE jitbull_audit_function_verdicts_total counter\n";
    List.iter
      (fun ((func, verdict), n) ->
        line "jitbull_audit_function_verdicts_total{func=\"%s\",verdict=\"%s\"} %d\n"
          (Metrics.escape_label_value func) verdict n)
      funcs
  end;
  Buffer.contents buf
