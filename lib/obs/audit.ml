(* The go/no-go audit trail. One structured record per policy decision,
   kept in a bounded ring with cumulative aggregates that survive ring
   eviction, an optional JSON-lines file sink, and query / rendering
   helpers. Like the tracer, one mutex covers ring, sink and aggregates:
   jitbulld's handler domains relay pushed records into one trail, and a
   client's pusher thread reads the trail its engine appends to.

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

(* IR change one pass made during one compile (explain capture): the
   chains are the Δ sides the comparator scored, δ⁺ and δ⁻ *)
type pass_diff = {
  pd_pass : string;
  pd_instrs_before : int;
  pd_instrs_after : int;
  pd_blocks_before : int;
  pd_blocks_after : int;
  pd_opcodes_added : (string * int) list;
  pd_opcodes_removed : (string * int) list;
  pd_chains_added : (string * int) list;
  pd_chains_removed : (string * int) list;
}

type compile_diff = {
  cd_func : string;
  cd_total_passes : int;
  cd_passes : pass_diff list;
  cd_capture_seconds : float;
}

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
  (* fleet provenance: set by jitbulld from the pushing client's id;
     None for local decisions *)
  client_id : string option;
  ir_diff : compile_diff option;
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
  mutable n_diffs : int;
  contributions : (string * string, int) Hashtbl.t;
      (* (pass, cve) → sub-chain instances the pass introduced on
         compiles where that CVE matched *)
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
    n_diffs = 0;
    contributions = Hashtbl.create 16;
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

(* key → count, as one JSON object in list order *)
let multiset_to_json kvs = Jsonx.Assoc (List.map (fun (k, c) -> (k, Jsonx.Int c)) kvs)

let multiset_of_json what = function
  | Jsonx.Assoc kvs -> List.map (fun (k, v) -> (k, Jsonx.to_int v)) kvs
  | _ -> raise (Jsonx.Parse_error (what ^ " must be an object"))

let pass_match_to_json pm =
  Jsonx.Assoc
    [
      ("pass", Jsonx.String pm.pm_pass);
      ("side", Jsonx.String pm.pm_side);
      ("eq_chains", Jsonx.Int pm.pm_eq_chains);
      ("max_eq_chains", Jsonx.Int pm.pm_max_eq_chains);
      ("chains", multiset_to_json pm.pm_chains);
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
      | v -> multiset_of_json "pass_match chains" v);
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

let pass_diff_to_json pd =
  Jsonx.Assoc
    [
      ("pass", Jsonx.String pd.pd_pass);
      ("instrs_before", Jsonx.Int pd.pd_instrs_before);
      ("instrs_after", Jsonx.Int pd.pd_instrs_after);
      ("blocks_before", Jsonx.Int pd.pd_blocks_before);
      ("blocks_after", Jsonx.Int pd.pd_blocks_after);
      ("opcodes_added", multiset_to_json pd.pd_opcodes_added);
      ("opcodes_removed", multiset_to_json pd.pd_opcodes_removed);
      ("chains_added", multiset_to_json pd.pd_chains_added);
      ("chains_removed", multiset_to_json pd.pd_chains_removed);
    ]

let pass_diff_of_json j =
  let int k = Jsonx.to_int (Jsonx.member k j) in
  let ms k = multiset_of_json ("ir_diff " ^ k) (Jsonx.member k j) in
  {
    pd_pass = Jsonx.to_str (Jsonx.member "pass" j);
    pd_instrs_before = int "instrs_before";
    pd_instrs_after = int "instrs_after";
    pd_blocks_before = int "blocks_before";
    pd_blocks_after = int "blocks_after";
    pd_opcodes_added = ms "opcodes_added";
    pd_opcodes_removed = ms "opcodes_removed";
    pd_chains_added = ms "chains_added";
    pd_chains_removed = ms "chains_removed";
  }

let compile_diff_to_json d =
  Jsonx.Assoc
    [
      ("func", Jsonx.String d.cd_func);
      ("total_passes", Jsonx.Int d.cd_total_passes);
      ("passes", Jsonx.List (List.map pass_diff_to_json d.cd_passes));
      ("capture_seconds", Jsonx.Float d.cd_capture_seconds);
    ]

let compile_diff_of_json j =
  {
    cd_func = Jsonx.to_str (Jsonx.member "func" j);
    cd_total_passes = Jsonx.to_int (Jsonx.member "total_passes" j);
    cd_passes = List.map pass_diff_of_json (Jsonx.to_list_exn (Jsonx.member "passes" j));
    cd_capture_seconds = Jsonx.to_float (Jsonx.member "capture_seconds" j);
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
    @
    match r.ir_diff with
    | Some d -> [ ("ir_diff", compile_diff_to_json d) ]
    | None -> [])

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
    ir_diff =
      (match Jsonx.member "ir_diff" j with
      | Jsonx.Null -> None
      | v -> Some (compile_diff_of_json v));
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

let bump tbl key n =
  Hashtbl.replace tbl key (n + Option.value ~default:0 (Hashtbl.find_opt tbl key))

(* the one write path: number the record, keep the aggregates, mirror
   it to the sink *)
let store t r =
  Mutex.protect t.mu @@ fun () ->
  let r = { r with seq = Ring.total t.ring } in
  Ring.push t.ring r;
  (match r.verdict with
  | Allow -> t.n_allow <- t.n_allow + 1
  | Disable _ -> t.n_disable <- t.n_disable + 1
  | Forbid -> t.n_forbid <- t.n_forbid + 1);
  (match r.source with Cache_hit -> t.n_cache_hits <- t.n_cache_hits + 1 | Fresh -> ());
  List.iter (fun cm -> bump t.cve_counts cm.cm_cve 1) r.matches;
  bump t.func_verdicts (r.func_name, verdict_label r.verdict) 1;
  Option.iter
    (fun d ->
      t.n_diffs <- t.n_diffs + 1;
      (* per matched (cve, pass): the sub-chain instances that pass
         introduced in this compile *)
      List.iter
        (fun cm ->
          List.iter
            (fun pm ->
              let introduced =
                List.fold_left
                  (fun acc pd ->
                    if String.equal pd.pd_pass pm.pm_pass then
                      List.fold_left (fun a (_, c) -> a + c) acc pd.pd_chains_added
                    else acc)
                  0 d.cd_passes
              in
              if introduced > 0 then bump t.contributions (pm.pm_pass, cm.cm_cve) introduced)
            cm.cm_passes)
        r.matches)
    r.ir_diff;
  Option.iter (fun s -> Sink.write s (Jsonx.to_string (record_to_json r))) t.sink;
  r

let append t ?ts ?ir_diff ~func_name ~func_index ~bytecode_hash
    ~feedback_hash ~verdict ~matches ~thr ~ratio ~prefilter_candidates
    ~prefilter_hits ~db_generation ~db_size ~source ~duration () =
  let ts = match ts with Some x -> x | None -> now t in
  store t
    {
      seq = 0;
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
      domain = (Domain.self () :> int);
      duration;
      client_id = None;
      ir_diff;
    }

let relay t ~client_id r = store t { r with ts = now t; client_id = Some client_id }

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

let render_prometheus t =
  let total, allow, disable, forbid, cache_hits, rotations, cves, funcs, diffs, contribs =
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
          |> List.sort compare,
          t.n_diffs,
          Hashtbl.fold (fun k n acc -> (k, n) :: acc) t.contributions []
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
  line "# TYPE jitbull_explain_diffs_total counter\n";
  line "jitbull_explain_diffs_total %d\n" diffs;
  if contribs <> [] then begin
    line "# TYPE jitbull_explain_chains_introduced_total counter\n";
    List.iter
      (fun ((pass, cve), n) ->
        line "jitbull_explain_chains_introduced_total{pass=\"%s\",cve=\"%s\"} %d\n"
          (Metrics.escape_label_value pass)
          (Metrics.escape_label_value cve)
          n)
      contribs
  end;
  Buffer.contents buf
