(** The go/no-go audit trail: one structured, append-only record per
    policy decision, answering — for any function the engine considered —
    {e which CVE entry matched, on which passes, with what EqChains
    scores against which Thr/Ratio, what the verdict was, whether it came
    from the policy cache, against which DB generation, and on which
    domain}. It is the engine's only per-decision log: the go/no-go
    analyzer appends a [Fresh] record per analysis, the engine a
    [Cache_hit] record per policy-cache hit.

    Records live in a bounded {!Jitbull_util.Ring} (oldest evicted)
    guarded by a mutex — jitbulld's handler domains relay pushed records
    into one trail, and a client's pusher thread reads the trail its
    engine appends to — and can additionally be streamed to a JSON-lines
    {!Sink}; a sink that fails to write detaches without disturbing the
    ring. Cumulative
    aggregates (verdict totals, per-CVE match counts, per-function
    verdict counts, IR diffs and the sub-chains each pass introduced)
    are maintained at append time so the Prometheus series in
    {!render_prometheus} keep counting after eviction.

    With explain capture on, a [Fresh] record also carries the compile's
    per-pass IR diff ([ir_diff]), so a decision and the IR change behind
    it are one record: appended, streamed, relayed and evicted together.

    Types here mirror, but do not reference, the engine's: [lib/obs]
    sits below [lib/core]/[lib/jit], so the analyzer converts its
    decision and the comparator's match details on the way in. *)

type verdict =
  | Allow
  | Disable of string list  (** the passes the engine was told to turn off *)
  | Forbid

(** One pass on which the comparator matched a DNA entry: the EqChains
    score and the ratio denominator [min (|δ|, |δ'|)] it was held
    against (paper §IV-E). [pm_side] is ["removed"] or ["added"] — which
    side of the Δ satisfied the Thr/Ratio test first. [pm_chains] is the
    evidence itself: the sub-chains common to both deltas on that side
    with their min multiplicities (they sum to [pm_eq_chains]), sorted by
    key — what {!Explain} prints as "matching sub-chains". Decoding
    tolerates records written before this field existed ([[]]). *)
type pass_match = {
  pm_pass : string;
  pm_side : string;
  pm_eq_chains : int;
  pm_max_eq_chains : int;
  pm_chains : (string * int) list;
}

type cve_match = {
  cm_cve : string;
  cm_passes : pass_match list;
}

type source =
  | Fresh  (** the comparator ran against the DB *)
  | Cache_hit  (** verdict replayed from the policy cache; [matches] is empty *)

(** IR change one pass made during one compile, as seen between its
    surrounding snapshots. Chains are the Δ sides of the paper's DNA
    vector: [pd_chains_added] is δ⁺ (sub-chain → multiplicity),
    [pd_chains_removed] is δ⁻, both sorted by sub-chain string. *)
type pass_diff = {
  pd_pass : string;
  pd_instrs_before : int;
  pd_instrs_after : int;
  pd_blocks_before : int;
  pd_blocks_after : int;
  pd_opcodes_added : (string * int) list;  (** opcode → count, sorted *)
  pd_opcodes_removed : (string * int) list;
  pd_chains_added : (string * int) list;
  pd_chains_removed : (string * int) list;
}

(** One compile's per-pass IR diff, summarized from its snapshot trace
    by the analyzer when explain capture is on. *)
type compile_diff = {
  cd_func : string;
  cd_total_passes : int;  (** pipeline passes the compile ran *)
  cd_passes : pass_diff list;  (** only passes that changed the IR *)
  cd_capture_seconds : float;
}

type record = {
  seq : int;  (** 0-based append order, never reused *)
  ts : float;  (** seconds since trail creation *)
  func_name : string;
  func_index : int;
  bytecode_hash : int;
  feedback_hash : int;
  verdict : verdict;
  matches : cve_match list;
  thr : int;  (** comparator Thr in force for this decision *)
  ratio : float;  (** comparator Ratio in force for this decision *)
  prefilter_candidates : int;  (** DB entries before the Thr prefilter *)
  prefilter_hits : int;  (** entries surviving it (0/0 on cache hits) *)
  db_generation : int;
  db_size : int;
  source : source;
  domain : int;  (** [Domain.self] of the deciding domain *)
  duration : float;  (** seconds spent deciding (0 on cache hits) *)
  client_id : string option;
      (** the fleet client whose [/push] carried the record (in
          jitbulld's trail); [None] locally *)
  ir_diff : compile_diff option;
      (** the compile's IR diff: [Fresh] records under explain capture;
          [None] otherwise *)
}

type t

(** [create ?capacity ?clock ()] — ring of at most [capacity] (default
    1024, min 1) records. [clock] as in {!Tracer.create}. *)
val create : ?capacity:int -> ?clock:(unit -> float) -> unit -> t

(** Seconds since creation, per the trail's clock. *)
val now : t -> float

(** Mirror every subsequent record to [path] as one JSON object per
    line (truncates). When [max_bytes] is given, the sink rotates once
    it exceeds that size: the file moves to [path ^ ".1"] (one level of
    history, clobbered on the next rotation) and reopens fresh — a
    long-lived daemon's evidence log stays bounded at ~2×[max_bytes].
    Raises [Sys_error] if [path] cannot be opened; a later write or
    reopen error detaches the sink (see {!Sink}). *)
val set_file_sink : t -> ?max_bytes:int -> string -> unit

(** Rotations performed so far (also the
    [jitbull_audit_sink_rotations_total] series). *)
val sink_rotations : t -> int

(** Append one decision record; [ts] defaults to [now t], the domain id
    is captured from the calling domain, [ir_diff] to [None]. Returns
    the record as stored. *)
val append :
  t ->
  ?ts:float ->
  ?ir_diff:compile_diff ->
  func_name:string ->
  func_index:int ->
  bytecode_hash:int ->
  feedback_hash:int ->
  verdict:verdict ->
  matches:cve_match list ->
  thr:int ->
  ratio:float ->
  prefilter_candidates:int ->
  prefilter_hits:int ->
  db_generation:int ->
  db_size:int ->
  source:source ->
  duration:float ->
  unit ->
  record

(** [relay t ~client_id r] — append a record another trail produced
    (a fleet client's [/push] delta), renumbered and restamped in this
    trail's sequence and clock and labeled with [client_id]; the
    evidence and IR diff are kept as decided. *)
val relay : t -> client_id:string -> record -> record

(** {2 Queries} *)

(** Records currently held, oldest first. *)
val records : t -> record list

(** Records ever appended (≥ [List.length (records t)]). *)
val total : t -> int

(** The [n] most recent records, newest first. *)
val last : t -> int -> record list

(** Cumulative verdict totals — maintained at append, so they survive
    ring eviction. What a fleet client pushes and /fleet sums. *)
type totals = {
  tt_records : int;
  tt_allow : int;
  tt_disable : int;
  tt_forbid : int;
  tt_cache_hits : int;
}

val totals : t -> totals

(** Retained records with [seq >= from], oldest first — the audit delta
    a fleet pusher sends between snapshots. *)
val since : t -> int -> record list

(** Retained records for one function, oldest first. *)
val by_function : t -> string -> record list

(** Retained records whose matches name [cve], oldest first. *)
val by_cve : t -> string -> record list

(** Flush and close the file sink, if any. *)
val close : t -> unit

(** {2 Rendering} *)

val verdict_label : verdict -> string
(** ["allow"] / ["disable"] / ["forbid"] (pass list elided). *)

val verdict_to_string : verdict -> string
val source_to_string : source -> string

(** [ir_diff] becomes an optional ["ir_diff"] member, so a diff-less
    record encodes as before the field existed. *)
val record_to_json : record -> Jsonx.t

(** Inverse of {!record_to_json}; raises [Jsonx.Parse_error] on
    malformed input. *)
val record_of_json : Jsonx.t -> record

(** Prometheus text for the cumulative aggregates:
    [jitbull_audit_records_total], [jitbull_audit_verdicts_total{verdict}],
    [jitbull_audit_cache_hits_total], [jitbull_audit_cve_matches_total{cve}],
    [jitbull_audit_function_verdicts_total{func,verdict}],
    [jitbull_explain_diffs_total] (records appended with an IR diff) and
    [jitbull_explain_chains_introduced_total{pass,cve}] (sub-chain
    instances [pass]'s diff introduced on records where [cve] matched on
    [pass]), with label values escaped per {!Metrics.escape_label_value}. *)
val render_prometheus : t -> string
