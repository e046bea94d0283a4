(** JITBULL — the go/no-go policy, wired into the engine.

    [analyzer db] produces the {!Jitbull_jit.Engine.analyzer} implementing
    the paper's step 2: on every Ion compilation, extract the function's
    DNA from the pass snapshots and compare it against every VDC DNA in
    the database; the union of matching passes becomes the dangerous-pass
    list. An empty list allows the compilation; otherwise the engine
    recompiles with those passes disabled, or refuses JIT for the function
    when a mandatory pass matched.

    Algorithm 2 compares Δᵢ only with the same pass of a DB entry, so the
    analyzer extracts Δs only for the passes the DB has postings for
    ({!Db.posted}, {!extract}); a DB write racing the query triggers one
    full re-extraction ({!query}). It extracts in full when explain
    capture is on.

    The per-decision record is the audit trail of an installed
    {!Jitbull_obs.Obs.t}: every analysis appends one
    {!Jitbull_obs.Audit.record} with [source = Fresh], carrying the
    compile's per-pass IR diff when explain capture is on (policy-cache
    hits append [Cache_hit] records from the engine). Its verdict and the
    [pm_pass] sets of its [matches] are what the evaluation harness reads
    for the paper's %Safe / %PassDis / %NoJIT metrics and to see
    {e which} passes were flagged (e.g. GVN for CVE-2019-17026
    variants); the Nr_JIT / Nr_DisJIT / Nr_NoJIT counts come from
    {!Jitbull_jit.Engine.stats}. *)

(** [verdict_of_matches matched] — the go/no-go rule on a query's
    CVE → matching-passes list: the dangerous-pass union (pipeline
    order) and the verdict it implies. Shared by {!analyzer} and
    jitbulld's in-process [Service.decide], so the server's verdict is
    by construction the same function of the same DB query as a
    replica's. *)
val verdict_of_matches :
  (string * string list) list ->
  string list * [ `Allow | `Disable of string list | `Forbid ]

(** Converters into [lib/obs]'s audit vocabulary, shared with
    [Service.decide] so its audit records carry the same evidence shape
    as an engine's. *)
val audit_verdict :
  [ `Allow | `Disable of string list | `Forbid ] -> Jitbull_obs.Audit.verdict

val audit_matches :
  (string * Comparator.match_detail list) list ->
  Jitbull_obs.Audit.cve_match list

(** {2 The analyzer's two steps}

    {!analyzer} is [query … (extract …)]; the steps are exposed so a
    test can interleave a DB write between them. *)

(** A function's DNA as the analyzer extracted it. *)
type extraction = {
  x_dna : Dna.t;
  x_posted_generation : int option;
      (** [Some g]: only the passes {!Db.posted} listed at generation [g]
          were extracted, every other Δ is empty; [None]: full DNA *)
}

(** [extract ?obs db trace] — the DNA of [trace], posting-aware
    ([Dna.extract ~only] over {!Db.posted}) unless [obs] has explain
    capture on (whose [/explain] chains need every pass). A [dna_extract]
    span with [obs]. *)
val extract :
  ?obs:Jitbull_obs.Obs.t ->
  Db.t ->
  (string * Jitbull_mir.Snapshot.t) list ->
  extraction

(** [query ?params ?obs db ~trace x] — {!Db.matching_detailed} on [x]'s
    DNA (a [db_compare] span), returning the DNA the answer was computed
    on. When the query's generation is not the one [x]'s posted set was
    read at, a write landed in between and may have posted a pass [x]
    left empty: the DNA is re-extracted in full from [trace] and queried
    once more. Writes only grow the posted set, so the answer equals the
    full-DNA answer at the generation it reports. *)
val query :
  ?params:Comparator.params ->
  ?obs:Jitbull_obs.Obs.t ->
  Db.t ->
  trace:(string * Jitbull_mir.Snapshot.t) list ->
  extraction ->
  Dna.t * Db.query

(** [analyzer ?params db] builds the engine hook. The database is
    consulted live: entries added or removed later affect subsequent
    compilations (the patch-applied lifecycle). Queries go through
    {!Db.matching_detailed}'s inverted sub-chain index.

    The analyzer records into the telemetry of the engine it runs in
    ([ctx.cc_obs]): with one installed, every analysis is traced and
    audited — a [policy_decide] span (fields [func], [verdict],
    [passes], [matched]) wrapping [dna_extract] and [db_compare] child
    spans, [policy.allow]/[policy.disable]/[policy.forbid] counters, and
    one audit record carrying the full match evidence. *)
val analyzer :
  ?params:Comparator.params -> Db.t -> Jitbull_jit.Engine.analyzer

(** [config ?params ?obs ~vulns db] — an engine
    configuration with JITBULL installed, the vulnerability window's
    unpatched engine. When [db] is empty the analyzer and the policy
    cache are omitted entirely (zero overhead, paper §V). [obs] is the
    engine's telemetry, which the analyzer records into.

    A non-empty [db] gets an {!Jitbull_jit.Engine.Policy_cache} wired to
    its generation counter, so re-JITs of an already-decided function —
    across engines sharing this configuration — skip DNA extraction and
    comparison; any [Db.add]/[Db.remove_cve] invalidates it. With [obs],
    each hit still leaves a [Cache_hit] audit record. *)
val config :
  ?params:Comparator.params ->
  ?obs:Jitbull_obs.Obs.t ->
  vulns:Jitbull_passes.Vuln_config.t ->
  Db.t ->
  Jitbull_jit.Engine.config
