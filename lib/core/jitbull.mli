(** JITBULL — the go/no-go policy, wired into the engine.

    [analyzer db] produces the {!Jitbull_jit.Engine.analyzer} implementing
    the paper's step 2: on every Ion compilation, extract the function's
    DNA from the pass snapshots and compare it against every VDC DNA in
    the database; the union of matching passes becomes the dangerous-pass
    list. An empty list allows the compilation; otherwise the engine
    recompiles with those passes disabled, or refuses JIT for the function
    when a mandatory pass matched.

    The per-decision record is the audit trail of an installed
    {!Jitbull_obs.Obs.t}: every analysis appends one
    {!Jitbull_obs.Audit.record} with [source = Fresh] (policy-cache hits
    append [Cache_hit] records from the engine). Its verdict and the
    [pm_pass] sets of its [matches] are what the evaluation harness reads
    for the paper's %Safe / %PassDis / %NoJIT metrics and to see
    {e which} passes were flagged (e.g. GVN for CVE-2019-17026
    variants); the Nr_JIT / Nr_DisJIT / Nr_NoJIT counts come from
    {!Jitbull_jit.Engine.stats}. *)

(** [verdict_of_matches matched] — the go/no-go rule on a query's
    CVE → matching-passes list: the dangerous-pass union (pipeline
    order) and the verdict it implies. Shared by {!analyzer} and the
    verdict service, so a remote verdict is by construction the same
    function of the same DB query as a local one. *)
val verdict_of_matches :
  (string * string list) list ->
  string list * [ `Allow | `Disable of string list | `Forbid ]

(** Converters into [lib/obs]'s audit vocabulary, shared with the
    verdict service so server-side audit records carry the same
    evidence shape as local ones. *)
val audit_verdict :
  [ `Allow | `Disable of string list | `Forbid ] -> Jitbull_obs.Audit.verdict

val audit_matches :
  (string * Comparator.match_detail list) list ->
  Jitbull_obs.Audit.cve_match list

(** [analyzer ?params ?obs db] builds the engine hook. The database is
    consulted live: entries added or removed later affect subsequent
    compilations (the patch-applied lifecycle). Queries go through
    {!Db.matching_detailed}'s inverted sub-chain index.

    With [obs] installed, every analysis is traced and audited: a
    [policy_decide] span (fields [func], [verdict], [passes], [matched])
    wrapping [dna_extract] and [db_compare] child spans,
    [policy.allow]/[policy.disable]/[policy.forbid] counters, and one
    audit record carrying the full match evidence. *)
val analyzer :
  ?params:Comparator.params ->
  ?obs:Jitbull_obs.Obs.t ->
  Db.t ->
  Jitbull_jit.Engine.analyzer

(** [config ?params ?obs ?compile_pool ~vulns db] — an engine
    configuration with JITBULL installed, the vulnerability window's
    unpatched engine. When [db] is empty the analyzer and the policy
    cache are omitted entirely (zero overhead, paper §V). [obs] is
    installed both into the analyzer and the engine configuration.

    A non-empty [db] gets an {!Jitbull_jit.Engine.Policy_cache} wired to
    its generation counter, so re-JITs of an already-decided function —
    across engines sharing this configuration — skip DNA extraction and
    comparison; any [Db.add]/[Db.remove_cve] invalidates it. With [obs],
    each hit still leaves a [Cache_hit] audit record.

    [compile_pool] hands the engine a helper-domain pool for
    off-main-thread Ion compilation (see
    {!Jitbull_jit.Compile_queue}); the caller owns and shuts it down. *)
val config :
  ?params:Comparator.params ->
  ?obs:Jitbull_obs.Obs.t ->
  ?compile_pool:Jitbull_jit.Compile_queue.t ->
  vulns:Jitbull_passes.Vuln_config.t ->
  Db.t ->
  Jitbull_jit.Engine.config
