(** The engine-side jitbulld client: a persistent connection pool
    (dispatcher + subscriber threads), a bounded request coalescer that
    turns concurrent compile-time verdict queries into JSONL batches,
    push-driven policy-cache invalidation, and a local replica DB for
    fallback when the server is unreachable.

    Wiring it into an engine is one call: {!engine_config} returns an
    {!Jitbull_jit.Engine.config} whose analyzer asks the server
    (coalescer → wire) and whose policy cache keys on the latest
    server generation this client has observed — a generation push
    advances that value {e before} anything else happens, so a verdict
    cached pre-push can never be accepted post-push (the
    [Policy_cache.store ~if_generation] discipline, stretched over the
    wire).

    {b Trace propagation.} Every wire request carries this client's
    trace context: an [x-jitbull-client] label plus, when the
    submitting thread had an open span, a traceparent header
    ({!Jitbull_obs.Propagate}) naming it — the coalescer stamps each
    batch with the first pending submitter's span, so the server's
    "service.verdict" span parents back into this process's trace.
    The remote analyzer wraps its query in a [remote_verdict] span for
    exactly this purpose.

    {b Fleet telemetry.} With [push_interval_s], a pusher thread POSTs
    a cumulative snapshot (audit totals, install-latency p99, the full
    metrics view) plus the audit-record delta since the last accepted
    push to [/push] every interval, and once more on {!close} — see
    {!Jitbull_obs.Fleet}.

    Counters (via [obs]): [engine.remote_verdicts] (answered by the
    server),
    [engine.remote_fallbacks] (answered locally against the replica),
    [engine.remote_pushes] (generation bumps observed),
    [engine.fleet_pushes] (accepted telemetry pushes). *)

type t

(** [connect ~port ()] starts the dispatcher thread (and, unless
    [subscribe:false], the long-poll subscriber) and pulls an initial
    replica sync. [max_batch] bounds requests per wire round-trip;
    [max_queue] bounds the coalescer (further submitters block —
    backpressure, not unbounded batching). [timeout_s] is the per-
    round-trip socket timeout after which a verdict falls back to the
    replica. [client_id] (default ["pid-<pid>"], at most 128 bytes
    server-side) labels this client's requests and fleet series;
    [push_interval_s] enables the telemetry pusher. *)
val connect :
  ?timeout_s:float ->
  ?max_batch:int ->
  ?max_queue:int ->
  ?obs:Jitbull_obs.Obs.t ->
  ?subscribe:bool ->
  ?client_id:string ->
  ?push_interval_s:float ->
  port:int ->
  unit ->
  t

(** Latest server DB generation this client has observed (responses,
    pushes, syncs — monotone). *)
val generation : t -> int

val replica : t -> Jitbull_core.Db.t

(** The fleet label every request carries ([x-jitbull-client]). *)
val client_id : t -> string

(** The 32-hex trace id this client's traceparent headers carry. *)
val trace_id : t -> string

(** [submit t req] — enqueue one request on the coalescer and block
    until its batch round-trips. Thread-safe; this is what the remote
    analyzer calls. *)
val submit :
  t -> Proto.verdict_req -> (Proto.verdict_resp, string) result

(** [verdict_roundtrip conn reqs] — one stateless JSONL batch on a raw
    connection (bench clients own their connections and batch
    explicitly). [headers] are extra request headers, e.g. a
    traceparent. *)
val verdict_roundtrip :
  Jitbull_obs.Http_export.Conn.t ->
  ?headers:(string * string) list ->
  Proto.verdict_req list ->
  (Proto.verdict_resp list, string) result

(** Pull [/delta] now and apply it to the replica. Returns the server
    generation synced to. *)
val sync : t -> (int, string) result

(** Push one telemetry snapshot + audit delta to [/push] now. [Ok n]
    is the number of delta records accepted; the delta cursor advances
    only on success, so failed pushes retry their records. [Ok 0]
    without a wire round-trip when the client has no [obs]. *)
val push : t -> (int, string) result

(** Run [f gen] after each observed generation push (after caches are
    flushed and before the replica resync completes). *)
val on_push : t -> (int -> unit) -> unit

(** The remote analyzer: DNA extraction + coalesced wire query, else ([Error]/timeout) local fallback against the
    replica with {!Jitbull_core.Jitbull.analyzer}. [params] must match
    the server's for remote==local equality. *)
val analyzer :
  ?params:Jitbull_core.Comparator.params -> t -> Jitbull_jit.Engine.analyzer

(** An engine configuration answering go/no-go remotely: {!analyzer}
    plus a policy cache keyed on {!generation} (registered for eager
    flush on pushes). *)
val engine_config :
  ?params:Jitbull_core.Comparator.params ->
  t ->
  vulns:Jitbull_passes.Vuln_config.t ->
  unit ->
  Jitbull_jit.Engine.config

(** Stop the threads (interrupting a long poll in flight), fail pending
    submissions, close the connections. *)
val close : t -> unit
