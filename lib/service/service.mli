(** The jitbulld server core: one DNA database served to a fleet of
    engine clients over the keep-alive HTTP layer
    ({!Jitbull_obs.Http_export.Server}).

    Endpoints:

    - [POST /verdict] — JSONL batch of {!Proto.verdict_req}, answered
      with one {!Proto.verdict_resp} per line. Repeat requests hit one
      server-side memo, the line cache: it maps each unparsed request
      line ({!Proto.line_key}) to a pre-rendered response line — a hit
      skips JSON parse, DNA parse, query and response rendering. A hit
      must also equal the stored request bytes, so a hash collision is
      a miss. DB-generation moves invalidate it exactly like the
      engine's policy cache. There is no memo per request identity:
      a hash over (dna, hashes) can be forged by a client, and traffic
      never repeated a compile under a new request line.
      Fresh requests run the DB's indexed query
      ({!Jitbull_core.Db.matching_detailed}) and the shared go/no-go rule
      ({!Jitbull_core.Jitbull.verdict_of_matches}), so a remote verdict
      structurally equals the in-process analyzer's at the same
      generation.
    - [GET /subscribe?gen=G&timeout_ms=T] — long poll: answers
      [{"generation": N}] as soon as the DB generation exceeds [G] (or
      at the timeout, with the unchanged generation). Push invalidation
      for remote policy caches.
    - [GET /delta?gen=G] — catch-up payload for a replica at [G]:
      [mode] "append" with the missing entries (as
      {!Jitbull_core.Db.entry_to_sexpr} text, compact), or "resync" with the
      full list after a removal.
    - [GET /gen] — current generation. [POST /install] (entry sexpr
      body) / [POST /remove?cve=C] — DB mutation over the wire.
    - [POST /push] — fleet telemetry: a cumulative snapshot + audit
      delta from one engine client ({!Jitbull_obs.Fleet} framing).
      [GET /fleet] — the per-client-labeled aggregates as Prometheus
      text (default), an HTML dashboard ([?format=html]), or JSON
      ([?format=json]).
    - With [obs]: the observability routes ([/metrics], [/healthz], …)
      mounted behind the service's own.

    {b Trace propagation.} Requests may carry a W3C-traceparent-style
    context header plus an [x-jitbull-client] label
    ({!Jitbull_obs.Propagate}); [/verdict] then records its
    "service.verdict" span parented on the remote client span, and
    server-side audit records carry the client id and remote parent —
    merging the two processes' trace files reconstructs a tier-up
    end-to-end. A present-but-malformed header is a 400 on any route.

    Metrics (via [obs]): [service.requests_total] and per-endpoint
    [service.requests.<endpoint>] counters,
    [service.batch_size] histogram, [service.cache_hits] /
    [service.cache_misses] (per request line),
    [service.gen_pushes_total]. *)

type t

(** [create ~db ~port ()] starts [workers] (default 4) server domains
    on 127.0.0.1:[port] ([0] picks a free one) and serves [db] until
    {!stop}.
    [params] are the comparator thresholds verdicts are decided with.
    Each accepted connection is served on its own thread, so [workers]
    sizes CPU parallelism, not the connection limit — long-poll
    subscribers park a thread each without starving verdict traffic. *)
val create :
  ?params:Jitbull_core.Comparator.params ->
  ?workers:int ->
  ?obs:Jitbull_obs.Obs.t ->
  db:Jitbull_core.Db.t ->
  port:int ->
  unit ->
  t

val port : t -> int
val db : t -> Jitbull_core.Db.t
val server : t -> Jitbull_obs.Http_export.Server.t

(** The fleet-telemetry aggregator behind [/push] and [/fleet]. *)
val fleet : t -> Jitbull_obs.Fleet.t

(** In-process mutation ({!Jitbull_core.Db.add}). Subscribers observe
    the generation bump on their next poll tick. *)
val install : t -> Jitbull_core.Db.entry -> unit

val remove_cve : t -> string -> unit

(** One verdict, computed exactly as [POST /verdict] would on a
    line-cache miss (the indexed query) — exposed
    for tests and the remote==local oracle. [client_id]/[remote_parent]
    stamp fleet provenance into the audit record, as the wire path
    does. *)
val decide :
  t -> ?client_id:string -> ?remote_parent:int -> Proto.verdict_req ->
  Proto.verdict_resp

(** Stop serving: in-flight long polls answer with the current
    generation, idle keep-alive connections are shut down, and the call
    returns once the server domains are joined. A connected {!Client}
    then decides against its replica. *)
val stop : t -> unit
