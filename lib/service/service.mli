(** The jitbulld server core: one DNA database distributed to a fleet of
    engine clients over the keep-alive HTTP layer
    ({!Jitbull_obs.Http_export.Server}). The paper's maintainer ships a
    vulnerability's DNA to users as an update (§IV-C); here every
    {!Client} keeps that update as a [/delta]-synced replica and decides
    go/no-go in its own engine, so the daemon distributes the DB and
    collects the fleet's telemetry but answers no verdicts on the wire.

    Endpoints:

    - [GET /subscribe?gen=G&timeout_ms=T] — long poll: answers
      [{"generation": N}] as soon as the DB generation exceeds [G] (or
      at the timeout, with the unchanged generation). A client's cue to
      resync its replica.
    - [GET /delta?gen=G] — catch-up payload for a replica at [G]:
      [mode] "append" with the missing entries (as
      {!Jitbull_core.Db.entry_to_sexpr} text, compact), or "resync" with the
      full list after a removal.
    - [GET /gen] — current generation. [POST /install] (entry sexpr
      body) / [POST /remove?cve=C] — DB mutation over the wire.
    - [POST /push] — fleet telemetry: a cumulative snapshot + audit
      delta from one engine client ({!Jitbull_obs.Fleet} framing). With
      [obs], each delta record is also relayed into the daemon's own
      audit trail, labeled with the pushing client's id.
      [GET /fleet] — the per-client-labeled aggregates as Prometheus
      text (default), an HTML dashboard ([?format=html]), or JSON
      ([?format=json]).
    - With [obs]: the observability routes ([/metrics], [/healthz], …)
      mounted behind the service's own.

    Metrics (via [obs]): [service.requests_total] and per-endpoint
    [service.requests.<endpoint>] counters, [service.gen_pushes_total],
    [service.pushes_total], [service.push_delta_records]. *)

type t

(** [create ~db ~port ()] starts [workers] (default 4) server domains
    on 127.0.0.1:[port] ([0] picks a free one) and serves [db] until
    {!stop}.
    Each accepted connection is served on its own thread, so [workers]
    sizes CPU parallelism, not the connection limit — long-poll
    subscribers park a thread each. *)
val create :
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

(** One verdict on the server's DB, in process: the indexed query at the
    default comparator thresholds and the shared go/no-go rule, exactly
    as a client's analyzer decides on a replica at the same generation. Audited with [obs]. For tests and
    the replica == server spot checks. *)
val decide : t -> Proto.verdict_req -> Proto.verdict_resp

(** Stop serving: in-flight long polls answer with the current
    generation, idle keep-alive connections are shut down, and the call
    returns once the server domains are joined. A connected {!Client}
    keeps deciding on its replica at its last synced generation. *)
val stop : t -> unit
