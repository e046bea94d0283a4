(** The engine-side jitbulld client: a [/delta]-synced replica of the
    daemon's DNA database, on which the engine decides go/no-go itself.
    The paper's maintainer ships a vulnerability's DNA to users as an
    update (§IV-C); the replica is that update, so no verdict crosses
    the wire.

    Wiring it into an engine is one call: {!engine_config} returns an
    {!Jitbull_jit.Engine.config} whose analyzer is
    {!Jitbull_core.Jitbull.analyzer} on {!replica} and whose policy
    cache keys on the replica's own {!Jitbull_core.Db.generation}. A
    sync applies each [/delta] payload atomically ({!Jitbull_core.Db.apply}),
    so a decision sees the replica at one synced generation, and every
    sync that changes the replica moves that generation, so a verdict
    cached before it is decided again.

    {b Generation pushes.} Unless [subscribe:false], a subscriber thread
    long-polls [/subscribe] and resyncs the replica as soon as the
    server's generation moves. When the server goes away the replica
    stays at its last synced generation: the engine keeps deciding on
    it, never on an empty DB.

    {b Fleet telemetry.} With [push_interval_s], a pusher thread POSTs
    a cumulative snapshot (audit totals, install-latency p99, the full
    metrics view) plus the audit-record delta since the last accepted
    push to [/push] every interval, and once more on {!close} — see
    {!Jitbull_obs.Fleet}.

    Every request carries an [x-jitbull-client] label. Counters (via
    [obs]): [engine.remote_pushes] (generation bumps observed),
    [engine.fleet_pushes] (accepted telemetry pushes). *)

type t

(** [connect ~port ()] pulls an initial replica sync and starts the
    subscriber (unless [subscribe:false]) and pusher threads.
    [timeout_s] is the per-request socket timeout. [client_id] (default
    ["pid-<pid>"], at most 128 bytes server-side) labels this client's
    requests and fleet series; [push_interval_s] enables the telemetry
    pusher. *)
val connect :
  ?timeout_s:float ->
  ?obs:Jitbull_obs.Obs.t ->
  ?subscribe:bool ->
  ?client_id:string ->
  ?push_interval_s:float ->
  port:int ->
  unit ->
  t

(** The server DB generation the replica reflects (monotone). *)
val generation : t -> int

val replica : t -> Jitbull_core.Db.t

(** The fleet label every request carries ([x-jitbull-client]). *)
val client_id : t -> string

(** Pull [/delta] now and apply it to the replica. Returns the server
    generation synced to. *)
val sync : t -> (int, string) result

(** Push one telemetry snapshot + audit delta to [/push] now. [Ok n]
    is the number of delta records accepted; the delta cursor advances
    only on success, so failed pushes retry their records. [Ok 0]
    without a wire round-trip when the client has no [obs]. *)
val push : t -> (int, string) result

(** An engine configuration deciding go/no-go on the replica:
    {!Jitbull_core.Jitbull.analyzer} plus a policy cache keyed on the
    replica's generation, both installed even while the replica is
    empty (a client that connects before the first install is
    protected once it syncs one). The engine's [obs] is the client's;
    the analyzer records into whichever obs the engine carries. *)
val engine_config :
  ?params:Jitbull_core.Comparator.params ->
  t ->
  vulns:Jitbull_passes.Vuln_config.t ->
  unit ->
  Jitbull_jit.Engine.config

(** Stop the threads (interrupting a long poll in flight), then push a
    last telemetry snapshot when [push_interval_s] was given. *)
val close : t -> unit
