(** A dependency-free HTTP layer ([Unix] sockets only), in two parts: a
    reusable keep-alive server core ({!Server}) + persistent client
    connection ({!Conn}), and the live observability exporter built on
    them.

    The server core speaks enough HTTP/1.1 for our own endpoints:
    Content-Length framing on both requests and responses, keep-alive
    connection reuse (a batch client issues many requests per
    connection without paying connect cost per round-trip), a bounded
    header block, and N accept worker domains sharing one listening
    socket, each serving every accepted connection on its own thread
    (concurrent keep-alive connections are not bounded by the worker
    count). The verdict service ([Jitbull_service]) mounts
    its routes on the same core.

    The exporter serves, from one worker on 127.0.0.1:

    - [/metrics] — Prometheus text: the full metrics registry
      ({!Metrics.render_prometheus}) followed by the audit aggregates
      ({!Audit.render_prometheus}) and, when explain capture is on, the
      IR-diff aggregates ({!Irdiff.render_prometheus}).
    - [/healthz] — JSON health report; 200 when every check passes,
      503 otherwise. Checks (against {!health_thresholds}):
      [compile.queue_depth] gauge, [engine.main_stall_seconds] gauge,
      [engine.stale_results] counter, and the live p99 of
      [compile.install_latency_seconds] ({!Metrics.quantile}).
    - [/audit?n=K] — the K most recent audit records (default 32),
      newest first, as a JSON array of {!Audit.record_to_json} objects.
    - [/explain] — HTML index of recent decisions
      ({!Explain.index_html}; [?n=K] as for [/audit]).
    - [/explain?id=N] — explanation of decision [N] ({!Explain}): HTML
      by default, plain text with [&format=text]. 404 (JSON error) when
      [N] was never decided or has been evicted from the audit ring.
    - [/profile] — collapsed-stack samples from the process-global
      sampling profiler ({!Profile.collapsed}); empty body (but 200)
      when profiling was never started.

    Malformed query parameters (non-numeric, negative, or huge [n]/[id])
    are 400 with a JSON error body; JSON endpoints carry
    [Content-Type: application/json]. Anything else is 404. The handlers
    read snapshots only — serving never blocks the engine beyond the
    registry/ring mutexes. *)

type health_thresholds = {
  max_queue_depth : int;  (** compile queue depth at the last safepoint *)
  max_stall_seconds : float;  (** cumulative main-thread compile stall *)
  max_stale_results : int;  (** background compiles discarded as stale *)
  max_install_p99_seconds : float;
      (** p99 publish → safepoint-install latency *)
}

(** queue ≤ 64, stall ≤ 1s, stale ≤ 1000, install p99 ≤ 0.5s. *)
val default_thresholds : health_thresholds

(** {1 Requests and responses} *)

type request = {
  rq_meth : string;  (** "GET", "POST", … *)
  rq_path : string;  (** path without the query string *)
  rq_query : (string * string) list;
  rq_headers : (string * string) list;  (** names lowercased *)
  rq_body : string;  (** Content-Length-framed request body *)
}

type response = {
  rs_status : int;
  rs_content_type : string;
  rs_body : string;
}

val respond : ?status:int -> ?content_type:string -> string -> response

(** 400 with a JSON [{"error": msg}] body. *)
val bad_request : string -> response

(** The uniform 404: JSON [{"error": "not found"}] body with
    [Content-Type: application/json] — shared by every route fallback. *)
val not_found : unit -> response

(** Reproduction version stamped into [jitbull_build_info]. *)
val version : string

(** [parse_count name query ~default] — strict query-parameter count
    parsing: a negative, non-numeric or huge value is an [Error]
    (serve it as 400), never silently defaulted. *)
val parse_count :
  ?max_value:int ->
  string ->
  (string * string) list ->
  default:int ->
  (int, string) result

(** {1 Server core} *)

module Server : sig
  type t

  (** [start ~handler ~port ()] binds 127.0.0.1:[port] ([port = 0]
      picks a free one — read it back with {!port}) and spawns
      [workers] accept domains sharing the listening socket, each
      serving every connection it accepts on a dedicated thread.
      Each connection is served keep-alive until the client closes,
      sends [Connection: close], or exhausts [max_requests_per_conn].
      Handler exceptions become 500 responses; the connection survives.
      Raises [Unix.Unix_error] if the bind fails. *)
  val start :
    ?workers:int ->
    ?max_requests_per_conn:int ->
    handler:(request -> response) ->
    port:int ->
    unit ->
    t

  val port : t -> int

  (** Total connections accepted / requests served so far — the
      keep-alive regression test asserts requests can outnumber
      connections. *)
  val connections : t -> int

  val requests : t -> int

  (** Close the listening socket, shut down the read side of every
      live connection (a connection waiting for its next request ends
      at once; a handler still running can write its response), and
      join the worker domains. A handler that waits on its own, such as
      a long poll, must end its wait for [stop] to return. Idempotent. *)
  val stop : t -> unit
end

(** {1 Persistent client connection} *)

(** Raised when the peer closes the connection mid-exchange. *)
exception Closed

module Conn : sig
  type t

  (** [connect ~port ()] opens one TCP connection to [host] (default
      127.0.0.1) and keeps it for many {!request} round-trips.
      [timeout_s] arms a socket send/receive timeout. Raises
      [Unix.Unix_error] when nothing listens there. *)
  val connect : ?host:string -> ?timeout_s:float -> port:int -> unit -> t

  (** One request/response round-trip: returns (status, headers, body)
      with header names lowercased. [timeout_s] overrides the socket
      receive timeout for this request only (long-poll subscribes pass
      a large one). Raises {!Closed} when the server hung up,
      [Unix.Unix_error (EAGAIN, _, _)] on timeout — the connection must
      be considered dead after either. *)
  val request :
    t ->
    ?meth:string ->
    ?headers:(string * string) list ->
    ?body:string ->
    ?keep_alive:bool ->
    ?timeout_s:float ->
    string ->
    int * (string * string) list * string

  val close : t -> unit

  (** Shut the socket down both ways without closing the descriptor:
      a {!request} blocked on another thread returns ({!Closed})
      immediately. Used to interrupt long polls on shutdown. *)
  val shutdown : t -> unit
end

(** {1 Observability routes} *)

(** The exporter's routes as a composable handler fragment: [Some
    response] for [/metrics], [/healthz], [/audit], [/explain] and
    [/profile], [None] for anything else (mount your own routes first,
    fall back to 404). [can_disable] (pass the pipeline's
    [can_disable]) lets [/explain] reports name the mandatory pass
    behind a forbid verdict. *)
val obs_routes :
  ?thresholds:health_thresholds ->
  ?can_disable:(string -> bool) ->
  obs:Obs.t ->
  request ->
  response option

(** {1 The standalone exporter} *)

type t

(** [start ~obs ~port ()] — the observability exporter: one worker
    domain serving {!obs_routes} (404 otherwise) on 127.0.0.1:[port].
    Raises [Unix.Unix_error] if the bind fails. *)
val start :
  ?thresholds:health_thresholds ->
  ?can_disable:(string -> bool) ->
  obs:Obs.t ->
  port:int ->
  unit ->
  t

(** The bound port (useful after [~port:0]). *)
val port : t -> int

(** Connections accepted / requests served — see {!Server.connections}. *)
val connections : t -> int

val requests : t -> int

(** {!Server.stop} on the exporter: returns with clients still
    connected. Idempotent. *)
val stop : t -> unit

(** [fetch ~port path] — one-shot loopback HTTP GET for tests, bench
    and CI smoke: returns (status code, body). Blocking; raises
    [Unix.Unix_error] when nothing listens on [port]. *)
val fetch : port:int -> string -> int * string

(** Like {!fetch} but also returns the response headers as
    (lowercased name, value) pairs. *)
val fetch_full : port:int -> string -> int * (string * string) list * string
