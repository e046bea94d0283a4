(** The observability handle threaded through the engine: a
    {!Metrics.t} registry, a {!Tracer.t} and an {!Audit.t} decision
    trail, packaged so instrumented code takes an [Obs.t option] and pays
    nothing when it is [None] — every recording entry point below matches
    on the option first and the [None] arm is a no-op (for [span]/[time],
    a direct tail call of the body). *)

type t

(** [capacity] bounds the trace ring, [audit_capacity] the audit ring
    (defaults 4096 / 1024). [explain] (default [false]) turns on explain
    capture: the analyzer summarizes each compile's per-pass IR changes
    into the [ir_diff] of its audit record (off, capture costs nothing,
    like every other disabled instrument). The components share
    [clock], so trace and audit timestamps are directly comparable. *)
val create :
  ?capacity:int ->
  ?audit_capacity:int ->
  ?explain:bool ->
  ?clock:(unit -> float) ->
  unit ->
  t

val metrics : t -> Metrics.t
val tracer : t -> Tracer.t
val audit : t -> Audit.t

(** Whether explain capture is on. *)
val explain : t -> bool

(** Mirror all subsequent trace events to [path] as JSON lines. *)
val set_trace_file : t -> string -> unit

(** Mirror all subsequent audit records to [path] as JSON lines;
    [max_bytes] enables size-based rotation (see
    {!Audit.set_file_sink}). *)
val set_audit_file : t -> ?max_bytes:int -> string -> unit

(** Flush and close the trace and audit file sinks, if any. [None] is a
    no-op. *)
val close : t option -> unit

(** Tracer-relative seconds (0 when disabled) — for durations recorded
    outside a span (audit records, pushed snapshots). *)
val now : t option -> float

(** [span obs name f] — timed span around [f]: records a trace event and
    observes the duration in histogram ["<name>.seconds"]. The span
    parents to the calling domain's innermost open span. *)
val span :
  t option ->
  ?fields:(string * Jsonx.t) list ->
  ?fields_of:('a -> (string * Jsonx.t) list) ->
  string ->
  (unit -> 'a) ->
  'a

(** [time obs name f] — histogram-only timing (no trace event): for hot
    call sites where one event per call would flood the ring. *)
val time : t option -> string -> (unit -> 'a) -> 'a

(** Point event into the trace, parented like {!span}. *)
val event : t option -> ?fields:(string * Jsonx.t) list -> string -> unit

val incr : t option -> string -> unit
val add : t option -> string -> int -> unit
val set_gauge : t option -> string -> float -> unit

(** Observe into histogram [name]; [bounds] only applies on first
    creation (see {!Metrics.histogram}). *)
val observe : t option -> ?bounds:float array -> string -> float -> unit

(** Snapshot of the metrics registry ([None] → empty view). *)
val view : t option -> Metrics.view
