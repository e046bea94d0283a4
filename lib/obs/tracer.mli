(** The span tracer: nested timed spans and point events, recorded into a
    bounded in-memory ring buffer (oldest events evicted) and optionally
    streamed as JSON lines to a file so a run can be replayed offline.

    Timestamps come from the tracer's clock ({!Clock.now} by default, so
    swapping the process-wide {!Clock} source — a manual clock in tests, a
    monotonic one in production — retargets every tracer; an explicit
    [clock] overrides it per tracer) and are reported relative to tracer
    creation.

    {b Correlation.} Every event carries a process-unique [id] and an
    optional [parent] id. Within one domain, parents are implicit: the
    tracer keeps a per-domain stack of open spans (so nesting, default
    parents and [depth] are exact even when helper domains record
    concurrently). Across domains the edge is explicit: allocate an
    anchor with {!alloc_id}, record it ([?id]) on the main thread, and
    pass it as [?parent] from the helper — this is how a helper-domain
    compile span links back to the main-thread tier-up event.

    Recording is domain-safe: the {!Jitbull_util.Ring} and the file
    {!Sink} are serialized by an internal mutex. *)

type kind =
  | Span  (** a closed timed region; [dur] is its length in seconds *)
  | Point  (** an instantaneous event; [dur] = 0 *)

type event = {
  seq : int;  (** 0-based, monotonically increasing, never reused *)
  ts : float;  (** seconds since tracer creation (span: its start time) *)
  id : int;  (** process-unique event id (0 only in pre-correlation traces) *)
  parent : int option;
      (** enclosing span on the recording domain, or the explicit anchor;
          [None] for top-level events *)
  kind : kind;
  name : string;
  dur : float;  (** seconds; 0 for point events *)
  depth : int;  (** span-nesting depth on the recording domain; top = 0 *)
  fields : (string * Jsonx.t) list;
}

type t

(** [create ?capacity ?clock ()] — ring of at most [capacity] (default
    4096, min 1) events. [clock] returns absolute seconds; when omitted
    the tracer reads the injectable {!Clock.now}. *)
val create : ?capacity:int -> ?clock:(unit -> float) -> unit -> t

(** Seconds elapsed since creation, per the tracer's clock. *)
val now : t -> float

(** Open-span nesting depth of the {e calling} domain. *)
val depth : t -> int

(** Allocate a fresh process-unique event id without recording anything —
    the cross-domain anchor: record it with [event ~id], hand it to
    another domain, parent spans under it with [?parent]. *)
val alloc_id : t -> int

(** Innermost open span id of the calling domain, if any. *)
val current_span : t -> int option

(** [set_file_sink t path] opens (truncates) [path] and mirrors every
    subsequent event to it as one JSON object per line. Raises
    [Sys_error] if [path] cannot be opened; a later write error detaches
    the sink (see {!Sink}) while the ring keeps recording. *)
val set_file_sink : t -> string -> unit

(** [event t name] records a point event at the calling domain's current
    depth. [id] overrides the fresh id (anchors), [parent] the implicit
    enclosing span. *)
val event :
  t -> ?fields:(string * Jsonx.t) list -> ?id:int -> ?parent:int -> string -> unit

(** Low-level entry: record one event with explicit fields and return its
    id. Used to synthesize spans measured elsewhere (e.g. a queue wait
    whose start was stamped at enqueue time). *)
val record :
  t ->
  ?ts:float ->
  ?id:int ->
  ?parent:int ->
  ?depth:int ->
  ?kind:kind ->
  ?dur:float ->
  ?fields:(string * Jsonx.t) list ->
  string ->
  int

(** [with_span t name f] runs [f] inside a span: the span is pushed on
    the calling domain's stack for the dynamic extent (so nested spans
    and point events parent to it), and a [Span] event carrying the
    duration is recorded when [f] returns. [parent] overrides the
    implicit parent (cross-domain anchors). [fields_of] computes extra
    fields from the result; [on_close] receives the measured duration
    (seconds) after the event is recorded — the metrics layer hooks
    histograms here. If [f] raises, the span is still recorded (with an
    ["error"] field) and the exception is re-raised. *)
val with_span :
  t ->
  ?fields:(string * Jsonx.t) list ->
  ?fields_of:('a -> (string * Jsonx.t) list) ->
  ?parent:int ->
  ?on_close:(float -> unit) ->
  string ->
  (unit -> 'a) ->
  'a

(** Events currently held by the ring, oldest first. *)
val events : t -> event list

(** Total events ever recorded (≥ [List.length (events t)]). *)
val total_recorded : t -> int

(** Flush and close the file sink, if any. Further events only hit the
    ring. *)
val close : t -> unit

val event_to_json : event -> Jsonx.t

(** Inverse of {!event_to_json}; raises [Jsonx.Parse_error] on a value
    that is not an encoded event. Traces written before ids existed
    decode with [id = 0] and [parent = None]. *)
val event_of_json : Jsonx.t -> event
