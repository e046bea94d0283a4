(** The metrics registry: named counters, gauges and fixed-bucket
    histograms with O(1) record paths, an immutable {!snapshot}, and
    Prometheus-text / JSON renderers.

    Instruments hold direct references after a one-time name lookup
    ([counter]/[gauge]/[histogram] are get-or-create), so hot paths pay
    one hash lookup at installation and a plain mutation per record.

    The registry is domain-safe: counters are atomics, histograms update
    under a per-histogram mutex, and get-or-create / {!snapshot} lock the
    registry — jitbulld's handler domains, and a client's subscriber and
    pusher threads beside its engine, record into one registry. Gauges are single-word stores (a racing [set] is
    last-write-wins). *)

type counter
type gauge
type histogram

type t

val create : unit -> t

(** Get-or-create by name. Re-registering an existing histogram ignores
    the new [bounds]. [bounds] must be strictly increasing upper bounds
    (an implicit +∞ bucket is always appended); defaults to
    {!default_latency_bounds}. *)

val counter : t -> string -> counter
val gauge : t -> string -> gauge
val histogram : ?bounds:float array -> t -> string -> histogram

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val set : gauge -> float -> unit
val gauge_value : gauge -> float

val observe : histogram -> float -> unit

(** [quantile h q] estimates the q-quantile (q ∈ [0,1]) by linear
    interpolation inside the bucket containing the rank; clamped to the
    observed [min, max]. 0 when the histogram is empty. *)
val quantile : histogram -> float -> float

(** Latency buckets in seconds: 1µs … 10s on a 1-2-5 grid. *)
val default_latency_bounds : float array

(** Count-valued buckets for IR-size deltas: 0, then 1 … 5000 on a
    1-2-5 grid. *)
val size_bounds : float array

(** {2 Snapshots and rendering} *)

type histogram_view = {
  hv_name : string;
  hv_count : int;
  hv_sum : float;
  hv_min : float;  (** 0 when empty *)
  hv_max : float;
  hv_buckets : (float * int) list;
      (** (upper bound, count) per bucket; the last bound is [infinity] *)
  hv_p50 : float;
  hv_p90 : float;
  hv_p99 : float;
}

type view = {
  v_counters : (string * int) list;  (** sorted by name *)
  v_gauges : (string * float) list;
  v_histograms : histogram_view list;
}

val snapshot : t -> view

val find_counter : view -> string -> int option
val find_histogram : view -> string -> histogram_view option

(** Prometheus text exposition: metric names are sanitized
    ([.] and other non-identifier characters become [_]); histograms
    render cumulative [_bucket{le="…"}] series plus [_sum]/[_count]. *)
val render_prometheus : view -> string

(** Escape a string for use as a Prometheus label {e value}: backslash,
    double quote and newline become backslash-escaped sequences. Metric
    and label {e names} take {!render_prometheus}'s sanitization
    instead. *)
val escape_label_value : string -> string

val view_to_json : view -> Jsonx.t
