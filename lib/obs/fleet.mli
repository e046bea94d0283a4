(** Fleet telemetry aggregation — the state and the handlers behind
    [POST /push] and [GET /fleet], served by jitbulld and the fuzz
    master ([Sync.Master]) alike.

    Engine clients push {e cumulative} snapshots (audit verdict totals
    and their metrics view) plus a
    bounded audit-record delta, framed as JSONL: snapshot object first,
    one audit record per further line. The
    aggregator keeps the latest snapshot per client, so fleet rollups
    are exactly the sum of the clients' local counters, re-pushing is
    idempotent, and a client restart self-corrects on its next push. *)

type snapshot = {
  sn_client : string;  (** 1..128 bytes; labels the client's series *)
  sn_ts : float;  (** client-side tracer seconds at push time *)
  sn_totals : Audit.totals;
  sn_metrics : Jsonx.t;  (** the client's {!Metrics.view_to_json} *)
}

val snapshot_to_json : snapshot -> Jsonx.t
val snapshot_of_json : Jsonx.t -> snapshot

(** [encode_push snapshot deltas] — the JSONL push body. *)
val encode_push : snapshot -> Audit.record list -> string

(** Strict inverse of {!encode_push}: malformed JSON, a missing
    snapshot line, or an empty/oversized client id is [Error] (serve it
    as 400). *)
val decode_push : string -> (snapshot * Audit.record list, string) result

type t

val create : unit -> t

(** Store [s] as its client's latest snapshot (replacing, not
    accumulating — snapshots are cumulative). *)
val apply : t -> snapshot -> deltas:Audit.record list -> unit

(** Known client ids, sorted. *)
val clients : t -> string list

(** Sum of every client's latest totals. *)
val rollup : t -> Audit.totals

(** Per-client [jitbull_fleet_*] series (verdict mix, forbid rate,
    cache-hit rate, push counts) plus the rollup sums. *)
val render_prometheus : t -> string

(** The same data as JSON (e2e tests, tooling). *)
val to_json : t -> Jsonx.t

(** The operator dashboard served at [/fleet?format=html]. *)
val render_html : t -> string

(** {2 Routes} *)

(** [push_response t body] — [POST /push]: {!decode_push}, then {!apply};
    the reply is [{"ok": true, "clients": n}], or a JSON 400 on a
    malformed body. The applied push is returned beside the reply, so a
    caller can relay its records or count it. *)
val push_response :
  t -> string -> Http_export.response * (snapshot * Audit.record list) option

(** [fleet_response t query] — [GET /fleet]: {!render_prometheus} by
    default, {!render_html} for [?format=html], {!to_json} for
    [?format=json]. *)
val fleet_response : t -> (string * string) list -> Http_export.response
