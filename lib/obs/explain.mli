(** The decision-explanation engine: turns one audit record, with the
    IR diff it carries, into a causal report an operator can read — which CVE
    matched, on which passes, on the strength of which sub-chains, why
    the verdict followed, and which per-pass IR transformations
    introduced the evidence.

    Cache-hit records carry no comparator evidence of their own
    ([matches] is empty); {!resolve} replays the stored query evidence by
    finding the newest earlier [Fresh] record for the same compile key
    (function name + bytecode hash + feedback hash) in [history].

    Rendering is pure over the resolved value, so the HTTP exporter, the
    [jsrun --explain] exit report and [jitbull_db explain] all share it.
    [can_disable] (the binaries pass [Pipeline.can_disable]) lets forbid
    verdicts name the mandatory pass; without it the phrasing stays
    generic — [lib/obs] cannot see the pass pipeline. *)

type t = {
  ex_record : Audit.record;  (** the decision being explained *)
  ex_evidence : Audit.record option;
      (** for cache hits: the fresh record whose evidence is replayed
          ([None] when it was evicted — or for fresh records) *)
  ex_diff : Audit.compile_diff option;
      (** per-pass IR diff of the decision (or, for a cache hit, of the
          replayed fresh decision), if captured *)
}

(** [resolve ~history r] — for cache hits, find the fresh record [r]
    replays; take the diff from [r] or that record. [history] is
    typically [Audit.records au] (oldest first; order does not
    matter). *)
val resolve : history:Audit.record list -> Audit.record -> t

(** Plain-text report (multi-line, trailing newline). *)
val to_text : ?can_disable:(string -> bool) -> t -> string

(** Self-contained HTML report: inline CSS only, one table per matched
    CVE plus a per-pass diff table. *)
val to_html : ?can_disable:(string -> bool) -> t -> string

(** HTML index of recent decisions, newest first, capped at [limit]
    (default 32), each linking to [/explain?id=<seq>], with a column
    saying whether the record carries an IR diff. *)
val index_html : ?limit:int -> Audit.record list -> string
