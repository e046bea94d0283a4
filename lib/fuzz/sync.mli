(** Distributed fuzzing campaigns: master/worker corpus sync over the
    dependency-free HTTP layer, plus corpus distillation for CI.

    Modeled on Fuzzilli's master/worker topology: one {!Master} owns the
    authoritative coverage map and corpus; {!Worker}s run local
    coverage-guided campaigns ({!Harness.guided_campaign}, which mutates
    only the IL-carrying entries) and periodically

    - lease a generator-seed range from [GET /fuzz/work] (work stealing:
      a range whose lease expires before [POST /fuzz/done] is re-issued
      to the next worker that asks),
    - upload locally-interesting inputs to [POST /fuzz/interesting]
      (deduplicated by source digest, so re-uploads are idempotent; an
      uploaded IL sidecar is kept only when it {!Il.parse}s and lowers
      ({!Il.to_source}) to exactly the uploaded source — otherwise the
      input is admitted source-only, so a forged or stale sidecar never
      becomes another worker's mutation parent),
    - sync coverage through [POST /fuzz/coverage] — the master unions
      the worker's feature hashes into its map and answers with the
      features the worker was missing, so both sides converge on the
      union with one round-trip regardless of how often it is repeated,
    - download corpus entries they have not seen from
      [GET /fuzz/corpus?since=N] (the periodic corpus broadcast), and
    - push their local metrics ({!Jitbull_obs.Fleet} snapshot) to
      [POST /push]; the master serves the per-worker series on
      [GET /fleet] exactly like jitbulld.

    Every sync bumps the worker's [fuzz.corpus_syncs] counter (pushed
    to the master's [/fleet]) and the master's {!Master.syncs}.
    With a [corpus_dir] the master's corpus is write-through persistent
    ({!Corpus}), and a restarted master replays it into a fresh coverage
    map — distilled entries survive. *)

(** {1 Master} *)

module Master : sig
  type t

  (** [start ()] binds 127.0.0.1:[port] ([port = 0] picks a free one).
      [corpus_dir] makes the corpus persistent (entries already there
      are reloaded and replayed into the coverage map). [chunk] is the
      default work-lease width in seeds (default 64); [lease_timeout]
      (seconds, default 30) is the work-stealing horizon. [config] is
      the engine the master replays reloaded entries under (default
      {!Oracle.default_config}). *)
  val start :
    ?config:Jitbull_jit.Engine.config ->
    ?corpus_dir:string ->
    ?chunk:int ->
    ?lease_timeout:float ->
    port:int ->
    unit ->
    t

  val port : t -> int
  val coverage_count : t -> int
  val corpus_size : t -> int
  val corpus_entries : t -> Corpus.entry list

  (** Coverage syncs served so far. *)
  val syncs : t -> int

  (** Close the listening socket and join the serving domains.
      Idempotent. *)
  val stop : t -> unit
end

(** {1 Worker} *)

module Worker : sig
  type result = {
    w_rounds : int;
    w_execs : int;
    w_signals : Harness.finding list;  (** oldest first, across rounds *)
    w_coverage : int;  (** local map size after the last sync *)
    w_corpus_size : int;
    w_uploaded : int;  (** locally-found entries sent to the master *)
    w_imported : int;  (** master entries admitted into the local corpus *)
    w_yield : Harness.yield;  (** typed-IL mutation yield, summed over rounds *)
    w_cve_execs : (Jitbull_passes.Vuln_config.cve * int) list;
        (** first attribution of each CVE ([track_cves]); exec counts
            are cumulative across rounds *)
  }

  (** [run ~id ~port ()] — the worker loop: [rounds] iterations of
      lease range → local campaign of [execs_per_round] instrumented
      executions → upload interesting → coverage sync → corpus download
      → fleet push → release lease. [rng_seed] defaults to a hash
      of [id] so concurrent workers explore different mutation streams.
      Blocking; run each worker in its own thread for a multi-worker
      topology. *)
  val run :
    ?config:Jitbull_jit.Engine.config ->
    ?rounds:int ->
    ?execs_per_round:int ->
    ?rng_seed:int ->
    ?track_cves:bool ->
    id:string ->
    port:int ->
    unit ->
    result
end

(** {1 Distillation} *)

type distilled = {
  d_entries : Corpus.entry list;
      (** greedy cover order: each entry contributes ≥ 1 feature no
          earlier entry covers *)
  d_covers : int list;  (** new features per entry, same order *)
  d_features : int;  (** features of the full input set *)
  d_total : int;  (** entries before minimization *)
}

(** [distill entries] — minimize to a coverage-preserving subset:
    replay every entry under [config] (default {!Oracle.default_config}),
    then greedily keep the entry covering the most uncovered features
    (ties to the smallest id) until the kept set covers everything the
    full set covers. Deterministic for a fixed entry list and config. *)
val distill :
  ?config:Jitbull_jit.Engine.config -> Corpus.entry list -> distilled

(** The first line of every manifest; bump when the format changes. *)
val manifest_version : string

(** The committed-corpus manifest (golden-tested, stable):
    version line, [entries]/[features]/[of] counts, then one
    [entry <ord> cover <n> md5 <hex> <js|il>] line per kept entry in
    cover order. *)
val manifest : distilled -> string

(** [write_distilled ~dir d] — write the kept entries as
    [NNNNNN.js] (+ [NNNNNN.il] sidecars when present, renumbered in
    cover order) plus [MANIFEST] into [dir] (created if needed). *)
val write_distilled : dir:string -> distilled -> unit
