(** The JITBULL vulnerability database: DNA vectors of every JITed
    function of every installed vulnerability demonstrator code (VDC).

    Lifecycle (paper §IV-C): when a vulnerability is reported, the
    maintainer extracts the demonstrator's DNA and ships it to users as an
    update; when the patch is applied, the entry is removed. The database
    can hold several concurrent vulnerabilities (the paper measured at
    most 2 overlapping in 2019).

    The on-disk format is a single s-expression file; see
    [bin/jitbull_db] for the management CLI.

    The database is domain-safe: queries ({!matching}, {!entries},
    {!generation}, …) take an internal reader lock while {!add} /
    {!remove_cve} / {!apply} take the writer side, so an engine can run
    the go/no-go comparison while a client's subscriber thread applies a
    push, and jitbulld's handler domains can serve [/delta] while another
    installs. A verdict is cached only against the {!generation} it
    was computed at.

    The index is one postings table per (pass, side) keyed by the packed
    sub-chain ints ({!Delta.key}); a query accumulates EqChains in a
    reused per-domain array, so a posting costs one int hash and no
    allocation.

    Next to the index the database keeps the set of {!posted} passes —
    those with a non-empty Δ side in some entry — under the same lock
    and generation, so the analyzer can skip extracting every other
    pass's Δ. *)

type entry = {
  cve : string;  (** e.g. "CVE-2019-17026" *)
  dna : Dna.t;  (** one per JITed function of the VDC *)
}

type t

val create : unit -> t

val is_empty : t -> bool

val size : t -> int  (** number of entries, O(1) *)

(** [generation t] increments on every {!add} that appends, every
    {!remove_cve}, and each entry or resync {!apply} installs — the
    engine's policy-decision cache keys on it so any DB mutation
    invalidates previously cached verdicts. *)
val generation : t -> int

(** [posted t] — [(g, p)]: the passes [p] accepts are those with a
    non-empty Δ side in some entry, as of generation [g] (captured
    atomically under the read lock). Under [Thr ≥ 1] a function's Δᵢ can
    only match a pass in [p], so the analyzer extracts just those
    ({!Dna.extract}'s [only]). Maintained by {!add} (which can only grow
    the set) and {!remove_cve} (which rebuilds it with the index). *)
val posted : t -> int * (string -> bool)

val entries : t -> entry list  (** insertion order; memoized *)

(** [add t entry] appends in O(index size of the entry) — amortized O(1)
    array growth plus one posting per (pass, side, sub-chain) of its DNA.
    Multiplicities must be ≥ 1, as extraction and {!Delta.of_sexpr}
    guarantee. An entry whose CVE and canonical DNA ({!Dna.to_sexpr})
    equal one [t] holds is ignored: no append, no generation bump. *)
val add : t -> entry -> unit

(** [remove_cve t cve] drops every entry of a vulnerability (= the patch
    has been applied) and rebuilds the inverted index. *)
val remove_cve : t -> string -> unit

val cves : t -> string list  (** distinct, insertion order *)

(** [matching ?params ?obs t dna] — every DB entry with ≥1 pass whose Δ is
    similar to the function's, with the matching passes: exactly
    [List.filter_map (fun e -> Comparator.matching_passes dna e.dna …)]
    over {!entries} (same entries, same pass order, same list order), but
    answered through the inverted sub-chain index: only (entry, pass,
    side) cells sharing at least one sub-chain key with the function's
    DNA are ever touched, and only cells whose overlap reaches [Thr] (the
    "prefilter hits") proceed to the Ratio bound — sub-linear in the DB
    size for benign functions, which share few keys with exploit DNA.

    With [obs]: [comparator.indexed.seconds] histogram and
    [comparator.prefilter_candidates] / [comparator.prefilter_hits] /
    [comparator.matches] counters.

    Raises [Invalid_argument] when [params.thr < 1]: a non-positive
    threshold matches key-disjoint sides, which an overlap index cannot
    see ({!Comparator.matching_passes} still folds them). *)
val matching :
  ?params:Comparator.params ->
  ?obs:Jitbull_obs.Obs.t ->
  t ->
  Dna.t ->
  (string * string list) list

(** One query's full evidence, captured atomically under the read lock —
    the audit trail's raw material. *)
type query = {
  q_matches : (string * Comparator.match_detail list) list;
      (** as {!matching}, with each pass's side and EqChains scores *)
  q_prefilter_candidates : int;
      (** (entry, pass, side) cells sharing ≥1 sub-chain key *)
  q_prefilter_hits : int;  (** cells surviving the Thr prefilter *)
  q_generation : int;  (** DB generation the answer is valid against *)
  q_size : int;  (** entries at query time *)
}

(** {!matching} with the evidence kept: [(matching_detailed t dna).q_matches]
    with details dropped equals [matching t dna] exactly. Raises
    [Invalid_argument] when [params.thr < 1]. *)
val matching_detailed :
  ?params:Comparator.params -> ?obs:Jitbull_obs.Obs.t -> t -> Dna.t -> query

(** Drop each match's evidence, keeping CVE and pass names. *)
val drop_details :
  (string * Comparator.match_detail list) list -> (string * string list) list

(** [harvest t ~cve ~vulns source] runs the demonstrator [source] on an
    engine with the given vulnerability configuration active (the engine
    is unpatched during the vulnerability window), extracting the DNA of
    every Ion-compiled function and installing the entries. Returns the
    number of entries added ({!add} ignores ones [t] already holds).
    Functions whose DNA has no non-empty delta are skipped (they carry
    no signal).

    With [obs], harvesting is traced as a [db_harvest] span (fields
    [cve], [entries]) and counted in [db.harvested_entries]. *)
val harvest :
  ?obs:Jitbull_obs.Obs.t ->
  t ->
  cve:string ->
  vulns:Jitbull_passes.Vuln_config.t ->
  string ->
  int

val to_sexpr : t -> Jitbull_util.Sexpr.t
val of_sexpr : Jitbull_util.Sexpr.t -> t

(** One entry in the on-disk / on-wire format ([(entry CVE (dna …))]) —
    the unit of {!delta_since} payloads shipped to jitbulld clients'
    replicas. [entry_of_sexpr] raises [Sexpr.Decode_error] on anything
    else. *)
val entry_to_sexpr : entry -> Jitbull_util.Sexpr.t

val entry_of_sexpr : Jitbull_util.Sexpr.t -> entry

(** What a replica at generation [g] must do to catch up: [Append]
    entries in order (possibly none), or discard everything and
    [Resync] from the full list. *)
type sync = Append of entry list | Resync of entry list

(** [delta_since t g] — (current generation, catch-up payload), captured
    atomically under the read lock. {!add} bumps the generation exactly
    once per appended entry, so any [g] between the last {!remove_cve}
    and now is answered with the missing suffix ([Append]); a [g] from
    before a removal (or from another DB's history) gets [Resync]. *)
val delta_since : t -> int -> int * sync

(** [apply t payload] — a replica catches up: [Append] adds the entries
    in order, [Resync] replaces the contents and rebuilds the index
    once. Either way under one write lock, so a concurrent query sees
    the replica before or after the payload, never part of it. *)
val apply : t -> sync -> unit

val save : t -> string -> unit
val load : string -> t
