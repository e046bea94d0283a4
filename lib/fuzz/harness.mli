(** Fuzzing campaigns, including the paper's §IV-A pipeline ("feed the
    output of JIT fuzzers directly to [JITBULL's] database") and the
    coverage-guided loop layered on top of it. *)

type finding = {
  seed : int;
      (** generator seed for {!campaign}; execution index (1-based) for
          {!guided_campaign} *)
  source : string;
  verdict : Oracle.verdict;
}

type report = {
  total : int;
  agreements : int;
  signals : finding list;  (** exploit signals, oldest first *)
}

(** [campaign ~profile ~seeds ?config ()] — the blind sweep: run the
    generator over [seeds] and classify each program. [`Benign] programs
    are expected to agree on any engine; [`Aggressive] programs surface
    exploit signals when [config] carries active vulnerabilities. *)
val campaign :
  profile:[ `Benign | `Aggressive ] ->
  seeds:int list ->
  ?config:Jitbull_jit.Engine.config ->
  unit ->
  report

(** [auto_harvest ~vulns ~db findings] implements the §IV-A loop: install
    the DNA of every signal-producing input into [db] (CVE ids are
    synthesized as ["FUZZ-<seed>"]). Returns the number of DNA entries
    added. *)
val auto_harvest :
  vulns:Jitbull_passes.Vuln_config.t -> db:Jitbull_core.Db.t -> finding list -> int

(** {2 Coverage-guided campaigns} *)

type curve_point = {
  cp_execs : int;
  cp_coverage : int;
}

(** Mutation yield: how many typed-IL mutants were executed and how many
    ran cleanly on the reference tier (no {!Oracle.Runtime_error}) — the
    validity-by-construction promise of {!Il_mutate}, measured. *)
type yield = {
  y_mutants : int;
  y_valid : int;
}

(** [y_valid / y_mutants]; [1.0] when no mutants ran. *)
val yield_ratio : yield -> float

type guided = {
  g_execs : int;
  g_signals : finding list;  (** oldest first *)
  g_coverage : int;  (** distinct features at the end *)
  g_curve : curve_point list;
      (** one point per coverage-increasing execution, oldest first *)
  g_corpus_size : int;
  g_seconds : float;
  g_cve_execs : (Jitbull_passes.Vuln_config.cve * int) list;
      (** with [track_cves]: execution index at which each CVE was first
          attributed to a signal (single-CVE engine probes) *)
  g_yield : yield;  (** typed-IL mutants ({!Il_mutate}) *)
}

(** The VDC catalog's demonstrator sources, in catalog order. *)
val vdc_seed_sources : unit -> string list

(** Default seed schedule of {!guided_campaign}: the benign programs of
    seeds 0–3, the aggressive gadget compositions of seeds 0–7, then the
    VDC catalog. *)
val default_seed_sources : unit -> string list

(** [guided_campaign ?config ... ~max_execs ()] — the coverage-guided
    loop: replay any inputs already in [corpus], run the seed schedule
    ([seed_sources], default {!default_seed_sources}, followed by the
    {!Il.seeds}), then mutate. Every execution is instrumented
    ({!Oracle.run_instrumented}) and admitted to [corpus] iff it
    contributed new {!Coverage} features. [time_budget] (seconds) bounds
    wall-clock in addition to [max_execs]. With [track_cves], every
    signal is attributed against single-CVE engines until all modeled
    CVEs are accounted for. Deterministic for fixed inputs and [rng_seed]
    apart from [time_budget] and [g_seconds].

    The typed IL is the only mutation substrate: each mutation step draws
    a parent and a donor gain-weighted among the IL-carrying corpus
    entries (falling back to the {!Il.seeds} while there are none),
    applies {!Il_mutate.mutate}, and admits the mutant with its
    serialized IL so its lineage stays mutable. Source-only inputs
    (generator programs, VDC demonstrators, [.js]-only corpus entries)
    run and are admitted for their coverage but are never mutated. The
    yield lands in [g_yield], and when [config] carries an [obs] handle
    the campaign maintains the [fuzz.il_mutants] counter and the
    [fuzz.valid_ratio] gauge. [mutation:false] degrades to the blind
    generator sweep (no IL seeds, no mutants; still instrumented — the
    baseline the guided mode must dominate). *)
val guided_campaign :
  ?config:Jitbull_jit.Engine.config ->
  ?corpus:Corpus.t ->
  ?coverage:Coverage.t ->
  ?rng_seed:int ->
  ?time_budget:float ->
  ?seed_sources:string list ->
  ?mutation:bool ->
  ?track_cves:bool ->
  max_execs:int ->
  unit ->
  guided

(** Blind aggressive generator sweep (seed = execution index) with the
    same instrumentation — the baseline for coverage comparisons. *)
val blind_sweep :
  ?config:Jitbull_jit.Engine.config ->
  ?track_cves:bool ->
  max_execs:int ->
  unit ->
  guided

(** [unharvested ~config findings] — the findings that still produce an
    exploit signal under [config] (typically a go/no-go-armed engine
    built from the freshly harvested DB): what the nightly CI job fails
    on. *)
val unharvested :
  config:Jitbull_jit.Engine.config -> finding list -> finding list
