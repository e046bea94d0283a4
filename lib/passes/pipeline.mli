(** The ordered optimization pipeline — our stand-in for IonMonkey's
    [OptimizeMIR] (32 passes in SpiderMonkey; 18 here, documented scaling
    in DESIGN.md): inlining, critical-edge splitting, phi elimination,
    type analysis, simplification, alias analysis, GVN, LICM, range
    analysis, bounds-check elimination, constant folding, test folding,
    empty-block elimination, DCE, sinking, edge-case analysis,
    scheduling, renumbering.

    Two of the passes ([splitcriticaledges], [renumber]) are mandatory and
    cannot be disabled, exercising the paper's scenario (3) where JITBULL
    must fall back to no-JIT for a function. *)

val passes : Pass.t list

(** [pass_names] in pipeline order. *)
val pass_names : string list

(** [can_disable name] is false for unknown passes too. *)
val can_disable : string -> bool

(** [run vulns ?disabled ?verify g] runs the pipeline on [g] in place.
    Passes named in [disabled] are skipped (their Δ is then empty — the
    JITBULL mitigation). With [verify] (default false) the MIR verifier
    runs after every pass and raises on violations.

    With [obs] installed, every executed pass is traced as a
    ["pass.<name>"] span, timed into a ["pass.<name>.seconds"] histogram,
    and its instruction-count change accumulated in a
    ["pass.<name>.delta_size"] counter; without it the pipeline runs
    exactly as before.

    Returns the snapshot trace: the initial IR (IR₀) followed by one
    snapshot per pass (IRᵢ) — [n+1] snapshots for [n] passes, exactly
    the inputs of the paper's Δ extractor. A pass that was skipped or
    left the IR as the previous snapshot has it
    ({!Jitbull_mir.Snapshot.matches}) repeats that snapshot physically,
    so one shared snapshot can stand for several consecutive passes. *)
val run :
  Vuln_config.t ->
  ?obs:Jitbull_obs.Obs.t ->
  ?inline_resolver:(string -> Jitbull_mir.Mir.t option) ->
  ?disabled:string list ->
  ?verify:bool ->
  Jitbull_mir.Mir.t ->
  (string * Jitbull_mir.Snapshot.t) list

(** [run_quiet] is [run] without snapshotting — used by the engine when no
    JITBULL database is installed, giving the paper's zero-overhead
    empty-DB behaviour. *)
val run_quiet :
  Vuln_config.t ->
  ?obs:Jitbull_obs.Obs.t ->
  ?inline_resolver:(string -> Jitbull_mir.Mir.t option) ->
  ?disabled:string list ->
  ?verify:bool ->
  Jitbull_mir.Mir.t ->
  unit
