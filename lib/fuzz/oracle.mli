(** Differential oracle: run one program on the reference interpreter, the
    bytecode VM and the tiered JIT, and classify the outcome. *)

type verdict =
  | Agree of string  (** all tiers printed this *)
  | Mismatch of {
      interp : string;
      vm : string;
      jit : string;
    }  (** a miscompilation signal *)
  | Crash of string  (** JITed code accessed memory outside the heap *)
  | Shellcode of string  (** the simulated JIT code pointer was hijacked *)
  | Pwned of string  (** the program itself reported corruption (PWNED line) *)
  | Runtime_error of string  (** a JS-level error on the reference tier too *)

val is_exploit_signal : verdict -> bool
(** [Crash], [Shellcode], [Pwned] or [Mismatch] — the outcomes a fuzzing
    campaign reports (and, per the paper's §IV-A, the inputs whose DNA is
    worth installing). *)

val verdict_summary : verdict -> string

(** Stable lowercase class name ([agree]/[mismatch]/[crash]/[shellcode]/
    [pwned]/[runtime_error]); the shrinker preserves this class. *)
val verdict_kind : verdict -> string

(** Same {!verdict_kind}, payloads ignored. *)
val same_kind : verdict -> verdict -> bool

(** The config every oracle entry point defaults to: fast tier-up
    thresholds (baseline 2, Ion 4) on a patched engine with no
    analyzer. *)
val default_config : Jitbull_jit.Engine.config

(** [run ?config source] — [config] defaults to {!default_config}. The
    interpreter and VM tiers always run patched; only the JIT tier uses
    [config]. *)
val run : ?config:Jitbull_jit.Engine.config -> string -> verdict

(** {2 Instrumented runs}

    {!run_instrumented} is {!run} plus the cheap artifacts the
    coverage-guided fuzzer maps into feature space (see {!Coverage}):
    the compiled bytecode, every DNA the traced Ion compiles produced
    (collected by wrapping the configured analyzer; decisions are
    unchanged), and engine-event flags read from stats and the
    [Obs]-pattern counters ([engine.verdict.*], [pass.<name>.changed]).
    A fresh private [Obs.t] is installed per run; the policy cache is
    bypassed so every compile is analyzed (and traced) afresh. *)

type instrumented = {
  i_verdict : verdict;
  i_bytecode : Jitbull_bytecode.Op.program option;
      (** [None] only when the source does not parse *)
  i_dnas : Jitbull_core.Dna.t list;  (** one per traced Ion compile *)
  i_events : string list;
      (** e.g. ["bailout"; "policy:forbid"; "pass-changed:gvn"] *)
}

val run_instrumented : ?config:Jitbull_jit.Engine.config -> string -> instrumented

(** {2 Metamorphic invariants}

    Configuration changes that must not change observable behavior
    (after "Understanding and Finding JIT Compiler Performance Bugs":
    when there is no ground-truth spec, vary the configuration and
    require agreement). *)

type violation = {
  mv_invariant : string;
      (** e.g. ["disable[gvn]==full"], ["interp==jit"] *)
  mv_detail : string;
}

(** [check_metamorphic ?config ?subsets ?alt_configs source] checks,
    against the reference interpreter's output:
    - interpreter == VM == JIT under [config];
    - tier agreement: when the native x86-64 backend is enabled (the
      default), the JIT leg above ran machine code; the same config with
      [native = false] re-runs on the LIR executor and must also agree —
      a four-way interp == VM == native == executor oracle. Auto-skipped
      where the backend is unavailable;
    - for each pass subset in [subsets] (default: every optional pass as
      a singleton), an engine forced to disable that subset agrees;
    - each named engine in [alt_configs] agrees — callers pass a
      DB-growth chain here.

    Returns the violated invariants (empty = all hold). An engine that
    raises (a crash, shellcode, a runtime error, heap exhaustion) violates
    its invariant, with the {!verdict_summary} of {!run}'s verdict for it
    as the detail. A source whose reference tier raises a JS-level error
    is vacuous (returns []). The policy cache is bypassed throughout. *)
val check_metamorphic :
  ?config:Jitbull_jit.Engine.config ->
  ?subsets:string list list ->
  ?alt_configs:(string * Jitbull_jit.Engine.config) list ->
  string ->
  violation list
