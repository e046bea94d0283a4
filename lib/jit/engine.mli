(** The tiered execution engine: interpreter → baseline JIT → optimizing
    (Ion-like) JIT, mirroring Fig. 1 of the paper.

    - After [baseline_threshold] invocations (paper: 100; scaled default 8)
      a function is compiled without optimization (MIR built from feedback,
      mandatory passes only, lowered and register-allocated).
    - After [ion_threshold] invocations (paper: 1500; scaled default 32)
      the full 18-pass pipeline runs. If a JITBULL [analyzer] is installed,
      the per-pass IR snapshots are handed to it and its verdict drives the
      paper's go/no-go policy: [Allow] installs the code; [Disable_passes]
      triggers one recompilation with those passes off (the paper's
      [Recompile] flag) when all are disableable, else the function is
      blacklisted; [Forbid_jit] blacklists directly (no-JIT for that
      function only).
    - A failed guard raises a bailout; the engine re-executes the call in
      the interpreter tier and blacklists the function after
      [max_bailouts] (replay-from-entry deoptimization; see DESIGN.md for
      the fidelity note).

    Every Ion tier-up is one compile job over inputs frozen on the main
    thread (the feedback row and the inline callees' rows, from which
    the policy key also comes). Without a [compile_pool] the job runs
    inline. With one it runs on a helper domain while the function keeps
    executing baseline code, and the finished [(code, verdict)] is
    installed at the next function-entry safepoint; a full queue runs
    the same job inline. See DESIGN.md §9 for the staleness rules and
    memory-model notes.

    The heap sentinel standing in for JIT code pointers is installed when
    the first function is JIT-compiled; the VM checks it on every transfer
    to compiled code. *)

module Value = Jitbull_runtime.Value

type decision =
  | Allow
  | Disable_passes of string list
  | Forbid_jit

(** What the engine knows about the compile a verdict is being asked
    for: hashes of the function's bytecode and of the type-feedback row
    the compile consumed (the copy frozen at tier-up).
    The analyzer records them in the audit trail so a decision can be
    tied to the exact program state it was made against. *)
type compile_ctx = {
  cc_bytecode_hash : int;
  cc_feedback_hash : int;
}

type analyzer =
  ctx:compile_ctx ->
  func_index:int ->
  name:string ->
  trace:(string * Jitbull_mir.Snapshot.t) list ->
  decision

(** The policy-decision cache: go/no-go verdicts memoized across Ion
    compiles (and across engines sharing one {!config}), keyed by a hash
    of the function's bytecode, its type-feedback row and the bytecode +
    feedback of the statically bound callees the inliner may resolve
    (the frozen inline resolver's inputs). The [generation] closure —
    typically the DNA database's mutation counter — is consulted on
    every access; when it moves, the whole cache is dropped, so
    [Db.add]/[Db.remove_cve] invalidate previously cached verdicts.

    On a hit the engine skips the snapshot-traced compile, the Δ
    extraction and the DB comparison (a [Forbid_jit] hit skips compilation
    entirely) and applies the cached verdict directly; the analyzer is not
    called, so with an {!Jitbull_obs.Obs.t} installed the audit trail
    gets a [Cache_hit] record for that compile instead of a [Fresh] one.
    [policy.cache_hits] / [policy.cache_misses] count effectiveness.

    All operations are domain-safe (internal mutex): helper compile
    domains look up and store verdicts concurrently with the main
    thread. *)
module Policy_cache : sig
  type t

  val create : ?max_entries:int -> ?generation:(unit -> int) -> unit -> t

  (** [lookup]/[store] are exposed for tests and tools; the engine drives
      them internally. Both revalidate against [generation] first.
      [store ~if_generation:g] drops the verdict when the generation has
      moved past [g] — helper domains pass the generation they computed
      the verdict against, so a verdict racing [Db.add] is never cached
      under the post-mutation generation. *)
  val lookup : t -> int -> decision option

  val store : ?if_generation:int -> t -> int -> decision -> unit

  (** [flush t] drops every cached verdict now and resyncs to the
      current generation — push-driven invalidation for remote clients
      that just observed a DB-generation bump (counted in
      {!invalidations} when anything was dropped). Lookups would notice
      the moved generation on their own; flushing closes the window in
      which a pre-bump verdict could still be served. *)
  val flush : t -> unit

  val hits : t -> int
  val misses : t -> int

  (** [invalidations t] — generation-change flushes observed. *)
  val invalidations : t -> int

  val length : t -> int

  (** The [generation] closure's current value (no lock; the closure is
      expected to be domain-safe itself). *)
  val current_generation : t -> int
end

type config = {
  baseline_threshold : int;
  ion_threshold : int;
  vulns : Jitbull_passes.Vuln_config.t;
  analyzer : analyzer option;
  verify_passes : bool;  (** run the MIR verifier after every pass *)
  max_bailouts : int;
  jit_enabled : bool;  (** [false] = the paper's "NoJIT" configuration *)
  native : bool;
      (** back Ion-tier installs with generated x86-64 machine code
          (default [true]). Ignored — with a [native.fallback_total]
          counter bump — when the host is not x86-64/POSIX or
          [JITBULL_NO_NATIVE] is set; the LIR executor then runs the
          code, byte-for-byte equivalently. The baseline tier always
          uses the executor. Evaluated once at {!create}. *)
  obs : Jitbull_obs.Obs.t option;
      (** telemetry: compile spans ([compile_baseline]/[compile_ion] plus
          per-pass spans in the pipeline), [tier_up]/[bailout]/[deopt]/
          [blacklist] events, and VM dispatch counters. [None] (default)
          records nothing and adds no measurable cost. *)
  policy_cache : Policy_cache.t option;
      (** memoized go/no-go verdicts; [None] (default) analyzes every Ion
          compile afresh. Only consulted when [analyzer] is present. *)
  compile_pool : Compile_queue.t option;
      (** helper-domain pool for off-main-thread Ion compilation; [None]
          (default) runs the same compile job inline at the tier-up
          site. The pool is owned by the caller (shareable across
          engines) and must be {!Compile_queue.shutdown} by it.
          Background mode also needs a
          [policy_cache] with a DB-generation closure for results to be
          invalidated by concurrent DB mutation — without one, finished
          compiles are never considered stale. *)
}

val default_config : config

type stats = {
  mutable nr_jit : int;  (** functions Ion-compiled (paper's Nr_JIT) *)
  mutable nr_disjit : int;  (** … with ≥1 pass disabled (Nr_DisJIT) *)
  mutable nr_nojit : int;  (** … forbidden from JIT (Nr_NoJIT) *)
  mutable baseline_compiles : int;
  mutable ion_compiles : int;  (** including recompilations *)
  mutable bailouts : int;
  mutable deopts : int;  (** functions blacklisted after repeated bailouts *)
  mutable peephole_removed : int;
      (** LIR instructions deleted by the post-allocation peephole *)
  mutable async_installs : int;
      (** background compiles installed at a safepoint *)
  mutable stale_results : int;
      (** background compiles discarded (function blacklisted or DB
          generation moved mid-compile) *)
  mutable main_stall_seconds : float;
      (** main-thread time blocked on compilation: the whole Ion compile
          in synchronous mode, only {!drain} waits in background mode *)
  mutable native_installs : int;
      (** Ion installs backed by native machine code (never counts a
          forbidden or blacklisted compile: emission is post-verdict) *)
}

type tier =
  | Interpreted
  | Baseline
  | Ion
  | Blacklisted

type t

val create : ?realm:Jitbull_runtime.Realm.t -> config -> Jitbull_bytecode.Op.program -> t

val vm : t -> Jitbull_bytecode.Vm.t

val stats : t -> stats

val realm : t -> Jitbull_runtime.Realm.t

val obs : t -> Jitbull_obs.Obs.t option

(** Current tier of function [idx]. With a compile pool, a function stays
    [Baseline] until its background compile is installed at a safepoint. *)
val tier_of : t -> int -> tier

(** Machine code currently installed for function [idx], when the native
    backend compiled it (exposed for tests asserting the code-page
    lifecycle). *)
val native_code_of : t -> int -> Jitbull_native.Native.code option

(** [drain t] blocks until every in-flight background compile has been
    published and applied (installed or discarded as stale). No-op
    without a [compile_pool]. {!run} drains before returning; tests
    driving {!Jitbull_bytecode.Vm.call_function} directly use this as a
    barrier. *)
val drain : t -> unit

(** [run t] executes the program's top level, waits for in-flight
    background compiles, and returns everything printed. *)
val run : t -> string

(** [run_source ?realm config source] — parse, compile, create, run;
    returns the output and the engine for inspection. *)
val run_source :
  ?realm:Jitbull_runtime.Realm.t -> config -> string -> string * t
