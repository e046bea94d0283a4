module Value = Jitbull_runtime.Value
module Realm = Jitbull_runtime.Realm
module Heap = Jitbull_runtime.Heap
module Vm = Jitbull_bytecode.Vm
module Op = Jitbull_bytecode.Op
module Feedback = Jitbull_bytecode.Feedback
module Compiler = Jitbull_bytecode.Compiler
module Parser = Jitbull_frontend.Parser
module Builder = Jitbull_mir.Builder
module Snapshot = Jitbull_mir.Snapshot
module Pipeline = Jitbull_passes.Pipeline
module Vuln_config = Jitbull_passes.Vuln_config
module Lir = Jitbull_lir.Lir
module Lower = Jitbull_lir.Lower
module Regalloc = Jitbull_lir.Regalloc
module Executor = Jitbull_lir.Executor
module Native = Jitbull_native.Native
module Obs = Jitbull_obs.Obs
module Clock = Jitbull_obs.Clock
module Jsonx = Jitbull_obs.Jsonx

let log_src = Logs.Src.create "jitbull.engine" ~doc:"JIT engine tier-up and policy events"

module Log = (val Logs.src_log log_src : Logs.LOG)

type decision =
  | Allow
  | Disable_passes of string list
  | Forbid_jit

(* What the engine knows about the compile it is asking a verdict for —
   handed to the analyzer so the audit trail can tie the decision to the
   exact bytecode + type-feedback state it was made against, and so the
   analyzer records into this engine's telemetry. *)
type compile_ctx = {
  cc_bytecode_hash : int;
  cc_feedback_hash : int;
  cc_obs : Obs.t option;
}

type analyzer =
  ctx:compile_ctx ->
  func_index:int ->
  name:string ->
  trace:(string * Snapshot.t) list ->
  decision

(* The policy-decision cache: verdicts keyed by a hash of everything the
   traced compile consumes (bytecode, type feedback, depth-1 inline
   callees), invalidated wholesale whenever the [generation] closure — the
   DNA database's mutation counter — moves. A hit skips the snapshot
   trace, the Δ extraction and the DB comparison entirely; a Forbid hit
   even skips the Ion compile.

   Lookups/stores come from helper compile domains as well as the main
   thread, so every operation runs under the cache's mutex. *)
module Policy_cache = struct
  type t = {
    table : (int, decision) Hashtbl.t;
    generation : unit -> int;
    max_entries : int;
    mu : Mutex.t;
    mutable gen_seen : int;
    mutable hits : int;
    mutable misses : int;
    mutable invalidations : int;
  }

  let create ?(max_entries = 4096) ?(generation = fun () -> 0) () =
    {
      table = Hashtbl.create 64;
      generation;
      max_entries;
      mu = Mutex.create ();
      gen_seen = generation ();
      hits = 0;
      misses = 0;
      invalidations = 0;
    }

  let locked t f =
    Mutex.lock t.mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

  let revalidate t =
    let g = t.generation () in
    if g <> t.gen_seen then begin
      Hashtbl.reset t.table;
      t.gen_seen <- g;
      t.invalidations <- t.invalidations + 1
    end

  let lookup t key =
    locked t (fun () ->
        revalidate t;
        match Hashtbl.find_opt t.table key with
        | Some d ->
          t.hits <- t.hits + 1;
          Some d
        | None ->
          t.misses <- t.misses + 1;
          None)

  (* [if_generation] makes the store conditional: a verdict computed
     against DB generation [g] is dropped when the DB has moved on by
     store time — without the check, a helper domain racing [Db.add]
     could cache an old-DB verdict under the new generation and every
     later compile of that function would reuse it. The comparison runs
     under the mutex, so it cannot itself race [revalidate]. *)
  let store ?if_generation t key decision =
    locked t (fun () ->
        revalidate t;
        match if_generation with
        | Some g when g <> t.gen_seen -> ()
        | _ ->
          if Hashtbl.length t.table >= t.max_entries then Hashtbl.reset t.table;
          Hashtbl.replace t.table key decision)

  let hits t = locked t (fun () -> t.hits)
  let misses t = locked t (fun () -> t.misses)
  let invalidations t = locked t (fun () -> t.invalidations)
  let length t = locked t (fun () -> Hashtbl.length t.table)
  let current_generation t = t.generation ()
end

type config = {
  baseline_threshold : int;
  ion_threshold : int;
  vulns : Vuln_config.t;
  analyzer : analyzer option;
  verify_passes : bool;
  max_bailouts : int;
  jit_enabled : bool;
  native : bool;
  obs : Obs.t option;
  policy_cache : Policy_cache.t option;
  compile_pool : Compile_queue.t option;
}

let default_config =
  {
    baseline_threshold = 8;
    ion_threshold = 32;
    vulns = Vuln_config.none;
    analyzer = None;
    verify_passes = false;
    max_bailouts = 8;
    jit_enabled = true;
    native = true;
    obs = None;
    policy_cache = None;
    compile_pool = None;
  }

type stats = {
  mutable nr_jit : int;
  mutable nr_disjit : int;
  mutable nr_nojit : int;
  mutable baseline_compiles : int;
  mutable ion_compiles : int;
  mutable bailouts : int;
  mutable deopts : int;
  mutable peephole_removed : int;  (* LIR instructions deleted from installed code *)
  mutable async_installs : int;
  mutable stale_results : int;
  mutable main_stall_seconds : float;
  mutable native_installs : int;  (* Ion installs backed by machine code *)
}

type tier =
  | Interpreted
  | Baseline
  | Ion
  | Blacklisted

(* What an Ion compile job hands to [apply]: directly when the job ran
   inline, through the mailbox (installed at the next function-entry
   safepoint) when it ran on a helper domain. *)
type compile_result =
  | A_install of {
      decision : decision option;  (* [None] = no analyzer configured *)
      lir : (Lir.func * int) option;
          (* the code to install and its peephole removals; [None] when
             the verdict forbids JIT *)
      traced : bool;  (* a snapshot-traced compile ran (cache miss) *)
    }
  | A_error of exn * Printexc.raw_backtrace

type inflight = {
  job : Compile_queue.job;
  enq_gen : int;  (* DB generation at enqueue; moved = result is stale *)
  enq_time : float;
  anchor : int option;  (* trace id of the tier_up_request event: the
                           cross-domain parent of the compile spans and
                           the install event *)
}

type t = {
  vm : Vm.t;
  config : config;
  stats : stats;
  tiers : tier array;
  bailout_counts : int array;
  (* globals assigned anywhere by [store_global] bytecode: a function name
     in this set may be rebound at runtime, so it must not be inlined *)
  reassigned_globals : (string, unit) Hashtbl.t;
  mutable sentinel_installed : bool;
  (* ---- background-compilation state ----
     Helper domains push finished results into [results] and raise
     [results_ready]; the main thread polls the flag at every function
     entry (the safepoint) and installs. [async_inflight] is touched by
     the main thread only. *)
  (* each mailbox item carries its publish time, so the main thread can
     histogram the publish → safepoint-install latency *)
  results : (int * float * compile_result) Queue.t;
  results_mu : Mutex.t;
  results_ready : bool Atomic.t;
  async_inflight : (int, inflight) Hashtbl.t;
  (* ---- native Ion tier ----
     Per-function installed machine code; [None] runs the LIR executor.
     [native_fallback] is the reason the backend is off for this engine
     ([config] / [arch] / [env]), fixed at create time — [None] = on. *)
  native_codes : Native.code option array;
  native_fallback : string option;
}

let compute_reassigned (program : Op.program) =
  let tbl = Hashtbl.create 16 in
  let scan (f : Op.func) =
    Array.iter
      (function
        | Op.Store_global name -> Hashtbl.replace tbl name ()
        | _ -> ())
      f.Op.code
  in
  Array.iter scan program.Op.funcs;
  scan program.Op.main;
  tbl

let vm t = t.vm
let stats t = t.stats
let realm t = t.vm.Vm.realm
let obs t = t.config.obs
let tier_of t idx = t.tiers.(idx)
let native_code_of t idx = t.native_codes.(idx)

let func_field t idx = ("func", Jsonx.String t.vm.Vm.program.Op.funcs.(idx).Op.name)

(* DB generation as seen through the policy cache; without a cache there
   is no generation source and async results are never considered stale. *)
let current_gen t =
  match t.config.policy_cache with
  | Some c -> Policy_cache.current_generation c
  | None -> 0

(* Main-thread time spent blocked on compilation: every baseline compile,
   plus the whole Ion compile in synchronous mode or only the [drain]
   waits in background mode. *)
let stalled t f =
  let t0 = Clock.now () in
  Fun.protect
    ~finally:(fun () ->
      t.stats.main_stall_seconds <-
        t.stats.main_stall_seconds +. Float.max 0.0 (Clock.now () -. t0);
      (* mirrored as a gauge so /healthz can threshold on it *)
      Obs.set_gauge t.config.obs "engine.main_stall_seconds"
        t.stats.main_stall_seconds)
    f

(* ---- compilation ---- *)

let executor_callbacks t : Executor.callbacks =
  {
    Executor.call_function = (fun idx args -> Vm.call_function t.vm idx args);
    lookup_global = (fun name -> Vm.load_global t.vm name);
    store_global = (fun name v -> Vm.store_global t.vm name v);
    declare_global = (fun name -> Vm.declare_global t.vm name);
  }

(* The optimizing compile, over inputs frozen by [prepare] so it can run
   on a helper domain as well as inline, in two steps: [optimize_ion]
   builds the MIR and runs the pipeline, collecting the per-pass snapshot
   trace the analyzer consumes when [traced] ([[]] otherwise: the paper's
   zero-overhead empty-DB path); [lower_mir], shared with the baseline
   tier, lowers, register-allocates and peepholes the MIR the verdict
   admitted. Neither mutates engine state: the peephole count is returned
   for the main thread to account. *)
let optimize_ion config (func : Op.func) ~feedback_row ~resolver ~traced ~disabled =
  let g = Builder.build func ~feedback_row in
  let obs = config.obs and verify = config.verify_passes in
  let trace =
    if traced then
      Pipeline.run config.vulns ?obs ~inline_resolver:resolver ~disabled ~verify g
    else begin
      Pipeline.run_quiet config.vulns ?obs ~inline_resolver:resolver ~disabled
        ~verify g;
      []
    end
  in
  (g, trace)

let lower_mir g =
  let lir = Lower.lower g in
  Regalloc.allocate lir;
  let removed = Jitbull_lir.Peephole.run lir in
  (lir, removed)

(* Drop a queued-but-unclaimed compile job for [idx], if any. A job that
   already started runs to completion; its result is discarded as stale
   at the safepoint. Main thread only. *)
let cancel_inflight t idx =
  match t.config.compile_pool with
  | None -> ()
  | Some pool -> (
    match Hashtbl.find_opt t.async_inflight idx with
    | Some info when Compile_queue.cancel pool info.job ->
      Hashtbl.remove t.async_inflight idx;
      Obs.incr t.config.obs "compile.cancelled"
    | _ -> ())

(* Drop the machine code backing function [idx], if any. The unmap is
   deferred by {!Native.release} while recursive native activations are
   still on the stack. *)
let release_native t idx =
  match t.native_codes.(idx) with
  | Some code ->
    t.native_codes.(idx) <- None;
    Native.release code
  | None -> ()

(* [install ~tier_native:true] backs the dispatch entry with generated
   x86-64 code when the backend is on; the LIR executor remains the
   automatic fallback (and the baseline tier, which never asks). Emission
   happens here — on the main thread, strictly after the go/no-go verdict
   admitted the compile — so a Forbid never maps a code page. *)
let install ?(tier_native = false) t idx (lir : Lir.func) =
  let cb = executor_callbacks t in
  let realm = t.vm.Vm.realm in
  let obs = t.config.obs in
  release_native t idx;
  let native_code =
    if not tier_native then None
    else
      match t.native_fallback with
      | Some cause ->
        Obs.incr obs ("native.fallback_total." ^ cause);
        None
      | None ->
        let code = Obs.time obs "native.emit" (fun () -> Native.compile lir) in
        t.stats.native_installs <- t.stats.native_installs + 1;
        t.native_codes.(idx) <- Some code;
        Obs.incr obs "native.compiled_funcs";
        Obs.add obs "native.code_bytes" (Native.code_size code);
        Some code
  in
  let exec =
    match native_code with
    | None -> fun args -> Executor.run lir realm cb args
    | Some code -> (
      match obs with
      | None -> fun args -> Native.run code realm cb args
      | Some _ ->
        (* flush per-call exit-counter deltas (return/hostop/bailout/test)
           into the metric registry; bailouts propagate through finally *)
        fun args ->
          let b = Native.exits code in
          Fun.protect
            ~finally:(fun () ->
              let a = Native.exits code in
              let d name v0 v1 = if v1 > v0 then Obs.add obs name (v1 - v0) in
              d "native.exits_total.return" b.Native.t_return a.Native.t_return;
              d "native.exits_total.hostop" b.Native.t_hostop a.Native.t_hostop;
              d "native.exits_total.bailout" b.Native.t_bailout a.Native.t_bailout;
              d "native.exits_total.test" b.Native.t_test a.Native.t_test)
            (fun () -> Native.run code realm cb args))
  in
  let entry args =
    try exec args
    with Lir.Bailout reason ->
      Log.debug (fun m -> m "bailout in %s: %s" lir.Lir.name reason);
      t.stats.bailouts <- t.stats.bailouts + 1;
      t.bailout_counts.(idx) <- t.bailout_counts.(idx) + 1;
      Obs.incr t.config.obs "engine.bailouts";
      Obs.event t.config.obs "bailout"
        ~fields:[ func_field t idx; ("reason", Jsonx.String reason) ];
      if t.bailout_counts.(idx) > t.config.max_bailouts then begin
        (* deoptimize for good: drop the compiled code *)
        Log.info (fun m -> m "deopt: blacklisting %s after %d bailouts" lir.Lir.name
                     t.bailout_counts.(idx));
        t.vm.Vm.dispatch.(idx) <- None;
        t.tiers.(idx) <- Blacklisted;
        release_native t idx;
        cancel_inflight t idx;
        t.stats.deopts <- t.stats.deopts + 1;
        Obs.incr t.config.obs "engine.deopts";
        Obs.event t.config.obs "deopt"
          ~fields:[ func_field t idx; ("bailouts", Jsonx.Int t.bailout_counts.(idx)) ]
      end;
      (* replay from function entry in the interpreter tier *)
      Vm.interpret t.vm ~func_index:idx t.vm.Vm.program.Op.funcs.(idx) args
  in
  t.vm.Vm.dispatch.(idx) <- Some entry

let ensure_sentinel t =
  if not t.sentinel_installed then begin
    ignore (Heap.alloc_sentinel t.vm.Vm.realm.Realm.heap);
    t.sentinel_installed <- true
  end

let tier_up t idx tier_name =
  Obs.incr t.config.obs ("engine.tier_up." ^ tier_name);
  Obs.event t.config.obs "tier_up"
    ~fields:[ func_field t idx; ("tier", Jsonx.String tier_name) ]

(* ---- the Ion tier-up ----

   One procedure — SpiderMonkey's [OptimizeMIR] with the go/no-go check
   inside — used with or without a [compile_pool]:
   - [prepare] runs on the main thread, once per tier-up: it freezes the
     compile inputs, derives the policy key and consults the cache;
   - the compile job reads only those frozen inputs, so the same closure
     runs inline (no pool, or the queue refused it) or on a helper
     domain;
   - [apply] runs on the main thread: accounting, logging, install or
     blacklist. *)

let hash_mix h x = (h * 0x01000193) lxor x [@@inline]

let func_code_hash (f : Op.func) =
  Array.fold_left (fun h op -> hash_mix h (Hashtbl.hash op)) 0x811C9DC5 f.Op.code

let feedback_hash row =
  Array.fold_left (fun h site -> hash_mix h (Hashtbl.hash site)) 17 row

(* The callees the inliner may ask for: every name loaded by the function
   or, transitively, by a callee (the inliner re-scans inlined bodies)
   that is statically bound to another function and never reassigned.
   Each appears once, in first-load order, with its feedback row
   deep-copied so a helper domain never reads live VM state. *)
let inline_callees t idx =
  let seen = Hashtbl.create 8 in
  let rec scan acc (f : Op.func) =
    Array.fold_left
      (fun acc op ->
        match op with
        | Op.Load_global name
          when not (Hashtbl.mem seen name || Hashtbl.mem t.reassigned_globals name)
          -> (
          Hashtbl.add seen name ();
          match Hashtbl.find_opt t.vm.Vm.globals name with
          | Some (Value.Function cidx) when cidx <> idx ->
            let cf = t.vm.Vm.program.Op.funcs.(cidx) in
            scan ((name, cf, Feedback.copy_row t.vm.Vm.feedback.(cidx)) :: acc) cf
          | _ -> acc)
        | _ -> acc)
      acc f.Op.code
  in
  List.rev (scan [] t.vm.Vm.program.Op.funcs.(idx))

(* The policy-cache key hashes everything the traced compile reads: the
   bytecode and feedback row, then each inline callee's bytecode and
   feedback. Feedback is included deliberately: a re-JIT after a bailout
   sees different feedback, gets a different key, and is re-analyzed
   rather than served a stale verdict. *)
let policy_key ctx callees =
  List.fold_left
    (fun h (_, cf, row) -> hash_mix (hash_mix h (func_code_hash cf)) (feedback_hash row))
    (hash_mix ctx.cc_bytecode_hash ctx.cc_feedback_hash)
    callees

(* On a policy-cache hit the analyzer never runs, so the engine itself
   appends the audit record: the verdict is replayed with no fresh match
   evidence (Thr/Ratio and DB size are the analyzer's business — 0 here),
   against the generation the cache revalidated on. *)
let audit_cache_hit t idx ctx d =
  match t.config.obs with
  | None -> ()
  | Some o ->
    let verdict =
      match d with
      | Allow -> Jitbull_obs.Audit.Allow
      | Disable_passes ps -> Jitbull_obs.Audit.Disable ps
      | Forbid_jit -> Jitbull_obs.Audit.Forbid
    in
    ignore
      (Jitbull_obs.Audit.append (Obs.audit o)
         ~func_name:t.vm.Vm.program.Op.funcs.(idx).Op.name ~func_index:idx
         ~bytecode_hash:ctx.cc_bytecode_hash ~feedback_hash:ctx.cc_feedback_hash
         ~verdict ~matches:[] ~thr:0 ~ratio:0.0 ~prefilter_candidates:0
         ~prefilter_hits:0 ~db_generation:(current_gen t) ~db_size:0
         ~source:Jitbull_obs.Audit.Cache_hit ~duration:0.0 ())

let blacklist t idx reason =
  t.stats.nr_nojit <- t.stats.nr_nojit + 1;
  t.vm.Vm.dispatch.(idx) <- None;
  t.tiers.(idx) <- Blacklisted;
  release_native t idx;
  cancel_inflight t idx;
  Obs.incr t.config.obs "engine.blacklisted";
  Obs.event t.config.obs "blacklist"
    ~fields:[ func_field t idx; ("reason", Jsonx.String reason) ]

(* Go/no-go verdict kind counters: one increment per decision reached
   (fresh or cached, sync or async) — a cheap engine-event signal the
   fuzzer's coverage map consumes alongside bailout/blacklist events. *)
let record_verdict obs = function
  | Allow -> Obs.incr obs "engine.verdict.allow"
  | Disable_passes _ -> Obs.incr obs "engine.verdict.disable"
  | Forbid_jit -> Obs.incr obs "engine.verdict.forbid"

(* A verdict the function can still be Ion-compiled under. *)
let compilable = function
  | Allow -> true
  | Disable_passes ps -> List.for_all Pipeline.can_disable ps
  | Forbid_jit -> false

(* Main thread: account for one finished compile and act on its verdict. *)
let apply t idx = function
  | A_error (e, bt) -> Printexc.raise_with_backtrace e bt
  | A_install { decision; lir; traced } -> (
    let obs = t.config.obs in
    Option.iter
      (fun (_, removed) -> t.stats.peephole_removed <- t.stats.peephole_removed + removed)
      lir;
    t.stats.nr_jit <- t.stats.nr_jit + 1;
    t.stats.ion_compiles <- t.stats.ion_compiles + 1;
    let name = t.vm.Vm.program.Op.funcs.(idx).Op.name in
    let install_ion lir =
      install ~tier_native:true t idx lir;
      t.tiers.(idx) <- Ion;
      tier_up t idx "ion"
    in
    match (decision, lir) with
    | (None | Some Allow), Some (lir, _) -> install_ion lir
    | Some (Disable_passes passes), Some (lir, _) ->
      Log.info (fun m ->
          m "JITBULL: recompiling %s without dangerous passes [%s]" name
            (String.concat ", " passes));
      (* a cached verdict compiled once, not a recompile after a trace *)
      if traced then begin
        t.stats.ion_compiles <- t.stats.ion_compiles + 1;
        Obs.incr obs "engine.recompiles"
      end;
      t.stats.nr_disjit <- t.stats.nr_disjit + 1;
      install_ion lir
    | Some (Disable_passes passes), None ->
      (* scenario 3: a mandatory pass matched — no JIT for this function *)
      Log.info (fun m ->
          m "JITBULL: mandatory pass among [%s] matched — no JIT for %s"
            (String.concat ", " passes) name);
      blacklist t idx "mandatory_pass"
    | Some Forbid_jit, _ ->
      Log.info (fun m -> m "JITBULL: JIT forbidden for %s" name);
      blacklist t idx "forbid_jit"
    | (None | Some Allow), None -> assert false)

(* Main thread, once per tier-up: freeze the compile inputs — the feedback
   row and the inline callees, collected once — and consult the policy
   cache. Returns the compile job, or [None] when a cached verdict forbids
   compiling, in which case the function is blacklisted at once. *)
let prepare t idx : (unit -> compile_result) option =
  ensure_sentinel t;
  let config = t.config in
  let obs = config.obs in
  let func = t.vm.Vm.program.Op.funcs.(idx) in
  let name = func.Op.name in
  Log.debug (fun m ->
      m "ion-compiling %s (invocations reached %d)" name config.ion_threshold);
  let feedback_row = Feedback.copy_row t.vm.Vm.feedback.(idx) in
  let callees = inline_callees t idx in
  let resolver callee =
    List.find_map
      (fun (n, cf, row) ->
        if String.equal n callee then Some (Builder.build cf ~feedback_row:row)
        else None)
      callees
  in
  let optimize ?(fields = []) ~traced disabled =
    Obs.span obs ~fields:(("func", Jsonx.String name) :: fields) "compile_ion"
      (fun () ->
        optimize_ion config func ~feedback_row ~resolver ~traced ~disabled)
  in
  let disabled_field passes =
    ("disabled", Jsonx.List (List.map (fun p -> Jsonx.String p) passes))
  in
  let job body () =
    try body () with e -> A_error (e, Printexc.get_raw_backtrace ())
  in
  (* the one lowering of the MIR this tier-up installs *)
  let installed ?decision ~traced g =
    let lir =
      Obs.span obs ~fields:[ ("func", Jsonx.String name) ] "lower_ion" (fun () ->
          lower_mir g)
    in
    A_install { decision; lir = Some lir; traced }
  in
  match config.analyzer with
  | None ->
    Some (job (fun () -> installed ~traced:false (fst (optimize ~traced:false []))))
  | Some analyze -> (
    let ctx =
      {
        cc_bytecode_hash = func_code_hash func;
        cc_feedback_hash = feedback_hash feedback_row;
        cc_obs = obs;
      }
    in
    let cache = config.policy_cache in
    let key = match cache with Some _ -> policy_key ctx callees | None -> 0 in
    let cached =
      match cache with Some c -> Policy_cache.lookup c key | None -> None
    in
    (match (cache, cached) with
    | Some _, Some d ->
      Obs.incr obs "policy.cache_hits";
      Obs.event obs "policy_cache_hit" ~fields:[ func_field t idx ];
      audit_cache_hit t idx ctx d;
      record_verdict obs d
    | Some _, None -> Obs.incr obs "policy.cache_misses"
    | None, _ -> ());
    match cached with
    | Some d when not (compilable d) ->
      apply t idx
        (A_install { decision = Some d; lir = None; traced = false });
      None
    | Some d ->
      (* a cache hit skips the snapshot trace, the Δ extraction and the
         DB comparison; the audit trail got a [Cache_hit] record instead
         of the analyzer's [Fresh] one *)
      let passes = match d with Disable_passes ps -> ps | _ -> [] in
      let fields =
        ("cached_verdict", Jsonx.Bool true)
        :: (if passes = [] then [] else [ disabled_field passes ])
      in
      Some
        (job (fun () ->
             installed ~decision:d ~traced:false
               (fst (optimize ~fields ~traced:false passes))))
    | None ->
      let g0 = current_gen t in
      Some
        (job (fun () ->
             (* optimize → analyse → lower once: the verdict is reached on
                the traced MIR, before anything is lowered *)
             let g, trace =
               optimize ~fields:[ ("traced", Jsonx.Bool true) ] ~traced:true []
             in
             let d = analyze ~ctx ~func_index:idx ~name ~trace in
             (match cache with
             | Some c -> Policy_cache.store ~if_generation:g0 c key d
             | None -> ());
             record_verdict obs d;
             match d with
             | Allow -> installed ~decision:d ~traced:true g
             | Disable_passes passes when compilable d ->
               installed ~decision:d ~traced:true
                 (fst (optimize ~fields:[ disabled_field passes ] ~traced:false passes))
             | Disable_passes _ | Forbid_jit ->
               A_install { decision = Some d; lir = None; traced = true })))

let baseline_compile t idx =
  stalled t @@ fun () ->
  ensure_sentinel t;
  let func = t.vm.Vm.program.Op.funcs.(idx) in
  Log.debug (fun m -> m "baseline-compiling %s" func.Op.name);
  t.stats.baseline_compiles <- t.stats.baseline_compiles + 1;
  let lir =
    Obs.span t.config.obs ~fields:[ func_field t idx ] "compile_baseline" (fun () ->
        (* the baseline tier does not speculate: like Baseline's inline
           caches it handles every type dynamically, so it can never bail
           out. Only Ion consumes type feedback. *)
        let feedback_row =
          Array.init
            (Array.length t.vm.Vm.feedback.(idx))
            (fun _ -> Feedback.fresh_site ())
        in
        let g = Builder.build func ~feedback_row in
        (* only the mandatory structural passes, no optimization *)
        let ctx = Jitbull_passes.Pass.make_ctx t.config.vulns in
        let split = Jitbull_passes.Split_critical_edges.pass in
        split.Jitbull_passes.Pass.run ctx g;
        Jitbull_mir.Mir.renumber g;
        let lir, removed = lower_mir g in
        t.stats.peephole_removed <- t.stats.peephole_removed + removed;
        lir)
  in
  install t idx lir;
  t.tiers.(idx) <- Baseline;
  tier_up t idx "baseline"

(* ---- background (off-main-thread) Ion compilation ---- *)

(* Helper-domain side: push a finished compile into the mailbox and raise
   the flag the safepoint polls. *)
let publish t idx result =
  Mutex.lock t.results_mu;
  Queue.push (idx, Clock.now (), result) t.results;
  Mutex.unlock t.results_mu;
  Atomic.set t.results_ready true

let set_queue_depth t pool =
  Obs.set_gauge t.config.obs "compile.queue_depth"
    (float_of_int (Compile_queue.pending pool))

(* Main-thread side: install one finished background compile. A result is
   stale — counted and dropped — when the function was blacklisted
   mid-compile or the DNA DB generation moved since enqueue (the verdict
   may no longer hold; the next invocation re-enqueues against the new
   generation). *)
let apply_async t idx (info : inflight) ~published result =
  let obs = t.config.obs in
  let now = Clock.now () in
  (* enqueue → install (the whole background round trip) and
     publish → install (how long a finished compile waited for the main
     thread to reach a safepoint) *)
  Obs.observe obs ~bounds:Jitbull_obs.Metrics.queue_latency_bounds
    "compile.queued_seconds"
    (Float.max 0.0 (now -. info.enq_time));
  Obs.observe obs ~bounds:Jitbull_obs.Metrics.queue_latency_bounds
    "compile.install_latency_seconds"
    (Float.max 0.0 (now -. published));
  let stale why =
    t.stats.stale_results <- t.stats.stale_results + 1;
    Obs.incr obs "engine.stale_results";
    Obs.event obs "stale_result" ?parent:info.anchor
      ~fields:[ func_field t idx; ("why", Jsonx.String why) ]
  in
  if t.tiers.(idx) = Blacklisted then stale "blacklisted"
  else if info.enq_gen <> current_gen t then stale "generation_moved"
  else begin
    apply t idx result;
    (* the function ran baseline code until now: Ion means installed *)
    if t.tiers.(idx) = Ion then begin
      t.stats.async_installs <- t.stats.async_installs + 1;
      Obs.incr obs "engine.async_installs";
      Obs.event obs "async_install" ?parent:info.anchor ~fields:[ func_field t idx ]
    end
  end

(* The safepoint: called at every function entry (and from [drain]).
   Clears the flag before draining so a publish racing the drain leaves
   the flag set for the next poll. *)
let poll t =
  if Atomic.get t.results_ready then begin
    Atomic.set t.results_ready false;
    Mutex.lock t.results_mu;
    let batch = ref [] in
    while not (Queue.is_empty t.results) do
      batch := Queue.pop t.results :: !batch
    done;
    Mutex.unlock t.results_mu;
    List.iter
      (fun (idx, published, result) ->
        match Hashtbl.find_opt t.async_inflight idx with
        | Some info ->
          Hashtbl.remove t.async_inflight idx;
          apply_async t idx info ~published result
        | None ->
          (* the request was cancelled after the worker claimed it *)
          t.stats.stale_results <- t.stats.stale_results + 1;
          Obs.incr t.config.obs "engine.stale_results")
      (List.rev !batch);
    match t.config.compile_pool with
    | Some pool -> set_queue_depth t pool
    | None -> ()
  end

(* Tier-up to Ion. Without a pool the job runs inline. With one, the
   function first stops interpreting (so its feedback row is frozen — the
   baseline tier neither speculates nor collects feedback) and the job is
   enqueued; the function keeps running baseline code until the result is
   installed at a safepoint, and one with a compile in flight is left
   alone. A full queue runs the job inline rather than drop the tier-up. *)
let request_ion t idx =
  match t.config.compile_pool with
  | None ->
    stalled t (fun () -> Option.iter (fun job -> apply t idx (job ())) (prepare t idx))
  | Some pool when not (Hashtbl.mem t.async_inflight idx) -> (
    if t.tiers.(idx) = Interpreted then baseline_compile t idx;
    let obs = t.config.obs in
    let name = t.vm.Vm.program.Op.funcs.(idx).Op.name in
    (* The cross-domain trace edge: an anchored point event stands for
       this tier-up request on the main thread; the helper-domain
       queue-wait and compile spans, and the eventual install/stale event
       at the safepoint, all carry its id as their parent. *)
    let anchor = Obs.alloc_id obs in
    let enq_rel = Obs.now obs in
    Obs.event obs ?id:anchor ~fields:[ func_field t idx ] "tier_up_request";
    match prepare t idx with
    | None -> ()
    | Some job -> (
      (* measure the time spent waiting in the queue (a synthesized
         [queue_wait] span whose start was stamped here), then run the job
         under a [compile_task] span so every span it opens parents back
         to the anchor *)
      let task () =
        let wait = Float.max 0.0 (Obs.now obs -. enq_rel) in
        Obs.observe obs ~bounds:Jitbull_obs.Metrics.queue_latency_bounds
          "compile.queue_wait_seconds" wait;
        Obs.record_span obs ?parent:anchor ~ts:enq_rel ~dur:wait
          ~fields:[ ("func", Jsonx.String name) ]
          "queue_wait";
        Obs.span obs ?parent:anchor
          ~fields:[ ("func", Jsonx.String name) ]
          "compile_task"
          (fun () -> publish t idx (job ()))
      in
      match Compile_queue.try_submit pool task with
      | Some cq_job ->
        Hashtbl.replace t.async_inflight idx
          { job = cq_job; enq_gen = current_gen t; enq_time = Clock.now (); anchor };
        Obs.incr obs "compile.enqueued";
        set_queue_depth t pool
      | None ->
        Obs.incr obs "compile.queue_full";
        stalled t (fun () -> apply t idx (job ()))))
  | Some _ -> ()

let drain t =
  match t.config.compile_pool with
  | None -> ()
  | Some pool ->
    if Hashtbl.length t.async_inflight > 0 then
      stalled t (fun () ->
          while Hashtbl.length t.async_inflight > 0 do
            Compile_queue.wait_idle pool;
            poll t
          done)

let on_invoke t (_vm : Vm.t) idx count =
  if t.config.jit_enabled then begin
    (* safepoint: install any background compile that finished *)
    poll t;
    match t.tiers.(idx) with
    | Blacklisted | Ion -> ()
    | Interpreted ->
      if count >= t.config.ion_threshold then request_ion t idx
      else if count >= t.config.baseline_threshold then baseline_compile t idx
    | Baseline -> if count >= t.config.ion_threshold then request_ion t idx
  end

let create ?realm config (program : Op.program) =
  let vm = Vm.create ?realm program in
  let n = Array.length program.Op.funcs in
  let t =
    {
      vm;
      config;
      stats =
        {
          nr_jit = 0;
          nr_disjit = 0;
          nr_nojit = 0;
          baseline_compiles = 0;
          ion_compiles = 0;
          bailouts = 0;
          deopts = 0;
          peephole_removed = 0;
          async_installs = 0;
          stale_results = 0;
          main_stall_seconds = 0.0;
          native_installs = 0;
        };
      tiers = Array.make n Interpreted;
      bailout_counts = Array.make n 0;
      reassigned_globals = compute_reassigned program;
      sentinel_installed = false;
      results = Queue.create ();
      results_mu = Mutex.create ();
      results_ready = Atomic.make false;
      async_inflight = Hashtbl.create 8;
      native_codes = Array.make n None;
      native_fallback =
        (if not config.native then Some "config"
         else if not (Native.available ()) then Some "arch"
         else if not (Native.enabled ()) then Some "env"
         else None);
    }
  in
  (match config.obs with
  | Some o -> Vm.install_obs vm o
  | None -> ());
  vm.Vm.on_invoke <- Some (fun vm idx count -> on_invoke t vm idx count);
  t

let run t =
  let out = Vm.run t.vm in
  drain t;
  out

let run_source ?realm config source =
  let program = Parser.parse source in
  let bc = Compiler.compile program in
  let t = create ?realm config bc in
  let out = run t in
  (out, t)
