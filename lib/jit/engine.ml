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

   Engines on several domains may share one configuration, and with it
   the cache, so every operation runs under the cache's mutex. *)
module Policy_cache = struct
  type t = {
    table : (int, decision) Hashtbl.t;
    generation : unit -> int;
    mu : Mutex.t;
    mutable gen_seen : int;
    mutable hits : int;
    mutable misses : int;
    mutable invalidations : int;
  }

  (* past this many verdicts the table is cleared rather than grown *)
  let max_entries = 4096

  let create ?(generation = fun () -> 0) () =
    {
      table = Hashtbl.create 64;
      generation;
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
     store time — without the check, a compile racing a [Db.add] on
     another domain (a subscribed client applying a push) could cache an
     old-DB verdict under the new generation and every later compile of
     that function would reuse it. The comparison runs
     under the mutex, so it cannot itself race [revalidate]. *)
  let store ?if_generation t key decision =
    locked t (fun () ->
        revalidate t;
        match if_generation with
        | Some g when g <> t.gen_seen -> ()
        | _ ->
          if Hashtbl.length t.table >= max_entries then Hashtbl.reset t.table;
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
  mutable main_stall_seconds : float;
  mutable native_installs : int;  (* Ion installs backed by machine code *)
}

type tier =
  | Interpreted
  | Baseline
  | Ion
  | Blacklisted

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

(* DB generation as seen through the policy cache; 0 without a cache. *)
let current_gen t =
  match t.config.policy_cache with
  | Some c -> Policy_cache.current_generation c
  | None -> 0

(* Main-thread time spent blocked on compilation: every baseline and
   every Ion compile. *)
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

(* Lowering, register allocation and peephole, shared by both tiers;
   returns the peephole's removal count with the code. *)
let lower_mir g =
  let lir = Lower.lower g in
  Regalloc.allocate lir;
  let removed = Jitbull_lir.Peephole.run lir in
  (lir, removed)

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
   happens here — strictly after the go/no-go verdict admitted the
   compile — so a Forbid never maps a code page. *)
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
   inside — run at the tier-up site: [compile_ion] reads the compile
   inputs (the feedback row and the inline callees, collected once),
   derives the policy key and consults the cache, optimizes, analyses and
   lowers only the MIR the verdict admits; [settle] accounts for the
   compile and installs or blacklists. *)

let hash_mix h x = (h * 0x01000193) lxor x [@@inline]

let func_code_hash (f : Op.func) =
  Array.fold_left (fun h op -> hash_mix h (Hashtbl.hash op)) 0x811C9DC5 f.Op.code

let feedback_hash row =
  Array.fold_left (fun h site -> hash_mix h (Hashtbl.hash site)) 17 row

(* The callees the inliner may ask for: every name loaded by the function
   or, transitively, by a callee (the inliner re-scans inlined bodies)
   that is statically bound to another function and never reassigned.
   Each appears once, in first-load order, with its feedback row. *)
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
            scan ((name, cf, t.vm.Vm.feedback.(cidx)) :: acc) cf
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
  Obs.incr t.config.obs "engine.blacklisted";
  Obs.event t.config.obs "blacklist"
    ~fields:[ func_field t idx; ("reason", Jsonx.String reason) ]

(* Go/no-go verdict kind counters: one increment per decision reached
   (fresh or cached) — a cheap engine-event signal the fuzzer's coverage
   map consumes alongside bailout/blacklist events. *)
let record_verdict obs = function
  | Allow -> Obs.incr obs "engine.verdict.allow"
  | Disable_passes _ -> Obs.incr obs "engine.verdict.disable"
  | Forbid_jit -> Obs.incr obs "engine.verdict.forbid"

(* A verdict the function can still be Ion-compiled under. *)
let compilable = function
  | Allow -> true
  | Disable_passes ps -> List.for_all Pipeline.can_disable ps
  | Forbid_jit -> false

(* Account for one finished Ion compile and act on its verdict
   ([decision] is [None] without an analyzer). [lir] is the code to
   install and its peephole removals, [None] when the verdict forbids
   JIT; [traced] says a snapshot-traced compile ran (a cache miss). *)
let settle t idx ~traced decision lir =
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
  | (None | Some Allow), None -> assert false

let compile_ion t idx =
  stalled t @@ fun () ->
  ensure_sentinel t;
  let config = t.config in
  let obs = config.obs in
  let func = t.vm.Vm.program.Op.funcs.(idx) in
  let name = func.Op.name in
  Log.debug (fun m ->
      m "ion-compiling %s (invocations reached %d)" name config.ion_threshold);
  let feedback_row = t.vm.Vm.feedback.(idx) in
  let callees = inline_callees t idx in
  let resolver callee =
    List.find_map
      (fun (n, cf, row) ->
        if String.equal n callee then Some (Builder.build cf ~feedback_row:row)
        else None)
      callees
  in
  (* MIR build and pipeline, collecting the per-pass snapshot trace the
     analyzer consumes when [traced] ([[]] otherwise: the paper's
     zero-overhead empty-DB path) *)
  let optimize ?(fields = []) ~traced disabled =
    Obs.span obs ~fields:(("func", Jsonx.String name) :: fields) "compile_ion"
      (fun () ->
        let g = Builder.build func ~feedback_row in
        let verify = config.verify_passes in
        if traced then
          (g, Pipeline.run config.vulns ?obs ~inline_resolver:resolver ~disabled ~verify g)
        else begin
          Pipeline.run_quiet config.vulns ?obs ~inline_resolver:resolver ~disabled ~verify g;
          (g, [])
        end)
  in
  let disabled_field passes =
    ("disabled", Jsonx.List (List.map (fun p -> Jsonx.String p) passes))
  in
  (* the one lowering of the MIR this tier-up installs *)
  let lowered g =
    Some
      (Obs.span obs ~fields:[ ("func", Jsonx.String name) ] "lower_ion" (fun () ->
           lower_mir g))
  in
  match config.analyzer with
  | None -> settle t idx ~traced:false None (lowered (fst (optimize ~traced:false [])))
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
    | Some d when not (compilable d) -> settle t idx ~traced:false (Some d) None
    | Some d ->
      (* a cache hit skips the snapshot trace, the Δ extraction and the
         DB comparison; the audit trail got a [Cache_hit] record instead
         of the analyzer's [Fresh] one *)
      let passes = match d with Disable_passes ps -> ps | _ -> [] in
      let fields =
        ("cached_verdict", Jsonx.Bool true)
        :: (if passes = [] then [] else [ disabled_field passes ])
      in
      settle t idx ~traced:false (Some d)
        (lowered (fst (optimize ~fields ~traced:false passes)))
    | None ->
      let g0 = current_gen t in
      (* optimize → analyse → lower once: the verdict is reached on the
         traced MIR, before anything is lowered *)
      let g, trace = optimize ~fields:[ ("traced", Jsonx.Bool true) ] ~traced:true [] in
      let d = analyze ~ctx ~func_index:idx ~name ~trace in
      (match cache with
      | Some c -> Policy_cache.store ~if_generation:g0 c key d
      | None -> ());
      record_verdict obs d;
      let lir =
        match d with
        | Allow -> lowered g
        | Disable_passes passes when compilable d ->
          lowered (fst (optimize ~fields:[ disabled_field passes ] ~traced:false passes))
        | Disable_passes _ | Forbid_jit -> None
      in
      settle t idx ~traced:true (Some d) lir)

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

let on_invoke t (_vm : Vm.t) idx count =
  if t.config.jit_enabled then
    match t.tiers.(idx) with
    | Blacklisted | Ion -> ()
    | Interpreted ->
      if count >= t.config.ion_threshold then compile_ion t idx
      else if count >= t.config.baseline_threshold then baseline_compile t idx
    | Baseline -> if count >= t.config.ion_threshold then compile_ion t idx

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
          main_stall_seconds = 0.0;
          native_installs = 0;
        };
      tiers = Array.make n Interpreted;
      bailout_counts = Array.make n 0;
      reassigned_globals = compute_reassigned program;
      sentinel_installed = false;
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

let run t = Vm.run t.vm

let run_source ?realm config source =
  let program = Parser.parse source in
  let bc = Compiler.compile program in
  let t = create ?realm config bc in
  let out = run t in
  (out, t)
