(* The performance layer: string interner, inverted DB index and the
   policy-decision cache.

   The load-bearing property here is decision equivalence — the indexed
   [Db.matching] must agree with the naive comparator fold on every
   database and every parameter setting, including the thr <= 0 corner
   where key-disjoint sides "match" and the index falls back to the
   scan. *)

open Helpers
module Intern = Jitbull_util.Intern
module Db = Jitbull_core.Db
module Dna = Jitbull_core.Dna
module Delta = Jitbull_core.Delta
module Comparator = Jitbull_core.Comparator
module Jitbull = Jitbull_core.Jitbull
module V = Jitbull_vdc.Demonstrators
module Generator = Jitbull_fuzz.Generator

(* ---- interner ---- *)

let test_intern_stability () =
  let a = Intern.intern "test_perf:alpha" in
  let b = Intern.intern "test_perf:beta" in
  check_bool "same string, same id" true (Intern.intern "test_perf:alpha" = a);
  check_bool "distinct strings, distinct ids" true (a <> b);
  check_string "to_string round-trips" "test_perf:alpha" (Intern.to_string a);
  let before = Intern.size () in
  ignore (Intern.intern "test_perf:alpha");
  check_int "re-interning allocates nothing" before (Intern.size ())

let test_intern_composites () =
  let a = Intern.intern "tp_op_a" and b = Intern.intern "tp_op_b" in
  let c = Intern.intern "tp_op_c" in
  check_bool "pair id is canonical" true (Intern.pair a b = Intern.intern "tp_op_a->tp_op_b");
  check_string "pair materializes the arrow string" "tp_op_a->tp_op_b"
    (Intern.to_string (Intern.pair a b));
  check_bool "triple id is canonical" true
    (Intern.triple a b c = Intern.intern "tp_op_a->tp_op_b->tp_op_c");
  check_bool "rooted id is canonical" true (Intern.rooted a = Intern.intern "^tp_op_a");
  check_bool "pair is order-sensitive" true (Intern.pair a b <> Intern.pair b a);
  (* composite hit path: second call must not allocate a new id *)
  let before = Intern.size () in
  ignore (Intern.triple a b c);
  check_int "composite re-use allocates nothing" before (Intern.size ())

(* ---- indexed == naive decision equivalence ---- *)

let side_gen =
  let open QCheck.Gen in
  map
    (fun entries ->
      Delta.side_of_list
        (List.map (fun (k, c) -> ("k" ^ string_of_int k, 1 + (c mod 5))) entries))
    (list_size (int_range 0 8) (pair (int_range 0 10) small_nat))

let delta_gen =
  QCheck.Gen.map2 (fun r a -> { Delta.removed = r; added = a }) side_gen side_gen

(* DNAs over a fixed pass pool, each pass present with probability 1/2 —
   mixes matching-pass, missing-pass and empty-delta shapes *)
let dna_gen =
  let open QCheck.Gen in
  map
    (fun choices -> { Dna.func_name = "f"; deltas = List.filter_map Fun.id choices })
    (flatten_l
       (List.map
          (fun p ->
            bool >>= fun keep ->
            if keep then map (fun d -> Some (p, d)) delta_gen else return None)
          [ "gvn"; "licm"; "dce"; "inline" ]))

let db_gen =
  let open QCheck.Gen in
  list_size (int_range 0 6)
    (map2
       (fun i dna -> { Db.cve = "CVE-" ^ string_of_int (i mod 3); dna })
       (int_range 0 9) dna_gen)

(* thr = 0 exercises the naive-fallback path: a non-positive threshold
   matches key-disjoint sides, which no overlap index can see *)
let params_grid =
  List.concat_map
    (fun thr -> List.map (fun ratio -> { Comparator.thr; ratio }) [ 0.25; 0.5; 0.75 ])
    [ 0; 1; 2; 3 ]

let params_gen = QCheck.Gen.oneofl params_grid

let naive_matching ~params db dna =
  List.filter_map
    (fun (e : Db.entry) ->
      match Comparator.matching_passes ~params dna e.Db.dna with
      | [] -> None
      | passes -> Some (e.Db.cve, passes))
    (Db.entries db)

let build_db entries =
  let db = Db.create () in
  List.iter (Db.add db) entries;
  db

let qcheck_indexed_equals_naive =
  QCheck.Test.make ~count:(qcheck_count 300) ~name:"indexed Db.matching == naive comparator fold"
    QCheck.(make Gen.(triple db_gen dna_gen params_gen))
    (fun (entries, dna, params) ->
      let db = build_db entries in
      Db.matching ~params db dna = naive_matching ~params db dna)

let qcheck_indexed_equals_naive_after_removal =
  QCheck.Test.make ~count:(qcheck_count 150) ~name:"equivalence survives remove_cve's index rebuild"
    QCheck.(make Gen.(triple db_gen dna_gen params_gen))
    (fun (entries, dna, params) ->
      let db = build_db entries in
      Db.remove_cve db "CVE-1";
      Db.matching ~params db dna = naive_matching ~params db dna)

(* Real DNAs as one more input: the 8-VDC DB queried with its own
   entries and with the DNAs of the benign programs of seeds 0-4 (their
   12 rounds raised to 40, past the Ion threshold, so they compile)
   harvested on a patched engine, over the same parameter grid plus the
   default. *)
let test_indexed_equals_naive_real_dnas () =
  let db = Db.create () in
  List.iter
    (fun (d : V.t) -> ignore (Db.harvest db ~cve:d.V.name ~vulns:(VC.make [ d.V.cve ]) d.V.source))
    V.all;
  check_int "eight CVEs installed" 8 (List.length (Db.cves db));
  let benign = Db.create () in
  List.iter
    (fun seed ->
      ignore
        (Db.harvest benign ~cve:(Printf.sprintf "benign-%d" seed) ~vulns:VC.none
           (Generator.benign_params
              { (Generator.default_params ~seed) with Generator.p_rounds = 40 })))
    [ 0; 1; 2; 3; 4 ];
  check_bool "benign DNAs harvested" true (Db.size benign > 0);
  let queries = List.map (fun (e : Db.entry) -> e.Db.dna) (Db.entries db @ Db.entries benign) in
  let matched = ref 0 in
  List.iter
    (fun params ->
      List.iter
        (fun dna ->
          let indexed = Db.matching ~params db dna in
          if indexed <> [] then incr matched;
          check_bool "indexed == naive on a real DNA" true
            (indexed = naive_matching ~params db dna))
        queries)
    (Comparator.default_params :: params_grid);
  check_bool "some real queries match" true (!matched > 0)

(* ---- Db bookkeeping ---- *)

let test_db_generation_and_order () =
  let entry cve k =
    {
      Db.cve;
      dna =
        {
          Dna.func_name = "f";
          deltas =
            [ ("gvn", { Delta.removed = Delta.side_of_list [ (k, 2) ]; added = Delta.side_of_list [] }) ];
        };
    }
  in
  let db = Db.create () in
  let g0 = Db.generation db in
  Db.add db (entry "CVE-A" "a->b");
  check_bool "add bumps generation" true (Db.generation db > g0);
  Db.add db (entry "CVE-B" "b->c");
  Db.add db (entry "CVE-A" "c->d");
  check_int "size counts every entry" 3 (Db.size db);
  check_bool "entries keep insertion order" true
    (List.map (fun (e : Db.entry) -> e.Db.cve) (Db.entries db) = [ "CVE-A"; "CVE-B"; "CVE-A" ]);
  check_bool "cves dedup to first occurrence" true (Db.cves db = [ "CVE-A"; "CVE-B" ]);
  let g1 = Db.generation db in
  Db.remove_cve db "CVE-A";
  check_bool "remove_cve bumps generation" true (Db.generation db > g1);
  check_bool "survivors keep their order" true
    (List.map (fun (e : Db.entry) -> e.Db.cve) (Db.entries db) = [ "CVE-B" ])

(* ---- policy-decision cache ---- *)

let test_policy_cache_unit () =
  let gen = ref 0 in
  let pc = Engine.Policy_cache.create ~generation:(fun () -> !gen) () in
  check_bool "cold lookup misses" true (Engine.Policy_cache.lookup pc 42 = None);
  Engine.Policy_cache.store pc 42 (Engine.Disable_passes [ "gvn" ]);
  check_bool "stored verdict comes back" true
    (Engine.Policy_cache.lookup pc 42 = Some (Engine.Disable_passes [ "gvn" ]));
  check_int "one hit" 1 (Engine.Policy_cache.hits pc);
  check_int "one miss" 1 (Engine.Policy_cache.misses pc);
  incr gen;
  check_bool "generation change drops the verdict" true
    (Engine.Policy_cache.lookup pc 42 = None);
  check_int "flush is counted" 1 (Engine.Policy_cache.invalidations pc);
  check_int "table is empty after the flush" 0 (Engine.Policy_cache.length pc)

let hot_src =
  "function hot(a) { var t = 0; for (var i = 0; i < 10; i++) { t = t + a * i; } return t; } \
   var s = 0; for (var k = 0; k < 12; k++) { s = s + hot(k); } print(s);"

let synthetic_entry name =
  {
    Db.cve = name;
    dna =
      {
        Dna.func_name = "vdc";
        deltas =
          [
            ( "gvn",
              {
                Delta.removed = Delta.side_of_list [ ("perf_synth_x->perf_synth_y", 3) ];
                added = Delta.side_of_list [];
              } );
          ];
      };
  }

let test_engine_cache_integration () =
  (* one config shared by successive engines: the second run's Ion compile
     of the same function must hit the cache, and a DB mutation must
     invalidate it *)
  let db = Db.create () in
  Db.add db (synthetic_entry "CVE-SYN-1");
  let cfg = Jitbull.config ~vulns:VC.none db in
  let cfg = { cfg with Engine.baseline_threshold = 2; ion_threshold = 4 } in
  let pc = Option.get cfg.Engine.policy_cache in
  let out1 = fst (Engine.run_source cfg hot_src) in
  let misses1 = Engine.Policy_cache.misses pc in
  check_bool "first run only misses" true
    (misses1 > 0 && Engine.Policy_cache.hits pc = 0);
  let out2 = fst (Engine.run_source cfg hot_src) in
  check_string "cached verdicts preserve output" out1 out2;
  check_bool "second run hits" true (Engine.Policy_cache.hits pc > 0);
  check_int "second run adds no misses" misses1 (Engine.Policy_cache.misses pc);
  Db.add db (synthetic_entry "CVE-SYN-2");
  let out3 = fst (Engine.run_source cfg hot_src) in
  check_string "post-invalidation output unchanged" out1 out3;
  check_bool "DB mutation invalidates the cache" true
    (Engine.Policy_cache.invalidations pc > 0);
  check_bool "third run re-analyzes" true (Engine.Policy_cache.misses pc > misses1)

(* ---- off-main-thread compilation ---- *)

module CQ = Jitbull_jit.Compile_queue
module Op = Jitbull_bytecode.Op
module Value = Jitbull_runtime.Value
module Clock = Jitbull_obs.Clock

(* Helper-domain count for the async tests; CI runs the suite at 2 and
   again at a second value via this variable. 0 is clamped to 1: these
   tests exist to exercise the pool, and jobs=0 semantics (no pool at
   all) are what every other test in the suite runs under. *)
let test_jobs =
  match Sys.getenv_opt "JITBULL_TEST_JOBS" with
  | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> 2)
  | None -> 2

let with_pool ?capacity f =
  let pool = CQ.create ?capacity ~jobs:test_jobs () in
  Fun.protect ~finally:(fun () -> CQ.shutdown pool) (fun () -> f pool)

let test_queue_basic () =
  with_pool (fun pool ->
      check_bool "spawned some workers" true (CQ.jobs pool >= 1);
      let hits = Atomic.make 0 in
      let jobs =
        List.init 20 (fun _ -> CQ.submit pool (fun () -> Atomic.incr hits))
      in
      CQ.wait_idle pool;
      check_int "every job ran" 20 (Atomic.get hits);
      check_bool "all jobs done" true
        (List.for_all (fun j -> CQ.job_state j = CQ.Done) jobs);
      let submitted, completed, cancelled = CQ.stats pool in
      check_int "submitted" 20 submitted;
      check_int "completed" 20 completed;
      check_int "cancelled" 0 cancelled;
      check_int "nothing pending" 0 (CQ.pending pool);
      check_int "nothing in flight" 0 (CQ.in_flight pool));
  (* a raising job must not kill its worker domain *)
  with_pool (fun pool ->
      ignore (CQ.submit pool (fun () -> failwith "worker must survive this"));
      CQ.wait_idle pool;
      let ran = Atomic.make false in
      ignore (CQ.submit pool (fun () -> Atomic.set ran true));
      CQ.wait_idle pool;
      check_bool "worker survives a raising job" true (Atomic.get ran))

(* Block every worker on a latch, so queued jobs stay queued and the
   bounded queue's backpressure and cancellation are observable. *)
let test_queue_backpressure_and_cancel () =
  let pool = CQ.create ~capacity:2 ~jobs:test_jobs () in
  Fun.protect
    ~finally:(fun () -> CQ.shutdown pool)
    (fun () ->
      let n = CQ.jobs pool in
      let gate = Atomic.make false in
      let blocker () = while not (Atomic.get gate) do Domain.cpu_relax () done in
      for _ = 1 to n do ignore (CQ.submit pool blocker) done;
      while CQ.in_flight pool < n do Domain.cpu_relax () done;
      (* workers busy: the next [capacity] jobs queue up, then the queue
         refuses *)
      let ran = Atomic.make 0 in
      let q1 = CQ.submit pool (fun () -> Atomic.incr ran) in
      let q2 = CQ.submit pool (fun () -> Atomic.incr ran) in
      check_int "both queued" 2 (CQ.pending pool);
      check_bool "queue full refuses" true
        (CQ.try_submit pool (fun () -> Atomic.incr ran) = None);
      check_bool "pending job cancels" true (CQ.cancel pool q1);
      check_bool "cancelled state sticks" true (CQ.job_state q1 = CQ.Cancelled);
      check_bool "second cancel is a no-op" false (CQ.cancel pool q1);
      check_int "cancelled job leaves the runnable count" 1 (CQ.pending pool);
      Atomic.set gate true;
      CQ.wait_idle pool;
      check_int "cancelled closure never ran" 1 (Atomic.get ran);
      check_bool "survivor completed" true (CQ.job_state q2 = CQ.Done);
      let _, _, cancelled = CQ.stats pool in
      check_int "cancellation counted" 1 cancelled)

let test_queue_shutdown_drains () =
  let pool = CQ.create ~jobs:test_jobs () in
  let hits = Atomic.make 0 in
  for _ = 1 to 30 do ignore (CQ.submit pool (fun () -> Atomic.incr hits)) done;
  CQ.shutdown pool;
  check_int "shutdown drains queued jobs" 30 (Atomic.get hits);
  check_bool "submit after shutdown refuses" true
    (CQ.try_submit pool (fun () -> ()) = None);
  CQ.shutdown pool (* idempotent *)

(* -- async engine == sync engine -- *)

let func_idx eng name =
  let funcs = (Engine.vm eng).Vm.program.Op.funcs in
  let rec go i =
    if i >= Array.length funcs then Alcotest.fail ("no function " ^ name)
    else if String.equal funcs.(i).Op.name name then i
    else go (i + 1)
  in
  go 0

let num n = Value.Number (float_of_int n)
let call eng idx args = Value.to_display (Vm.call_function (Engine.vm eng) idx args)

let fresh_config ?compile_pool ~max_bailouts tag =
  let db = Db.create () in
  Db.add db (synthetic_entry ("CVE-ASYNC-" ^ tag));
  let cfg = Jitbull.config ?compile_pool ~vulns:VC.none db in
  (db, { cfg with Engine.baseline_threshold = 2; ion_threshold = 4; max_bailouts })

let async_src =
  "function add(a, b) { return a + b; } \
   function tri(x) { var t = 0; for (var i = 0; i < x; i++) { t = t + i; } return t; } \
   function at(i) { var a = [7, 8, 9]; return a[i]; }"

let make_engine config = Engine.create config (Compiler.compile (Parser.parse async_src))

(* One function per verdict kind, decided by a stub analyzer: a plain
   install, a recompile without a disableable pass, a blacklist for a
   mandatory pass, and a forbid. Each mode runs two engines over one
   policy cache, so the second pass applies every kind from the cache
   (the forbid and mandatory ones without compiling at all). *)
let verdict_src =
  "function allow(x) { return x + 1; } \
   function nogvn(x) { var t = 0; for (var i = 0; i < x; i++) { t = t + i; } return t; } \
   function norenumber(x) { return x * 2; } \
   function forbid(x) { return x - 1; }"

let verdict_names = [ "allow"; "nogvn"; "norenumber"; "forbid" ]

let stub_analyzer ~ctx:_ ~func_index:_ ~name ~trace:_ =
  match name with
  | "nogvn" -> Engine.Disable_passes [ "gvn" ]
  | "norenumber" -> Engine.Disable_passes [ "renumber" ]
  | "forbid" -> Engine.Forbid_jit
  | _ -> Engine.Allow

let every_verdict_kind_agrees pool =
  let run_mode compile_pool =
    let obs = Jitbull_obs.Obs.create () in
    let config =
      {
        Engine.default_config with
        Engine.baseline_threshold = 2;
        ion_threshold = 4;
        analyzer = Some stub_analyzer;
        policy_cache = Some (Engine.Policy_cache.create ());
        compile_pool;
        obs = Some obs;
      }
    in
    List.init 2 (fun _ ->
        let eng = Engine.create config (Compiler.compile (Parser.parse verdict_src)) in
        let out =
          List.concat_map
            (fun i ->
              let rs =
                List.map (fun f -> call eng (func_idx eng f) [ num i ]) verdict_names
              in
              Engine.drain eng;
              rs)
            (List.init 10 Fun.id)
        in
        let s = Engine.stats eng in
        ( out,
          List.map (fun f -> Engine.tier_of eng (func_idx eng f)) verdict_names,
          [
            s.Engine.nr_jit; s.Engine.nr_disjit; s.Engine.nr_nojit;
            s.Engine.ion_compiles;
          ],
          Jitbull_obs.Audit.total (Jitbull_obs.Obs.audit obs) ))
  in
  let sync_passes = run_mode None and async_passes = run_mode (Some pool) in
  List.iteri
    (fun i ((so, st, ss, sa), (ao, at, as_, aa)) ->
      let pass = Printf.sprintf "pass %d: " (i + 1) in
      check_bool (pass ^ "every call agrees") true (List.equal String.equal so ao);
      check_bool (pass ^ "final tiers agree") true (st = at);
      Alcotest.(check (list int))
        (pass ^ "Nr_JIT/DisJIT/NoJIT/ion compiles agree") ss as_;
      check_int (pass ^ "audit totals agree") sa aa)
    (List.combine sync_passes async_passes);
  match sync_passes with
  | [ (_, tiers, stats, _); (_, tiers2, stats2, _) ] ->
    check_bool "verdicts reached the tiers" true
      (tiers = Engine.[ Ion; Ion; Blacklisted; Blacklisted ] && tiers2 = tiers);
    (* the fresh Disable recompiles; its cached replay compiles once *)
    Alcotest.(check (list int)) "fresh pass counts" [ 4; 1; 2; 5 ] stats;
    Alcotest.(check (list int)) "cached pass counts" [ 4; 1; 2; 4 ] stats2
  | _ -> assert false

(* Drive the same call sequence through a synchronous and a background
   engine, draining the pool after every call so installation points are
   deterministic; every return value, every final tier and the policy
   accounting must agree. (The only scheduling freedom left is that the
   threshold-crossing call itself runs baseline in async mode while sync
   mode already runs the fresh Ion code — invisible here because these
   calls don't bail out.) *)
let test_async_equals_sync () =
  with_pool (fun pool ->
      let _, sync_cfg = fresh_config ~max_bailouts:8 "S" in
      let _, async_cfg = fresh_config ~compile_pool:pool ~max_bailouts:8 "A" in
      let se = make_engine sync_cfg and ae = make_engine async_cfg in
      let drive eng =
        let add = func_idx eng "add" and tri = func_idx eng "tri" in
        List.concat_map
          (fun i ->
            let r1 = call eng add [ num i; num (i + 1) ] in
            let r2 = call eng tri [ num (i mod 5) ] in
            Engine.drain eng;
            [ r1; r2 ])
          (List.init 10 Fun.id)
      in
      let sync_out = drive se and async_out = drive ae in
      check_bool "every call agrees" true (List.equal String.equal sync_out async_out);
      List.iter
        (fun name ->
          check_bool ("final tier agrees for " ^ name) true
            (Engine.tier_of se (func_idx se name) = Engine.tier_of ae (func_idx ae name)))
        [ "add"; "tri"; "at" ];
      let ss = Engine.stats se and sa = Engine.stats ae in
      check_int "Nr_JIT agrees" ss.Engine.nr_jit sa.Engine.nr_jit;
      check_int "Nr_DisJIT agrees" ss.Engine.nr_disjit sa.Engine.nr_disjit;
      check_int "Nr_NoJIT agrees" ss.Engine.nr_nojit sa.Engine.nr_nojit;
      check_int "ion compiles agree" ss.Engine.ion_compiles sa.Engine.ion_compiles;
      check_bool "installs went through the safepoint" true
        (sa.Engine.async_installs >= 2);
      check_int "nothing was stale" 0 sa.Engine.stale_results;
      every_verdict_kind_agrees pool)

(* A mid-compile [Db.add] moves the DB generation: the finished result
   must be discarded (stale), the verdict computed against the old DB
   must not be cached under the new generation, and the next invocation
   re-enqueues and installs cleanly. *)
let test_async_stale_result () =
  with_pool (fun pool ->
      let db, cfg = fresh_config ~compile_pool:pool ~max_bailouts:8 "STALE" in
      let pc = Option.get cfg.Engine.policy_cache in
      let eng = make_engine cfg in
      let tri = func_idx eng "tri" in
      for i = 1 to 4 do ignore (call eng tri [ num i ]) done;
      (* the 4th call crossed ion_threshold: a compile is now in flight
         against the current generation — invalidate it *)
      Db.add db (synthetic_entry "CVE-ASYNC-STALE-2");
      Engine.drain eng;
      let s = Engine.stats eng in
      check_int "result discarded as stale" 1 s.Engine.stale_results;
      check_int "nothing installed" 0 s.Engine.async_installs;
      check_bool "function still baseline" true (Engine.tier_of eng tri = Engine.Baseline);
      check_string "semantics preserved across the discard" "10"
        (call eng tri [ num 5 ]);
      Engine.drain eng;
      check_bool "re-enqueued compile installs" true (Engine.tier_of eng tri = Engine.Ion);
      let s = Engine.stats eng in
      check_int "one install after the retry" 1 s.Engine.async_installs;
      check_bool "both compiles re-analyzed (no cache hit)" true
        (Engine.Policy_cache.hits pc = 0 && Engine.Policy_cache.misses pc >= 2))

(* Forced bailouts while compiles are in flight: out-of-bounds reads bail
   Ion code back to the interpreter until the function is blacklisted;
   values and the final tier must match the synchronous engine. *)
let test_async_bailout_blacklist () =
  with_pool (fun pool ->
      let _, sync_cfg = fresh_config ~max_bailouts:3 "BS" in
      let _, async_cfg = fresh_config ~compile_pool:pool ~max_bailouts:3 "BA" in
      let se = make_engine sync_cfg and ae = make_engine async_cfg in
      let drive eng =
        let at = func_idx eng "at" in
        List.init 16 (fun i ->
            let r = call eng at [ num (if i mod 2 = 0 then 1 else 5) ] in
            Engine.drain eng;
            r)
      in
      let sync_out = drive se and async_out = drive ae in
      check_bool "bailing calls agree" true (List.equal String.equal sync_out async_out);
      check_bool "sync run blacklists" true
        (Engine.tier_of se (func_idx se "at") = Engine.Blacklisted);
      check_bool "async run blacklists too" true
        (Engine.tier_of ae (func_idx ae "at") = Engine.Blacklisted);
      check_bool "async saw bailouts" true ((Engine.stats ae).Engine.bailouts > 0))

(* A full queue runs the compile job inline: two tier-ups of one function
   (the second a policy-cache hit) must account exactly like the
   synchronous engine — one lookup, one verdict and one audit record per
   tier-up. The single worker and the single queue slot are held by
   latch jobs for the whole run. *)
let hot_twice ?compile_pool () =
  let db = Db.create () in
  Db.add db (synthetic_entry "CVE-QUEUE-FULL");
  let obs = Jitbull_obs.Obs.create () in
  let cfg = Jitbull.config ?compile_pool ~obs ~vulns:VC.none db in
  let cfg = { cfg with Engine.baseline_threshold = 2; ion_threshold = 4 } in
  let outs = List.init 2 (fun _ -> fst (Engine.run_source cfg hot_src)) in
  let pc = Option.get cfg.Engine.policy_cache in
  let view = Jitbull_obs.Obs.view (Some obs) in
  let counter name =
    Option.value (Jitbull_obs.Metrics.find_counter view name) ~default:0
  in
  ( outs,
    counter "compile.queue_full",
    [
      ("Policy_cache.hits", Engine.Policy_cache.hits pc);
      ("Policy_cache.misses", Engine.Policy_cache.misses pc);
      ("policy.cache_hits", counter "policy.cache_hits");
      ("policy.cache_misses", counter "policy.cache_misses");
      ("engine.verdict.allow", counter "engine.verdict.allow");
      ("engine.verdict.disable", counter "engine.verdict.disable");
      ("engine.verdict.forbid", counter "engine.verdict.forbid");
      ("Audit.total", Jitbull_obs.Audit.total (Jitbull_obs.Obs.audit obs));
    ] )

let test_queue_full_runs_the_job_inline () =
  let pool = CQ.create ~capacity:1 ~jobs:1 () in
  let gate = Atomic.make false in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set gate true;
      CQ.shutdown pool)
    (fun () ->
      let latch () = while not (Atomic.get gate) do Domain.cpu_relax () done in
      ignore (CQ.submit pool latch);
      while CQ.in_flight pool < 1 do Domain.cpu_relax () done;
      ignore (CQ.submit pool latch);
      check_bool "worker and queue slot are held" true
        (CQ.try_submit pool (fun () -> ()) = None);
      let sync_outs, _, sync_counts = hot_twice () in
      let outs, queue_full, counts = hot_twice ~compile_pool:pool () in
      check_int "both tier-ups found the queue full" 2 queue_full;
      check_bool "outputs agree" true (List.equal String.equal sync_outs outs);
      List.iter2
        (fun (name, sync_v) (_, v) -> check_int (name ^ " equals sync") sync_v v)
        sync_counts counts;
      check_int "one miss then one hit" 1 (List.assoc "Policy_cache.hits" counts))

(* -- QCheck stress: random interleavings of hot calls, forced bailouts
   and DB mutations -- *)

type stress_op = Call of int * int | Db_add | Drain

let stress_op_gen =
  QCheck.Gen.(
    frequency
      [
        (10, map2 (fun f n -> Call (f, n)) (int_range 0 2) (int_range 0 6));
        (1, return Db_add);
        (2, return Drain);
      ])

let stress_gen = QCheck.Gen.list_size (QCheck.Gen.int_range 8 60) stress_op_gen

let show_stress ops =
  String.concat ";"
    (List.map
       (function
         | Call (f, n) -> Printf.sprintf "call(%d,%d)" f n
         | Db_add -> "db_add"
         | Drain -> "drain")
       ops)

let qcheck_async_stress =
  QCheck.Test.make ~count:(qcheck_count 20) ~name:"async final state equals the synchronous run"
    (QCheck.make ~print:show_stress stress_gen)
    (fun ops ->
      with_pool (fun pool ->
          let sync_dbt, sync_cfg = fresh_config ~max_bailouts:3 "QS" in
          let async_dbt, async_cfg = fresh_config ~compile_pool:pool ~max_bailouts:3 "QA" in
          let se = make_engine sync_cfg and ae = make_engine async_cfg in
          let sync_db = ref 0 and async_db = ref 0 in
          let apply eng db_src db_count op =
            match op with
            | Call (f, n) ->
              let idx = func_idx eng [| "add"; "tri"; "at" |].(f) in
              let args = if f = 0 then [ num n; num n ] else [ num n ] in
              let r = call eng idx args in
              (* drain after every call: installation points line up with
                 the synchronous engine's, leaving only the one-call lag *)
              Engine.drain eng;
              Some r
            | Db_add ->
              incr db_count;
              Db.add db_src (synthetic_entry (Printf.sprintf "CVE-STRESS-%d" !db_count));
              None
            | Drain ->
              Engine.drain eng;
              None
          in
          let sync_out = List.filter_map (apply se sync_dbt sync_db) ops in
          let async_out = List.filter_map (apply ae async_dbt async_db) ops in
          if not (List.equal String.equal sync_out async_out) then false
          else begin
            (* settle: identical extra calls until the tier lattice
               converges — the threshold-crossing call itself runs one
               tier behind in async mode, so bailout counts can trail by
               one; repeated bailing calls push both runs over
               max_bailouts *)
            let converged () =
              List.for_all
                (fun name ->
                  Engine.tier_of se (func_idx se name)
                  = Engine.tier_of ae (func_idx ae name))
                [ "add"; "tri"; "at" ]
            in
            let rounds = ref 0 in
            while (not (converged ())) && !rounds < 12 do
              incr rounds;
              List.iter
                (fun eng ->
                  ignore (call eng (func_idx eng "add") [ num 1; num 2 ]);
                  ignore (call eng (func_idx eng "tri") [ num 3 ]);
                  ignore (call eng (func_idx eng "at") [ num 5 ]);
                  Engine.drain eng)
                [ se; ae ]
            done;
            converged ()
          end))

(* -- deterministic durations via the injectable clock -- *)

let test_clock_manual_determinism () =
  let src, advance = Clock.manual ~start:100.0 () in
  Clock.with_source src (fun () ->
      let t0 = Clock.now () in
      advance 2.5;
      check_bool "manual clock advances exactly" true (Clock.now () -. t0 = 2.5));
  check_bool "with_source restores the previous source" true
    (Clock.source () != src);
  (* a frozen clock makes every engine duration exactly zero — proof that
     stall accounting reads Clock.now, not the wall clock *)
  let frozen, _ = Clock.manual () in
  Clock.with_source frozen (fun () ->
      let _, eng = Engine.run_source jit_config hot_src in
      check_bool "frozen clock, zero stall" true
        ((Engine.stats eng).Engine.main_stall_seconds = 0.0))

let test_empty_db_no_policy_cache () =
  let empty = Jitbull.config ~vulns:VC.none (Db.create ()) in
  check_bool "empty DB installs no cache" true (empty.Engine.policy_cache = None)

let suite =
  ( "perf",
    [
      Alcotest.test_case "interner id stability" `Quick test_intern_stability;
      Alcotest.test_case "interner composite ids" `Quick test_intern_composites;
      qtest qcheck_indexed_equals_naive;
      qtest qcheck_indexed_equals_naive_after_removal;
      Alcotest.test_case "indexed == naive on real DNAs" `Quick
        test_indexed_equals_naive_real_dnas;
      Alcotest.test_case "db generation and entry order" `Quick test_db_generation_and_order;
      Alcotest.test_case "policy cache lookup/store/invalidate" `Quick test_policy_cache_unit;
      Alcotest.test_case "policy cache across engine runs" `Quick test_engine_cache_integration;
      Alcotest.test_case "no policy cache on empty DB" `Quick test_empty_db_no_policy_cache;
      Alcotest.test_case "compile queue basics" `Quick test_queue_basic;
      Alcotest.test_case "compile queue backpressure + cancel" `Quick
        test_queue_backpressure_and_cancel;
      Alcotest.test_case "compile queue shutdown drains" `Quick test_queue_shutdown_drains;
      Alcotest.test_case "async engine == sync engine" `Quick test_async_equals_sync;
      Alcotest.test_case "mid-compile Db.add discards the result" `Quick
        test_async_stale_result;
      Alcotest.test_case "async bailouts blacklist like sync" `Quick
        test_async_bailout_blacklist;
      Alcotest.test_case "queue full runs the job inline" `Quick
        test_queue_full_runs_the_job_inline;
      qtest qcheck_async_stress;
      Alcotest.test_case "manual clock determinism" `Quick test_clock_manual_determinism;
    ] )
