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
module Sexpr = Jitbull_util.Sexpr
module Parser = Jitbull_frontend.Parser

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

(* ---- indexed == naive decision equivalence ---- *)

(* keys of both forms: plain strings (negative keys) and chains over a
   small opcode pool (packed keys), so sides overlap often *)
let key_gen =
  let open QCheck.Gen in
  let op = map (fun i -> "tp_op" ^ string_of_int i) (int_range 0 2) in
  frequency
    [
      (3, map (fun k -> "k" ^ string_of_int k) (int_range 0 10));
      (1, map2 (fun a b -> a ^ "->" ^ b) op op);
      (1, map2 (fun a b -> "^" ^ a ^ "->" ^ b) op op);
      (1, map3 (fun a b c -> String.concat "->" [ a; b; c ]) op op op);
    ]

let side_gen =
  let open QCheck.Gen in
  map
    (fun entries -> Delta.side_of_list (List.map (fun (k, c) -> (k, 1 + (c mod 5))) entries))
    (list_size (int_range 0 8) (pair key_gen small_nat))

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

let params_grid =
  List.concat_map
    (fun thr -> List.map (fun ratio -> { Comparator.thr; ratio }) [ 0.25; 0.5; 0.75 ])
    [ 1; 2; 3 ]

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

(* A non-positive Thr would match key-disjoint sides, which the overlap
   index cannot see: the query refuses it rather than answer wrongly. *)
let test_query_rejects_thr0 () =
  let dna = { Dna.func_name = "f"; deltas = [] } in
  let db = build_db [ { Db.cve = "CVE-0"; dna } ] in
  let params = { Comparator.thr = 0; ratio = 0.5 } in
  (match Db.matching_detailed ~params db dna with
  | _ -> Alcotest.fail "thr = 0 answered"
  | exception Invalid_argument _ -> ());
  check_bool "thr = 1 answers" true (Db.matching ~params:{ params with Comparator.thr = 1 } db dna = [])

(* The DNA DB of the 8 VDCs, each harvested on its own vulnerable engine. *)
let vdc_db () =
  let db = Db.create () in
  ignore (V.harvest db VC.all);
  db

(* A query result with its evidence forced, comparable with [=] (a
   match's common sub-chains are computed only when forced). *)
let forced (q : Db.query) =
  ( List.map
      (fun (cve, mds) ->
        ( cve,
          List.map
            (fun (md : Comparator.match_detail) ->
              ( md.Comparator.md_pass,
                md.Comparator.md_side,
                md.Comparator.md_eq_chains,
                md.Comparator.md_max_eq_chains,
                Lazy.force md.Comparator.md_common ))
            mds ))
      q.Db.q_matches,
    (q.Db.q_prefilter_candidates, q.Db.q_prefilter_hits, q.Db.q_generation, q.Db.q_size) )

(* Real DNAs as one more input: the 8-VDC DB queried with its own
   entries and with the DNAs of the benign programs of seeds 0-4 (their
   12 rounds raised to 40, past the Ion threshold, so they compile)
   harvested on a patched engine, over the same parameter grid plus the
   default. *)
let test_indexed_equals_naive_real_dnas () =
  let db = vdc_db () in
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
  check_bool "some real queries match" true (!matched > 0);
  (* the same queries from spawned domains at once: each domain's
     accumulator scratch must stay its own *)
  let expected = List.map (fun dna -> (dna, forced (Db.matching_detailed db dna))) queries in
  let agreed =
    List.init test_domains (fun _ ->
        (* a copy per domain: the domains share the DB, not their inputs *)
        let mine = List.map (fun (dna, q) -> (Dna.of_sexpr (Dna.to_sexpr dna), q)) expected in
        Domain.spawn (fun () ->
            let n = ref 0 in
            for _ = 1 to 2 do
              List.iter
                (fun (dna, q) -> if forced (Db.matching_detailed db dna) = q then incr n)
                mine
            done;
            !n))
    |> List.map Domain.join
    |> List.fold_left ( + ) 0
  in
  check_int "concurrent queries == sequential ones"
    (test_domains * 2 * List.length expected)
    agreed

(* The 8-VDC DB queried with its own DNAs and those of the benign
   programs of seeds 900-903 (41 queries): a query allocates nothing per
   posting, only its answer. With string-interned keys and a tuple-keyed
   accumulator the same queries took 4,369 minor words each; the
   packed-key index takes about 1,600, and the bound is under half the
   former. *)
let query_words_bound = 2000.

let test_query_allocation () =
  let db = vdc_db () in
  let benign = Db.create () in
  List.iter
    (fun seed ->
      ignore
        (Db.harvest benign ~cve:(Printf.sprintf "benign-%d" seed) ~vulns:VC.none
           (Generator.benign_params
              { Generator.p_seed = seed; p_funcs = 8; p_rounds = 40; p_depth = 2 })))
    [ 900; 901; 902; 903 ];
  let queries = List.map (fun (e : Db.entry) -> e.Db.dna) (Db.entries db @ Db.entries benign) in
  List.iter (fun dna -> ignore (Db.matching_detailed db dna)) queries;
  let before = Gc.minor_words () in
  List.iter (fun dna -> ignore (Db.matching_detailed db dna)) queries;
  let per_query = (Gc.minor_words () -. before) /. float_of_int (List.length queries) in
  check_bool "minor words per query within the bound" true (per_query <= query_words_bound)

(* Every function of the benign programs of seeds 900-903 (8 functions,
   40 rounds, depth 2) compiled on its VM feedback: minor words per
   baseline compile (build, split, lower, regalloc, peephole) and per Ion
   compile (build with its inline callees, the 18 passes, lower,
   regalloc, peephole). With hash tables keyed by iid, pc and vreg, a
   string GVN key, per-instruction operand lists and a closure per
   instruction in the passes' use forwarding, they took 16,155 and
   24,801 words; with arrays and allocation-free walks about 12,000 and
   19,100. Minor words repeat exactly, so the bounds carry no timing
   noise. *)
let baseline_compile_words_bound = 13_500.
let ion_compile_words_bound = 21_000.

let test_compile_allocation () =
  let compiles =
    List.concat_map
      (fun seed ->
        Array.to_list
          (compiles_of VC.none
             (Generator.benign_params
                { Generator.p_seed = seed; p_funcs = 8; p_rounds = 40; p_depth = 2 })))
      [ 900; 901; 902; 903 ]
  in
  let per_compile f =
    let w0 = Gc.minor_words () in
    List.iter (fun c -> ignore (Sys.opaque_identity (f c))) compiles;
    (Gc.minor_words () -. w0) /. float_of_int (List.length compiles)
  in
  List.iter (fun c -> ignore (c.baseline ()); ignore (c.ion [])) compiles;
  let baseline = per_compile (fun c -> c.baseline ()) in
  let ion = per_compile (fun c -> c.ion []) in
  check_bool
    (Printf.sprintf "%.0f minor words per baseline compile within the bound" baseline)
    true (baseline <= baseline_compile_words_bound);
  check_bool
    (Printf.sprintf "%.0f minor words per Ion compile within the bound" ion)
    true (ion <= ion_compile_words_bound)

(* [Parser.parse] of the benign programs of seeds 900-903 (8 functions, 40
   rounds, depth 2): the lexer allocates nothing per byte read or per
   operator. When it built a list of 47 closures per operator and boxed a
   [char option] per byte read, parsing took 126 minor words per source
   byte; the one-pass lexer takes 7.5. Minor words repeat exactly, so the
   bound carries no timing noise. *)
let parse_words_per_byte_bound = 20.

let test_parse_allocation () =
  let sources =
    List.map
      (fun seed ->
        Generator.benign_params
          { Generator.p_seed = seed; p_funcs = 8; p_rounds = 40; p_depth = 2 })
      [ 900; 901; 902; 903 ]
  in
  List.iter (fun src -> ignore (Parser.parse src)) sources;
  let bytes = List.fold_left (fun n src -> n + String.length src) 0 sources in
  let before = Gc.minor_words () in
  List.iter (fun src -> ignore (Parser.parse src)) sources;
  let per_byte = (Gc.minor_words () -. before) /. float_of_int bytes in
  check_bool
    (Printf.sprintf "%.1f minor words per source byte within the bound" per_byte)
    true
    (per_byte <= parse_words_per_byte_bound)

(* [Realm.create ()] with the default 2^18-cell heap allocates what its
   heap has written, not the heap's logical size: 407 words, among them
   a page table of 256 slots and a 64-slot handle table. The flat heap
   took 262,294, its [Array.make (1 lsl 18)] alone 262,145 major words.
   [Gc.minor_words] counts the minor heap exactly, where [Gc.counters]
   lags behind the allocations of the current minor cycle. *)
let realm_words_bound = 4096.

let test_realm_allocation () =
  let words () =
    let s = Gc.quick_stat () in
    Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words
  in
  ignore (Jitbull_runtime.Realm.create ());
  let before = words () in
  ignore (Sys.opaque_identity (Jitbull_runtime.Realm.create ()));
  let used = words () -. before in
  check_bool
    (Printf.sprintf "%.0f words per realm within the bound" used)
    true (used <= realm_words_bound)

(* An allocation larger than every free region bumps without walking
   the free list: after 2,000 arrays each shrank and freed a 3-cell
   tail, allocating an 8-element array takes 14 words, its header's two
   numbers among them. When it walked the whole list and consed a copy
   of it first, it took 6,014. *)
let alloc_words_bound = 64.

let test_heap_allocation_after_frees () =
  let module Heap = Jitbull_runtime.Heap in
  let heap = Heap.create () in
  for _ = 1 to 2000 do
    Heap.set_length heap (Heap.alloc_array heap ~length:4) 1
  done;
  let allocs = 100 in
  let w0 = Gc.minor_words () in
  for _ = 1 to allocs do
    ignore (Sys.opaque_identity (Heap.alloc_array heap ~length:8))
  done;
  let per_alloc = (Gc.minor_words () -. w0) /. float_of_int allocs in
  check_bool
    (Printf.sprintf "%.1f minor words per allocation within the bound" per_alloc)
    true (per_alloc <= alloc_words_bound)

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

(* ---- posting-aware extraction == full extraction ---- *)

module Variants = Jitbull_vdc.Variants
module Workloads = Jitbull_workloads.Workloads
module Errors = Jitbull_runtime.Errors

(* Every snapshot trace the local analyzer sees over the 8-VDC DB: the
   demonstrators and their four variants on the vulnerable engine, the
   Octane analogues and benign generated programs (seeds 900-903,
   disjoint from perfbench's) on the patched one. No policy cache, so
   every tier-up is analyzed. *)
let analyzed_traces db =
  let traces = ref [] in
  let local = Jitbull.analyzer db in
  let recording ~ctx ~func_index ~name ~trace =
    traces := trace :: !traces;
    local ~ctx ~func_index ~name ~trace
  in
  let runs =
    List.concat_map
      (fun (d : V.t) ->
        let vulns = VC.make [ d.V.cve ] in
        (vulns, d.V.source)
        :: List.map (fun k -> (vulns, Variants.apply k d.V.source)) Variants.all_kinds)
      V.all
    @ List.map (fun (w : Workloads.t) -> (VC.none, w.Workloads.source)) Workloads.everything
    @ List.map
        (fun seed ->
          ( VC.none,
            Generator.benign_params
              { Generator.p_seed = seed; p_funcs = 8; p_rounds = 40; p_depth = 2 } ))
        [ 900; 901; 902; 903 ]
  in
  List.iter
    (fun (vulns, source) ->
      let config =
        { Engine.default_config with Engine.vulns; analyzer = Some recording }
      in
      try ignore (Engine.run_source config source)
      with Errors.Crash _ | Errors.Shellcode_executed _ | Errors.Type_error _ -> ())
    runs;
  List.rev !traces

let test_posting_aware_equals_full () =
  let db = vdc_db () in
  let ctx = { Engine.cc_bytecode_hash = 0; cc_feedback_hash = 0; cc_obs = None } in
  let decide trace = Jitbull.analyzer db ~ctx ~func_index:0 ~name:"f" ~trace in
  let full_verdict trace =
    match snd (Jitbull.verdict_of_matches (Db.matching db (Dna.extract trace))) with
    | `Allow -> Engine.Allow
    | `Disable ps -> Engine.Disable_passes ps
    | `Forbid -> Engine.Forbid_jit
  in
  let traces = analyzed_traces db in
  check_bool "traces recorded" true (List.length traces > 100);
  let matched = ref 0 and skipped = ref 0 in
  List.iter
    (fun trace ->
      let full = Dna.extract trace in
      let x = Jitbull.extract db trace in
      check_bool "extracted against the current posted set" true
        (x.Jitbull.x_posted_generation = Some (Db.generation db));
      if Dna.nonempty_passes x.Jitbull.x_dna <> Dna.nonempty_passes full then incr skipped;
      (* same CVEs, passes, sides, scores, common chains and prefilter
         counts *)
      let q = Db.matching_detailed db x.Jitbull.x_dna in
      check_bool "posting-aware query == full query" true
        (forced q = forced (Db.matching_detailed db full));
      if q.Db.q_matches <> [] then incr matched;
      check_bool "analyzer verdict == full-DNA verdict" true
        (decide trace = full_verdict trace))
    traces;
  check_bool "some traces match" true (!matched > 0);
  check_bool "some passes were skipped" true (!skipped > 0)

(* A DB write between the analyzer's posted-set read and its query: the
   DNA was extracted while only gvn had postings, then an entry posting
   the function's own dce Δ lands. The query's generation no longer
   matches the posted set's, so the analyzer re-extracts in full and the
   verdict disables dce. *)
let test_posted_generation_race () =
  let _, trace =
    optimized_mir ~func:0
      "function f(n) { var s = 0; for (var i = 0; i < n; i++) { if (i % 3) { s = s + i; } } return s; } \
       var t = 0; for (var k = 0; k < 40; k++) { t = t + f(k); } print(t);"
  in
  let full = Dna.extract trace in
  let dce = List.assoc "dce" full.Dna.deltas in
  check_bool "the function's dce pass changed the IR" false (Delta.is_empty dce);
  let db = Db.create () in
  Db.add db (synthetic_entry "CVE-RACE-GVN");
  let _, posted = Db.posted db in
  check_bool "gvn posted" true (posted "gvn");
  check_bool "dce not posted" false (posted "dce");
  let x = Jitbull.extract db trace in
  check_bool "dce left empty" true (Delta.is_empty (List.assoc "dce" x.Jitbull.x_dna.Dna.deltas));
  Db.add db { Db.cve = "CVE-RACE-DCE"; dna = { Dna.func_name = "vdc"; deltas = [ ("dce", dce) ] } };
  let dna, q = Jitbull.query db ~trace x in
  check_int "answered at the new generation" (Db.generation db) q.Db.q_generation;
  check_bool "the verdict disables dce" true
    (Jitbull.verdict_of_matches (Db.drop_details q.Db.q_matches) = ([ "dce" ], `Disable [ "dce" ]));
  check_bool "re-extracted in full" true
    (Sexpr.to_string (Dna.to_sexpr dna) = Sexpr.to_string (Dna.to_sexpr full))

(* ---- driving an engine call by call ---- *)

module Op = Jitbull_bytecode.Op
module Value = Jitbull_runtime.Value
module Clock = Jitbull_obs.Clock
module Native = Jitbull_native.Native

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

(* -- host exit allocation -- *)

(* A native loop that exits to the host for an element load (an object
   cell, which the heap mirror leaves to the host), a property load and
   a fractional [%] per iteration: the call gate allocates nothing of its
   own, so the words left are the call's own (its argument list and
   result), spread over the loop's 15,000 exits. When every exit
   allocated a profiler closure, three accessor closures and boxed
   NaN-box bits and every property hit an option, the loop took 34.8
   minor words per exit. *)
let exit_words_bound = 1.

let exit_src =
  "function f(a, os, n) { var s = 0;\n\
   for (var i = 0; i < n; i = i + 1) { s = (s + a[i % 8] + os[i % 2].k) % 1000.5; }\n\
   return s; }\n\
   var a = [1, 2, 3, 4, 5, 6, 7, 8]; var os = [{ k: 3 }, { k: 4 }]; var r = 0;\n\
   for (var k = 0; k < 10; k = k + 1) { r = f(a, os, 50); } print(r);"

let test_host_exit_allocation () =
  let _, eng = Engine.run_source { jit_config with Engine.native = true } exit_src in
  match Engine.native_code_of eng (func_idx eng "f") with
  | None -> check_bool "f runs natively wherever the backend is on" false (Native.enabled ())
  | Some code ->
    let vm = Engine.vm eng in
    let args = [ Vm.load_global vm "a"; Vm.load_global vm "os"; num 5000 ] in
    let exits () = (Native.exits code).Native.t_hostop in
    let e0 = exits () and w0 = Gc.minor_words () in
    ignore (Vm.call_function vm (func_idx eng "f") args);
    let per_exit = (Gc.minor_words () -. w0) /. float_of_int (exits () - e0) in
    check_bool
      (Printf.sprintf "%.2f minor words per host exit within the bound" per_exit)
      true (per_exit <= exit_words_bound)

(* -- heap reads and int32 % in machine code -- *)

(* An element load and two [%]s per iteration and a length read, every
   operand a non-negative int32: the installed code runs the whole call
   without a host exit. When these kinds all exited to the host, this
   call made 150,011 host exits. *)
let native_read_src =
  "function f(a, n) { var s = 0;\n\
   for (var i = 0; i < n; i = i + 1) { s = (s + a[i % a.length]) % 1000; }\n\
   return s; }\n\
   var a = [1, 2, 3, 4, 5, 6, 7, 8]; var r = 0;\n\
   for (var k = 0; k < 10; k = k + 1) { r = f(a, 50); } print(r);"

let test_native_reads_exact () =
  let _, eng = Engine.run_source { jit_config with Engine.native = true } native_read_src in
  match Engine.native_code_of eng (func_idx eng "f") with
  | None -> check_bool "f runs natively wherever the backend is on" false (Native.enabled ())
  | Some code ->
    let vm = Engine.vm eng in
    let exits () = Native.exits code in
    let e0 = exits () in
    let r = call eng (func_idx eng "f") [ Vm.load_global vm "a"; num 50_003 ] in
    let e1 = exits () in
    check_string "result" "6" r;
    check_int "host exits" 0 (e1.Native.t_hostop - e0.Native.t_hostop);
    check_int "bailouts" 0 (e1.Native.t_bailout - e0.Native.t_bailout);
    check_int "one return" 1 (e1.Native.t_return - e0.Native.t_return)

(* -- vm global allocation -- *)

(* A top-level loop of global loads and stores, run by the bytecode VM
   alone: what is left per iteration is [i]'s own number, the compare's
   result and the loop's stack traffic, 10 words. When each global access
   hashed its name through a [Hashtbl] and each op allocated a feedback
   closure's option and a result option, an iteration took 20. *)
let global_words_bound = 15.

let global_iterations = 200_000

let global_src =
  Printf.sprintf
    "var x = 1; var y = 2; var z = 3;
     for (var i = 0; i < %d; i++) { x = y; y = z; z = x; }
     print(x + y + z);"
    global_iterations

let test_vm_global_allocation () =
  let vm = Vm.create (Compiler.compile (Parser.parse global_src)) in
  let w0 = Gc.minor_words () in
  let out = Vm.run vm in
  let per_iteration = (Gc.minor_words () -. w0) /. float_of_int global_iterations in
  check_string "loop result" "8\n" out;
  check_bool
    (Printf.sprintf "%.2f minor words per iteration within the bound" per_iteration)
    true (per_iteration <= global_words_bound)

(* -- dna extraction allocation -- *)

(* Posting-aware extraction over the 8-VDC DB of every Ion compile's
   trace of the DB's own programs (each demonstrator on its own bug) and
   of the benign programs of seeds 900-903. A changed pass recounts only
   the sub-chains around what it changed, in per-domain scratch, and a
   pass outside the posted set costs nothing. The whole-function
   extractor this replaced took 5,557 minor words per compile on these
   41 traces; the windowed one takes 771, and the bound is half the
   former. *)
let extract_words_bound = 2778.

let test_dna_extraction_allocation () =
  let db = vdc_db () in
  let traces =
    List.concat_map
      (fun (d : V.t) ->
        List.map (fun (_, _, _, t) -> t) (compiles ~vulns:(VC.make [ d.V.cve ]) d.V.source))
      V.all
    @ List.concat_map
        (fun seed ->
          List.map
            (fun (_, _, _, t) -> t)
            (compiles ~vulns:VC.none
               (Generator.benign_params
                  { Generator.p_seed = seed; p_funcs = 8; p_rounds = 40; p_depth = 2 })))
        [ 900; 901; 902; 903 ]
  in
  let _, only = Db.posted db in
  List.iter (fun t -> ignore (Dna.extract ~only t)) traces;
  let before = Gc.minor_words () in
  List.iter (fun t -> ignore (Dna.extract ~only t)) traces;
  let per_compile = (Gc.minor_words () -. before) /. float_of_int (List.length traces) in
  check_bool "compiles traced" true (List.length traces > 32);
  check_bool
    (Printf.sprintf "%.0f minor words per compile within the bound" per_compile)
    true (per_compile <= extract_words_bound)

(* -- the tier-up procedure -- *)

let engine_src =
  "function at(i) { var a = [7, 8, 9]; return a[i]; }"

(* Out-of-bounds reads bail the Ion code of [at] back to the interpreter,
   which replays the call, until [max_bailouts] blacklists the function;
   every call still returns the interpreter's value. *)
let test_bailouts_blacklist () =
  let db = Db.create () in
  Db.add db (synthetic_entry "CVE-BAILOUT");
  let cfg = Jitbull.config ~vulns:VC.none db in
  let cfg = { cfg with Engine.baseline_threshold = 2; ion_threshold = 4; max_bailouts = 3 } in
  let eng = Engine.create cfg (Compiler.compile (Parser.parse engine_src)) in
  let at = func_idx eng "at" in
  let out = List.init 16 (fun i -> call eng at [ num (if i mod 2 = 0 then 1 else 5) ]) in
  check_bool "every call returns the interpreter's value" true
    (List.equal String.equal out (List.init 16 (fun i -> if i mod 2 = 0 then "8" else "undefined")));
  check_bool "bailouts happened" true ((Engine.stats eng).Engine.bailouts > 3);
  check_bool "the function is blacklisted" true (Engine.tier_of eng at = Engine.Blacklisted)

(* One function per verdict kind, decided by a stub analyzer: a plain
   install, a recompile without a disableable pass, a blacklist for a
   mandatory pass, and a forbid. Two engines share one policy cache, so
   the second applies every kind from the cache (the forbid and
   mandatory ones without compiling at all). *)
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

let test_every_verdict_kind () =
  let obs = Jitbull_obs.Obs.create () in
  let config =
    {
      Engine.default_config with
      Engine.baseline_threshold = 2;
      ion_threshold = 4;
      analyzer = Some stub_analyzer;
      policy_cache = Some (Engine.Policy_cache.create ());
      obs = Some obs;
    }
  in
  let expected =
    List.concat_map
      (fun i -> List.map string_of_int [ i + 1; i * (i - 1) / 2; i * 2; i - 1 ])
      (List.init 10 Fun.id)
  in
  let run () =
    let eng = Engine.create config (Compiler.compile (Parser.parse verdict_src)) in
    let out =
      List.concat_map
        (fun i -> List.map (fun f -> call eng (func_idx eng f) [ num i ]) verdict_names)
        (List.init 10 Fun.id)
    in
    check_bool "every call returns the interpreter's value" true
      (List.equal String.equal out expected);
    let s = Engine.stats eng in
    ( List.map (fun f -> Engine.tier_of eng (func_idx eng f)) verdict_names,
      [ s.Engine.nr_jit; s.Engine.nr_disjit; s.Engine.nr_nojit; s.Engine.ion_compiles ] )
  in
  let tiers, fresh = run () in
  let cached_tiers, cached = run () in
  check_bool "verdicts reached the tiers" true
    (tiers = Engine.[ Ion; Ion; Blacklisted; Blacklisted ] && cached_tiers = tiers);
  (* the fresh Disable recompiles; its cached replay compiles once *)
  Alcotest.(check (list int)) "fresh Nr_JIT/DisJIT/NoJIT/ion compiles" [ 4; 1; 2; 5 ] fresh;
  Alcotest.(check (list int)) "cached Nr_JIT/DisJIT/NoJIT/ion compiles" [ 4; 1; 2; 4 ] cached;
  check_int "one Cache_hit record per cached tier-up" 4
    (Jitbull_obs.Audit.total (Jitbull_obs.Obs.audit obs))

(* A DB write landing while a compile is analyzed — a push applied by a
   subscribed client's domain, staged here from inside the analyzer. The
   verdict was computed against the old generation, so it must not be
   cached under the new one, and the next tier-up re-analyzes. *)
let test_mid_compile_db_add () =
  let db = Db.create () in
  Db.add db (synthetic_entry "CVE-MID-1");
  let base = Jitbull.config ~vulns:VC.none db in
  let analyze = Option.get base.Engine.analyzer in
  let landed = ref false in
  let analyzer ~ctx ~func_index ~name ~trace =
    let d = analyze ~ctx ~func_index ~name ~trace in
    if not !landed then begin
      landed := true;
      Db.add db (synthetic_entry "CVE-MID-2")
    end;
    d
  in
  let cfg =
    { base with Engine.analyzer = Some analyzer; baseline_threshold = 2; ion_threshold = 4 }
  in
  let pc = Option.get cfg.Engine.policy_cache in
  let out1 = fst (Engine.run_source cfg hot_src) in
  check_int "the racing verdict was not cached" 0 (Engine.Policy_cache.length pc);
  let out2 = fst (Engine.run_source cfg hot_src) in
  check_string "output unchanged" out1 out2;
  check_int "the next tier-up re-analyzed" 0 (Engine.Policy_cache.hits pc);
  check_int "both tier-ups missed" 2 (Engine.Policy_cache.misses pc);
  check_int "the re-analyzed verdict was cached" 1 (Engine.Policy_cache.length pc)

(* Two tier-ups of one function, the second a policy-cache hit: one
   lookup, one verdict and one audit record each. *)
let test_cached_tier_up_accounting () =
  let db = Db.create () in
  Db.add db (synthetic_entry "CVE-ACCOUNTING");
  let obs = Jitbull_obs.Obs.create () in
  let cfg = Jitbull.config ~obs ~vulns:VC.none db in
  let cfg = { cfg with Engine.baseline_threshold = 2; ion_threshold = 4 } in
  let outs = List.init 2 (fun _ -> fst (Engine.run_source cfg hot_src)) in
  check_bool "outputs agree" true (List.nth outs 0 = List.nth outs 1);
  let pc = Option.get cfg.Engine.policy_cache in
  let view = Jitbull_obs.Obs.view (Some obs) in
  let counter name =
    Option.value (Jitbull_obs.Metrics.find_counter view name) ~default:0
  in
  List.iter
    (fun (name, want, got) -> check_int name want got)
    [
      ("Policy_cache.hits", 1, Engine.Policy_cache.hits pc);
      ("Policy_cache.misses", 1, Engine.Policy_cache.misses pc);
      ("policy.cache_hits", 1, counter "policy.cache_hits");
      ("policy.cache_misses", 1, counter "policy.cache_misses");
      ("engine.verdict.allow", 2, counter "engine.verdict.allow");
      ("engine.verdict.disable", 0, counter "engine.verdict.disable");
      ("engine.verdict.forbid", 0, counter "engine.verdict.forbid");
      ("Audit.total", 2, Jitbull_obs.Audit.total (Jitbull_obs.Obs.audit obs));
    ]

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
      qtest qcheck_indexed_equals_naive;
      qtest qcheck_indexed_equals_naive_after_removal;
      Alcotest.test_case "query rejects thr = 0" `Quick test_query_rejects_thr0;
      Alcotest.test_case "indexed == naive on real DNAs" `Quick
        test_indexed_equals_naive_real_dnas;
      Alcotest.test_case "query allocation" `Quick test_query_allocation;
      Alcotest.test_case "compile allocation" `Quick test_compile_allocation;
      Alcotest.test_case "parse allocation" `Quick test_parse_allocation;
      Alcotest.test_case "realm allocation" `Quick test_realm_allocation;
      Alcotest.test_case "heap allocation after frees" `Quick test_heap_allocation_after_frees;
      Alcotest.test_case "native heap reads exact" `Quick test_native_reads_exact;
      Alcotest.test_case "host exit allocation" `Quick test_host_exit_allocation;
      Alcotest.test_case "vm global allocation" `Quick test_vm_global_allocation;
      Alcotest.test_case "dna extraction allocation" `Quick test_dna_extraction_allocation;
      Alcotest.test_case "posting-aware extraction == full" `Quick
        test_posting_aware_equals_full;
      Alcotest.test_case "posted-set generation race" `Quick test_posted_generation_race;
      Alcotest.test_case "db generation and entry order" `Quick test_db_generation_and_order;
      Alcotest.test_case "policy cache lookup/store/invalidate" `Quick test_policy_cache_unit;
      Alcotest.test_case "policy cache across engine runs" `Quick test_engine_cache_integration;
      Alcotest.test_case "no policy cache on empty DB" `Quick test_empty_db_no_policy_cache;
      Alcotest.test_case "every verdict kind, fresh and cached" `Quick test_every_verdict_kind;
      Alcotest.test_case "mid-compile Db.add discards the result" `Quick
        test_mid_compile_db_add;
      Alcotest.test_case "bailouts blacklist a function" `Quick test_bailouts_blacklist;
      Alcotest.test_case "cached tier-up accounting" `Quick test_cached_tier_up_accounting;
      Alcotest.test_case "manual clock determinism" `Quick test_clock_manual_determinism;
    ] )
