(* Tests for the JITBULL core: dependency graphs (Algorithm 1), sub-chain
   deltas (including the paper's worked example), the comparator
   (Algorithm 2), the database, and the go/no-go policy. *)

open Helpers
module Snapshot = Jitbull_mir.Snapshot
module Depgraph = Jitbull_core.Depgraph
module Delta = Jitbull_core.Delta
module Dna = Jitbull_core.Dna
module Comparator = Jitbull_core.Comparator
module Db = Jitbull_core.Db
module Jitbull = Jitbull_core.Jitbull
module Engine = Jitbull_jit.Engine
module VC = Jitbull_passes.Vuln_config
module Sexpr = Jitbull_util.Sexpr
module Obs = Jitbull_obs.Obs

(* Hand-build a snapshot: (num, opcode, operands). *)
let snap entries = Snapshot.make ~func_name:"test" ~n_blocks:1 entries

(* ---- the whole-function extractor, kept as an oracle ----

   The extractor the windowed recount replaced: every changed snapshot
   gets a whole-function dependency graph and sub-chain multiset, and a
   pass's Δ is the difference of two multisets. Keys are packed as
   [Delta.key] documents: three 21-bit slots of dense opcode id + 1, a
   zero slot marking a pair (0, a, b) or a root-boundary pair (a, 0, b). *)
module Whole_function = struct
  module Inttbl = Jitbull_util.Inttbl

  let positions (g : Depgraph.t) = List.init g.Depgraph.size Fun.id
  let opcode (g : Depgraph.t) v = Snapshot.opcode_name g.Depgraph.ops.(v)
  let edge_count (g : Depgraph.t) = g.Depgraph.dep_start.(g.Depgraph.size)
  let roots g = List.filter (Depgraph.is_root g) (positions g)

  let node_count g =
    List.length
      (List.filter (fun v -> Depgraph.is_root g v || g.Depgraph.used.(v)) (positions g))

  let pack a b c = (a lsl 42) lor (b lsl 21) lor c

  (* n = 2: the edge multiset; n = 3: every length-2 walk u→m→d plus each
     edge out of a root as a root-boundary pair *)
  let multiset ~n (g : Depgraph.t) =
    let m = Inttbl.create (edge_count g) in
    let op v = g.Depgraph.ops.(v) + 1 and first v = g.Depgraph.dep_start.(v) in
    let last v = g.Depgraph.dep_start.(v + 1) - 1 and deps = g.Depgraph.deps in
    for u = 0 to g.Depgraph.size - 1 do
      for i = first u to last u do
        let d = deps.(i) in
        if n = 2 then Inttbl.add m (pack 0 (op u) (op d)) 1
        else begin
          if Depgraph.is_root g u then Inttbl.add m (pack (op u) 0 (op d)) 1;
          for j = first d to last d do
            Inttbl.add m (pack (op u) (op d) (op deps.(j))) 1
          done
        end
      done
    done;
    m

  (* multiset difference a − b *)
  let diff a b : Delta.side =
    let out = Hashtbl.create 16 in
    Inttbl.iter
      (fun k c ->
        let c = c - Inttbl.find b k in
        if c > 0 then Hashtbl.add out k c)
      a;
    out

  let of_multisets ~before ~after =
    { Delta.removed = diff before after; added = diff after before }

  (* a pass that left the entries unchanged has an empty Δ and the
     previous multiset carries forward *)
  let extract ?(n = 3) ?(only = fun _ -> true) trace =
    match trace with
    | [] -> { Dna.func_name = "?"; deltas = [] }
    | (_, first) :: rest ->
      let multiset snap = lazy (multiset ~n (Depgraph.build snap)) in
      let _, deltas =
        List.fold_left_map
          (fun ((last, m) as prev) (pass, snap) ->
            if Snapshot.same_entries snap last then (prev, (pass, Delta.empty ()))
            else
              let m' = multiset snap in
              let d =
                if only pass then of_multisets ~before:(Lazy.force m) ~after:(Lazy.force m')
                else Delta.empty ()
              in
              ((snap, m'), (pass, d)))
          (first, multiset first)
          rest
      in
      { Dna.func_name = first.Snapshot.func_name; deltas }
end

(* Δ between two dependency graphs *)
let compute ?(n = 3) before after =
  Whole_function.(of_multisets ~before:(multiset ~n before) ~after:(multiset ~n after))

let test_buildgraph_roots () =
  (* 8 boundscheck uses 2 (unbox) and 7 (initializedlength); 9 uses 8 —
     so 9 is the only root among instructions with operands *)
  let g =
    Depgraph.build
      (snap
         [
           (2, "unbox", []);
           (7, "initializedlength", []);
           (8, "boundscheck", [ 2; 7 ]);
           (9, "loadelement", [ 8 ]);
         ])
  in
  check_int "roots" 1 (List.length (Whole_function.roots g));
  check_string "root opcode" "loadelement" (Whole_function.opcode g (List.hd (Whole_function.roots g)));
  check_int "edges" 3 (Whole_function.edge_count g)

let test_buildgraph_operandless_excluded () =
  (* an instruction with no operands that nothing uses is not in G *)
  let g = Depgraph.build (snap [ (1, "constant", []); (2, "parameter", []) ]) in
  check_int "empty graph" 0 (Whole_function.node_count g)

(* The paper's worked example: C_{i-1} = A→B→C→D, C_i = B→C→E gives
   δ⁻ = {A→B, C→D} and δ⁺ = {C→E}. *)
let test_delta_paper_example () =
  let before =
    Depgraph.build
      (snap [ (1, "d", []); (2, "c", [ 1 ]); (3, "b", [ 2 ]); (4, "a", [ 3 ]) ])
  in
  let after =
    Depgraph.build (snap [ (1, "e", []); (2, "c", [ 1 ]); (3, "b", [ 2 ]) ])
  in
  (* the paper's example is in 2-gram terms *)
  let d = compute ~n:2 before after in
  check_int "two removed subchains" 2 (Delta.total d.Delta.removed);
  check_int "one added subchain" 1 (Delta.total d.Delta.added);
  let mem side key = Hashtbl.mem side (Delta.key_of_string key) in
  check_bool "A->B removed" true (mem d.Delta.removed "a->b");
  check_bool "C->D removed" true (mem d.Delta.removed "c->d");
  check_bool "C->E added" true (mem d.Delta.added "c->e")

let test_delta_empty_on_identical () =
  let g = Depgraph.build (snap [ (1, "x", []); (2, "y", [ 1 ]) ]) in
  let d = compute g g in
  check_bool "empty" true (Delta.is_empty d)

let test_delta_multiplicity () =
  (* two removed identical edges count twice *)
  let before =
    Depgraph.build
      (snap [ (1, "x", []); (2, "y", [ 1 ]); (3, "x", []); (4, "y", [ 3 ]) ])
  in
  let after = Depgraph.build (snap []) in
  let d = compute ~n:2 before after in
  check_int "multiplicity 2" 2 (Delta.total d.Delta.removed);
  check_int "single key" 1 (Hashtbl.length d.Delta.removed)

(* Sub-chains are 2- or 3-grams; any other size is refused up front, even
   on a trace whose snapshots would never be recounted. *)
let test_delta_rejects_other_n () =
  let g = Depgraph.build (snap [ (1, "x", []); (2, "y", [ 1 ]) ]) in
  let trace = [ ("start", snap [ (1, "x", []) ]) ] in
  List.iter
    (fun n ->
      check_bool (Printf.sprintf "count_window n=%d" n) true
        (match Delta.count_window ~n (Jitbull_util.Inttbl.create 1) g [| true; true |] 1 with
        | _ -> false
        | exception Invalid_argument _ -> true);
      check_bool (Printf.sprintf "extract n=%d" n) true
        (match Dna.extract ~n trace with _ -> false | exception Invalid_argument _ -> true))
    [ 0; 1; 4 ]

let test_delta_sexpr_roundtrip () =
  let before =
    Depgraph.build
      (snap [ (1, "d", []); (2, "c", [ 1 ]); (3, "b", [ 2 ]); (4, "a", [ 3 ]) ])
  in
  let after = Depgraph.build (snap [ (1, "e", []); (2, "c", [ 1 ]) ]) in
  let d = compute before after in
  let d' = Delta.of_sexpr (Sexpr.of_string (Sexpr.to_string (Delta.to_sexpr d))) in
  check_int "removed preserved" (Delta.total d.Delta.removed) (Delta.total d'.Delta.removed);
  check_int "added preserved" (Delta.total d.Delta.added) (Delta.total d'.Delta.added)

(* ---- comparator (Algorithm 2) ---- *)

let side_of_list = Delta.side_of_list

(* ---- the sub-chain key codec ---- *)

(* any string, and chains of awkward names with or without the root
   marker; [Some] marks a chain of well-formed names, which packs *)
let key_string_gen =
  let open QCheck.Gen in
  let chain rooted names = (if rooted then "^" else "") ^ String.concat "->" names in
  let name = string_size ~gen:(char_range 'a' 'e') (int_range 1 3) in
  frequency
    [
      (1, map (fun s -> (s, None)) awkward_string_gen);
      ( 1,
        map2
          (fun rooted names -> (chain rooted names, None))
          bool
          (list_size (int_range 1 4) awkward_string_gen) );
      (1, map (fun names -> (chain false names, Some ())) (list_size (int_range 2 3) name));
      (1, map2 (fun a b -> (chain true [ "k" ^ a; b ], Some ())) name name);
    ]

let qcheck_key_codec_round_trip =
  QCheck.Test.make ~count:(qcheck_count 200) ~name:"delta key codec round trip"
    (QCheck.make ~print:(fun (s, _) -> String.escaped s) key_string_gen)
    (fun (s, well_formed) ->
      let k = Delta.key_of_string s in
      Delta.key_to_string k = s
      && Delta.key_of_string s = k
      && (well_formed = None || k > 0))

let test_key_codec_db_and_canonical () =
  (* every key of the 8-VDC DB is packed and survives its string *)
  let db = Db.create () in
  ignore (Jitbull_vdc.Demonstrators.harvest db VC.all);
  let keys = ref 0 in
  List.iter
    (fun (e : Db.entry) ->
      List.iter
        (fun (_, (d : Delta.t)) ->
          List.iter
            (Hashtbl.iter (fun k _ ->
                 incr keys;
                 if k <= 0 || Delta.key_of_string (Delta.key_to_string k) <> k then
                   Alcotest.failf "key %d (%s) does not round-trip" k (Delta.key_to_string k)))
            [ d.Delta.removed; d.Delta.added ])
        e.Db.dna.Dna.deltas)
    (Db.entries db);
  check_bool "the DB has keys" true (!keys > 100);
  (* chain strings parsed before any snapshot names their opcodes get the
     keys extraction gives the chains later *)
  let chain = "codec_c->codec_b->codec_a" and rooted = "^codec_c->codec_b" in
  let k = Delta.key_of_string chain and kr = Delta.key_of_string rooted in
  let d =
    compute
      (Depgraph.build (snap []))
      (Depgraph.build (snap [ (1, "codec_a", []); (2, "codec_b", [ 1 ]); (3, "codec_c", [ 2 ]) ]))
  in
  check_bool "the chain's key" true (Hashtbl.find_opt d.Delta.added k = Some 1);
  check_bool "the root pair's key" true (Hashtbl.find_opt d.Delta.added kr = Some 1);
  check_int "nothing else" 2 (Hashtbl.length d.Delta.added)

let params = { Comparator.thr = 2; ratio = 0.5 }

let test_comparator_threshold () =
  let a = side_of_list [ ("x->y", 1) ] in
  let b = side_of_list [ ("x->y", 1) ] in
  (* EqChains = 1 < Thr = 2 *)
  check_bool "below threshold" false (Comparator.compare_sides ~params a b);
  let a2 = side_of_list [ ("x->y", 2) ] in
  let b2 = side_of_list [ ("x->y", 2) ] in
  check_bool "at threshold" true (Comparator.compare_sides ~params a2 b2)

let test_comparator_ratio () =
  (* 2 common out of min(10, 2) = 2 → ratio 1.0: match;
     2 common out of min(10, 10) = 10 → ratio 0.2 < 0.5: no match *)
  let small = side_of_list [ ("a->b", 1); ("c->d", 1) ] in
  let big =
    side_of_list [ ("a->b", 1); ("c->d", 1); ("e->f", 4); ("g->h", 4) ]
  in
  check_bool "small vs big matches (MaxEq = small)" true
    (Comparator.compare_sides ~params small big);
  let big2 = side_of_list [ ("a->b", 1); ("c->d", 1); ("zz->ww", 8) ] in
  (* EqChains = 2 ≥ Thr but 2 < 0.5 × min(10, 10) *)
  check_bool "big vs big fails ratio" false (Comparator.compare_sides ~params big big2)

let test_comparator_min_multiplicity () =
  let a = side_of_list [ ("x->y", 5) ] in
  let b = side_of_list [ ("x->y", 2) ] in
  (* EqChains = min(5,2) = 2; MaxEq = min(5,2) = 2 *)
  check_bool "min of multiplicities" true (Comparator.compare_sides ~params a b)

let test_similar_either_side () =
  let mk removed added = { Delta.removed = side_of_list removed; added = side_of_list added } in
  let a = mk [ ("r->s", 2) ] [] in
  let b = mk [ ("r->s", 2) ] [ ("zz->ww", 9) ] in
  check_bool "removed side matches" true (Comparator.similar ~params a b);
  let c = mk [] [ ("p->q", 3) ] in
  let d = mk [ ("other", 5) ] [ ("p->q", 3) ] in
  check_bool "added side matches" true (Comparator.similar ~params c d);
  let e = mk [ ("x", 2) ] [] in
  let f = mk [] [ ("x", 2) ] in
  check_bool "sides not mixed" false (Comparator.similar ~params e f)

let test_matching_passes () =
  let mk removed = { Delta.removed = side_of_list removed; added = side_of_list [] } in
  let dna1 =
    { Dna.func_name = "f"; deltas = [ ("gvn", mk [ ("a->b", 3) ]); ("dce", mk [ ("c->d", 3) ]) ] }
  in
  let dna2 =
    { Dna.func_name = "g"; deltas = [ ("gvn", mk [ ("a->b", 3) ]); ("dce", mk [ ("zz", 1) ]) ] }
  in
  check_bool "only gvn matches" true
    (Comparator.matching_passes ~params dna1 dna2 = [ "gvn" ])

(* ---- DNA extraction from real traces ---- *)

let test_dna_from_trace () =
  (* two stores to the same index: the second bounds check is genuinely
     redundant and GVN's removal of it (a root of the dependency graph)
     is visible in the delta *)
  let _, trace =
    optimized_mir ~func:0
      "function f(a, v) { a[1] = v; a[1] = v + 1; } for (var k = 0; k < 5; k++) f([1,2,3], k);"
  in
  let dna = Dna.extract trace in
  check_string "func name" "f" dna.Dna.func_name;
  check_int "one delta per pass" (List.length Jitbull_passes.Pipeline.passes)
    (List.length dna.Dna.deltas);
  check_bool "gvn delta non-empty" true (List.mem "gvn" (Dna.nonempty_passes dna));
  (* annotation-only passes are empty *)
  let d = List.assoc "aliasanalysis" dna.Dna.deltas in
  check_bool "aliasanalysis empty" true (Delta.is_empty d)

let test_dna_insensitive_to_renaming () =
  let source =
    "function NAME(a, b) { var local = a + b; return local * local; } for (var k = 0; k < 5; k++) NAME(k, 2);"
  in
  let renamed =
    "function zz9(q, r) { var w = q + r; return w * w; } for (var k = 0; k < 5; k++) zz9(k, 2);"
  in
  let _, t1 = optimized_mir ~func:0 source in
  let _, t2 = optimized_mir ~func:0 renamed in
  let d1 = (Dna.extract t1).Dna.deltas and d2 = (Dna.extract t2).Dna.deltas in
  List.iter2
    (fun (p1, a) (p2, b) ->
      check_string "same pass" p1 p2;
      check_int (p1 ^ " removed equal") (Delta.total a.Delta.removed) (Delta.total b.Delta.removed);
      check_int (p1 ^ " added equal") (Delta.total a.Delta.added) (Delta.total b.Delta.added))
    d1 d2

let test_dna_sexpr_roundtrip () =
  let _, trace =
    optimized_mir ~func:0 "function f(a) { return a + a + a; } for (var k = 0; k < 5; k++) f(k);"
  in
  let dna = Dna.extract trace in
  let dna' = Dna.of_sexpr (Sexpr.of_string (Sexpr.to_string (Dna.to_sexpr dna))) in
  check_string "name" dna.Dna.func_name dna'.Dna.func_name;
  check_int "deltas" (List.length dna.Dna.deltas) (List.length dna'.Dna.deltas)

(* ---- database ---- *)

let test_db_lifecycle () =
  let db = Db.create () in
  check_bool "starts empty" true (Db.is_empty db);
  let d = Jitbull_vdc.Demonstrators.find VC.CVE_2019_17026 in
  let n =
    Db.harvest db ~cve:"CVE-2019-17026" ~vulns:(VC.make [ VC.CVE_2019_17026 ])
      d.Jitbull_vdc.Demonstrators.source
  in
  check_bool "harvested entries" true (n > 0);
  check_bool "cve listed" true (Db.cves db = [ "CVE-2019-17026" ]);
  (* patch applied: remove *)
  Db.remove_cve db "CVE-2019-17026";
  check_bool "empty after patch" true (Db.is_empty db)

let test_db_save_load () =
  let db = Db.create () in
  let d = Jitbull_vdc.Demonstrators.find VC.CVE_2019_9813 in
  ignore
    (Db.harvest db ~cve:"CVE-2019-9813" ~vulns:(VC.make [ VC.CVE_2019_9813 ])
       d.Jitbull_vdc.Demonstrators.source);
  let path = Filename.temp_file "jitbull_db" ".sexp" in
  Db.save db path;
  let db' = Db.load path in
  Sys.remove path;
  check_int "entries preserved" (List.length (Db.entries db)) (List.length (Db.entries db'));
  check_bool "cves preserved" true (Db.cves db = Db.cves db')

(* A second harvest of every VDC into the same DB adds nothing: each
   re-extracted entry equals one held (CVE and canonical DNA). *)
let test_db_reharvest_idempotent () =
  let module V = Jitbull_vdc.Demonstrators in
  let db = Db.create () in
  ignore (V.harvest db VC.all);
  let bytes db =
    let path = Filename.temp_file "jitbull_db" ".sexp" in
    Db.save db path;
    let s = In_channel.with_open_bin path In_channel.input_all in
    Sys.remove path;
    s
  in
  let size = Db.size db and gen = Db.generation db and saved = bytes db in
  check_bool "first harvest added entries" true (size > 0);
  List.iter
    (fun ((d : V.t), n) -> check_int (d.V.name ^ ": nothing re-added") 0 n)
    (V.harvest db VC.all);
  check_int "size unchanged" size (Db.size db);
  check_int "generation unchanged" gen (Db.generation db);
  check_string "saved bytes unchanged" saved (bytes db)

(* ---- policy / engine integration ---- *)

let test_empty_db_no_analyzer () =
  let db = Db.create () in
  let config = Jitbull.config ~vulns:VC.none db in
  check_bool "no analyzer when DB empty" true (config.Engine.analyzer = None)

let test_decision_records () =
  let db = Db.create () in
  let d = Jitbull_vdc.Demonstrators.find VC.CVE_2019_17026 in
  let vulns = VC.make [ VC.CVE_2019_17026 ] in
  ignore (Db.harvest db ~cve:"CVE-2019-17026" ~vulns d.Jitbull_vdc.Demonstrators.source);
  let obs = Obs.create () in
  let config = Jitbull.config ~obs ~vulns db in
  (* run an innocent workload: records accumulate, most verdicts Allow *)
  ignore (Engine.run_source config "function h(x) { return x + 1; } var s = 0; for (var i = 0; i < 80; i++) { s = h(i); } print(s);");
  let records = fresh_decisions obs in
  check_bool "records present" true (records <> []);
  check_bool "innocent function allowed" true
    (List.exists (fun (r : Audit.record) -> r.Audit.verdict = Audit.Allow) records)

let test_forbid_on_mandatory_pass () =
  (* a synthetic analyzer decision path: if the dangerous list contains a
     mandatory pass the verdict is Forbid. We simulate by injecting a
     matching DNA entry for 'renumber'. *)
  let db = Db.create () in
  (* "^" marks a root-boundary sub-chain in the 3-gram representation *)
  let side = Delta.side_of_list [ ("^parameter->constant", 5) ] in
  let delta = { Delta.removed = side; added = Delta.side_of_list [] } in
  let dna = { Dna.func_name = "evil"; deltas = [ ("renumber", delta) ] } in
  Db.add db { Db.cve = "SYNTH"; dna };
  let analyze = Jitbull.analyzer db in
  (* craft a trace whose renumber delta matches *)
  let snap1 =
    snap [ (1, "constant", []); (2, "parameter", [ 1 ]) ]
  in
  ignore snap1;
  (* direct decision check through the comparator instead: matching_passes
     on a mandatory pass yields Forbid via the analyzer *)
  let trace =
    [
      ("initial", snap [ (1, "constant", []); (2, "parameter", [ 1 ]); (3, "parameter", [ 1 ]);
                         (4, "parameter", [ 1 ]); (5, "parameter", [ 1 ]); (6, "parameter", [ 1 ]) ]);
      ("renumber", snap [ (1, "constant", []) ]);
    ]
  in
  match
    analyze
      ~ctx:{ Engine.cc_bytecode_hash = 0; cc_feedback_hash = 0; cc_obs = None }
      ~func_index:0 ~name:"f" ~trace
  with
  | Engine.Forbid_jit -> ()
  | Engine.Allow -> Alcotest.fail "expected Forbid, got Allow"
  | Engine.Disable_passes _ -> Alcotest.fail "expected Forbid, got Disable"

let test_detection_flags_dangerous_pass () =
  let d = Jitbull_vdc.Demonstrators.find VC.CVE_2019_17026 in
  let vulns = VC.make [ VC.CVE_2019_17026 ] in
  let db = Db.create () in
  ignore (Db.harvest db ~cve:"CVE-2019-17026" ~vulns d.Jitbull_vdc.Demonstrators.source);
  let obs = Obs.create () in
  let config = Jitbull.config ~obs ~vulns db in
  (* run the second, independent implementation of the same exploit *)
  ignore
    (Jitbull_vdc.Demonstrators.run_exploit config
       Jitbull_vdc.Demonstrators.second_implementation_17026 Jitbull_vdc.Demonstrators.Shellcode);
  let gvn_flagged =
    List.exists (fun r -> List.mem "gvn" (flagged_passes r)) (fresh_decisions obs)
  in
  check_bool "GVN flagged on independent implementation" true gvn_flagged

let test_harvest_cold_script_empty () =
  (* a script whose functions never reach Ion contributes no DNA *)
  let db = Db.create () in
  let n =
    Db.harvest db ~cve:"COLD" ~vulns:VC.none "function f(x) { return x; } print(f(1));"
  in
  check_int "nothing harvested" 0 n;
  check_bool "db still empty" true (Db.is_empty db)

let test_engine_forbid_end_to_end () =
  (* a DB entry matching a mandatory pass drives the engine's scenario 3:
     the function is denied JIT but keeps running correctly interpreted *)
  let db = Db.create () in
  (* the renumber pass never changes dependency edges in reality; force a
     synthetic match by teaching the comparator a universal delta for it *)
  let side =
    Delta.side_of_list [ ("^storeelement->elements", 50); ("^boundscheck->unboxint32", 50) ]
  in
  let delta = { Delta.removed = side; added = Delta.side_of_list [] } in
  Db.add db { Db.cve = "SYNTH-MANDATORY"; dna = { Dna.func_name = "evil"; deltas = [ ("renumber", delta) ] } };
  let analyzer ~ctx:_ ~func_index:_ ~name:_ ~trace:_ =
    (* bypass comparison: always claim the mandatory pass matched *)
    Engine.Disable_passes [ "renumber" ]
  in
  let config =
    { Engine.default_config with
      Engine.baseline_threshold = 2;
      ion_threshold = 4;
      analyzer = Some analyzer }
  in
  let src =
    "function f(x) { return x * 2; } var s = 0; for (var i = 0; i < 20; i++) { s = f(i); } print(s);"
  in
  let out, t = Engine.run_source config src in
  check_string "still correct without JIT" "38\n" out;
  check_bool "function counted as NoJIT" true ((Engine.stats t).Engine.nr_nojit > 0)

let test_custom_params_flow_through () =
  (* an absurdly strict Ratio disables all matching: the VDC's own variant
     is NOT blocked, demonstrating params plumbing end-to-end *)
  let d = Jitbull_vdc.Demonstrators.find VC.CVE_2019_9813 in
  let vulns = VC.make [ VC.CVE_2019_9813 ] in
  let db = Db.create () in
  ignore (Db.harvest db ~cve:d.Jitbull_vdc.Demonstrators.name ~vulns d.Jitbull_vdc.Demonstrators.source);
  let strict = { Comparator.thr = 100000; ratio = 1.0 } in
  let config = Jitbull.config ~params:strict ~vulns db in
  match
    Jitbull_vdc.Demonstrators.run_exploit config d.Jitbull_vdc.Demonstrators.source
      d.Jitbull_vdc.Demonstrators.expected
  with
  | Jitbull_vdc.Demonstrators.Exploited _ -> ()  (* matching effectively off *)
  | Jitbull_vdc.Demonstrators.Neutralized ->
    Alcotest.fail "impossible threshold should disable matching"

let test_decision_records_per_function () =
  let db = Db.create () in
  let d = Jitbull_vdc.Demonstrators.find VC.CVE_2019_9795 in
  let vulns = VC.make [ VC.CVE_2019_9795 ] in
  ignore (Db.harvest db ~cve:d.Jitbull_vdc.Demonstrators.name ~vulns d.Jitbull_vdc.Demonstrators.source);
  let obs = Obs.create () in
  let config = Jitbull.config ~obs ~vulns db in
  ignore
    (Engine.run_source config
       "function a1(x) { return x + 1; } function b2(x) { return x + 2; } var s = 0; for (var i = 0; i < 80; i++) { s = a1(i) + b2(i); } print(s);");
  check_int "two analyzed functions" 2 (List.length (fresh_decisions obs))

(* ---- the Δ extractor against a brute-force reference ---- *)

(* String-keyed reference sub-chain multiset, straight from the entry
   list: the edge list, then (n = 3) every length-2 walk plus the edges
   out of roots as root-boundary pairs. Sorted (key, count) list. *)
let reference_multiset n (s : Snapshot.t) =
  let entries = Snapshot.entries s in
  let by_num = Hashtbl.create 16 in
  List.iter (fun ((num, _, _) as e) -> Hashtbl.replace by_num num e) entries;
  let edges =
    List.concat_map
      (fun ((_, _, operands) as u) ->
        List.filter_map (fun o -> Option.map (fun d -> (u, d)) (Hashtbl.find_opt by_num o))
          operands)
      entries
  in
  let op (_, opcode, _) = opcode and num (n, _, _) = n in
  let keys =
    if n = 2 then List.map (fun (u, d) -> op u ^ "->" ^ op d) edges
    else begin
      let deps_of = Hashtbl.create 16 and used = Hashtbl.create 16 in
      List.iter
        (fun (u, d) ->
          Hashtbl.add deps_of (num u) d;
          Hashtbl.replace used (num d) ())
        edges;
      List.concat_map
        (fun (u, m) ->
          List.map (fun d -> op u ^ "->" ^ op m ^ "->" ^ op d) (Hashtbl.find_all deps_of (num m)))
        edges
      @ List.filter_map
          (fun (r, d) -> if Hashtbl.mem used (num r) then None else Some ("^" ^ op r ^ "->" ^ op d))
          edges
    end
  in
  let counts = Hashtbl.create 16 in
  List.iter
    (fun k -> Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
    keys;
  counts

let reference_diff a b =
  Hashtbl.fold
    (fun k ca acc ->
      let cb = Option.value ~default:0 (Hashtbl.find_opt b k) in
      if ca > cb then (k, ca - cb) :: acc else acc)
    a []
  |> List.sort compare

(* per pass: (pass, removed, added) between each adjacent snapshot pair *)
let reference_dna n trace =
  let rec go = function
    | (_, a) :: ((pass, b) :: _ as rest) ->
      let ma = reference_multiset n a and mb = reference_multiset n b in
      (pass, reference_diff ma mb, reference_diff mb ma) :: go rest
    | _ -> []
  in
  go trace

let side_strings (side : Delta.side) =
  Hashtbl.fold (fun k c acc -> (Delta.key_to_string k, c) :: acc) side []
  |> List.sort compare

let extracted_dna n trace =
  List.map
    (fun (pass, (d : Delta.t)) -> (pass, side_strings d.Delta.removed, side_strings d.Delta.added))
    (Dna.extract ~n trace).Dna.deltas

(* Random snapshot traces. Numbers are even, so odd operand numbers
   dangle; operands are drawn from every number in the snapshot, so they
   include forward references (as phis make), self-operands and repeats;
   an empty operand list is common. Each later snapshot repeats the last
   one (physically), renumbers it, edits one entry's opcode, inserts or
   deletes an entry, moves an operand between a dangling and a resolving
   number, flips an entry's root status without changing what it
   depends on, gives two entries one number, or is drawn afresh. *)
let snapshot_gen =
  let open QCheck.Gen in
  let* k = int_range 0 9 in
  let* nums = shuffle_l (List.init k (fun i -> 2 * i)) in
  let operand =
    if nums = [] then map (fun x -> (2 * x) + 1) (int_range 0 20)
    else frequency [ (5, oneofl nums); (1, map (fun x -> (2 * x) + 1) (int_range 0 20)) ]
  in
  let+ entries =
    flatten_l
      (List.map
         (fun num ->
           map2
             (fun opcode operands -> (num, opcode, operands))
             (oneofl [ "a"; "b"; "c"; "phi" ])
             (list_size (int_range 0 3) operand))
         nums)
  in
  snap entries

let renumber shift (s : Snapshot.t) =
  let re n = if n mod 2 = 0 then n + (2 * shift) else n in
  snap
    (List.map
       (fun (num, opcode, operands) -> (re num, opcode, List.map re operands))
       (Snapshot.entries s))

let edit_one i opcode (s : Snapshot.t) =
  snap
    (List.mapi
       (fun j ((num, _, operands) as e) -> if j = i then (num, opcode, operands) else e)
       (Snapshot.entries s))

let map_entries f (s : Snapshot.t) = snap (List.concat (List.mapi f (Snapshot.entries s)))

(* a fresh number (even, above every one in [s]) at position [i] *)
let insert_one i opcode operands (s : Snapshot.t) =
  let fresh = 2 + Array.fold_left max 0 s.Snapshot.nums in
  let e = (fresh, opcode, operands) in
  if i >= Snapshot.entry_count s then snap (Snapshot.entries s @ [ e ])
  else map_entries (fun j x -> if j = i then [ e; x ] else [ x ]) s

let delete_one i = map_entries (fun j x -> if j = i then [] else [ x ])

(* operand [k] of entry [i] becomes [num]: a dangling odd number or a
   resolving one *)
let set_operand i k num =
  map_entries (fun j ((n, op, operands) as x) ->
      if j <> i || operands = [] then [ x ]
      else
        let k = k mod List.length operands in
        [ (n, op, List.mapi (fun m o -> if m = k then num else o) operands) ])

(* an entry without operands gains a dangling one, and one whose operands
   all dangle loses them: root status flips, the resolved list stays
   empty *)
let flip_root i (s : Snapshot.t) =
  let nums = Array.to_list s.Snapshot.nums in
  map_entries
    (fun j ((n, op, operands) as x) ->
      if j <> i then [ x ]
      else if operands = [] then [ (n, op, [ (2 * n) + 1 ]) ]
      else if List.for_all (fun o -> not (List.mem o nums)) operands then [ (n, op, []) ]
      else [ x ])
    s

let repeat_number i k (s : Snapshot.t) =
  let n = Snapshot.entry_count s in
  if n < 2 then s
  else
    let num = s.Snapshot.nums.(k mod n) in
    map_entries (fun j (m, op, operands) -> [ ((if j = i mod n then num else m), op, operands) ]) s

let trace_gen_with ~repeats =
  let open QCheck.Gen in
  let operand (prev : Snapshot.t) =
    if Snapshot.entry_count prev = 0 then map (fun x -> (2 * x) + 1) (int_range 0 20)
    else
      frequency
        [
          (2, oneofa prev.Snapshot.nums);
          (1, map (fun x -> (2 * x) + 1) (int_range 0 20));
        ]
  in
  let step prev =
    frequency
      [
        (2, return prev);
        (1, map (fun shift -> renumber shift prev) (int_range 1 7));
        (2, map2 (fun i op -> edit_one i op prev) (int_range 0 8) (oneofl [ "a"; "d" ]));
        ( 2,
          map3
            (fun i op operands -> insert_one i op operands prev)
            (int_range 0 9) (oneofl [ "a"; "e"; "phi" ])
            (list_size (int_range 0 3) (operand prev)) );
        (2, map (fun i -> delete_one i prev) (int_range 0 8));
        (2, map3 (fun i k num -> set_operand i k num prev) (int_range 0 8) small_nat (operand prev));
        (2, map (fun i -> flip_root i prev) (int_range 0 8));
        ((if repeats then 1 else 0), map2 (fun i k -> repeat_number i k prev) small_nat small_nat);
        (2, snapshot_gen);
      ]
  in
  let* first = snapshot_gen in
  let* steps = int_range 1 6 in
  let rec grow i prev acc =
    if i > steps then return (List.rev acc)
    else
      let* s = step prev in
      grow (i + 1) s ((Printf.sprintf "p%d" i, s) :: acc)
  in
  grow 1 first [ ("initial", first) ]

(* The brute-force reference looks entries up by number, so it describes
   snapshots whose numbers are unique, as MIR's are; the whole-function
   extractor also covers a repeated number. *)
let trace_gen = trace_gen_with ~repeats:false

let print_trace trace =
  String.concat "" (List.map (fun (p, s) -> p ^ ": " ^ Snapshot.to_string s) trace)

let qcheck_extract_equals_reference =
  QCheck.Test.make ~count:(qcheck_count 300) ~name:"dna extract equals brute-force reference"
    (QCheck.make ~print:print_trace trace_gen)
    (fun trace ->
      List.for_all (fun n -> extracted_dna n trace = reference_dna n trace) [ 2; 3 ])

(* The windowed extractor against both oracles, for n = 2 and 3 under a
   random set of extracted passes: the whole-function extractor it
   replaced, and the brute-force reference with every other pass
   emptied. *)
let whole_function_dna ?only n trace =
  List.map
    (fun (pass, (d : Delta.t)) -> (pass, side_strings d.Delta.removed, side_strings d.Delta.added))
    (Whole_function.extract ~n ?only trace).Dna.deltas

let unique_numbers (s : Snapshot.t) =
  List.length (List.sort_uniq compare (Array.to_list s.Snapshot.nums)) = Snapshot.entry_count s

let windowed_agrees ~only n trace =
  let extracted =
    List.map
      (fun (pass, (d : Delta.t)) ->
        (pass, side_strings d.Delta.removed, side_strings d.Delta.added))
      (Dna.extract ~n ~only trace).Dna.deltas
  in
  extracted = whole_function_dna ~only n trace
  && ((not (List.for_all (fun (_, s) -> unique_numbers s) trace))
     || extracted
        = List.map
            (fun ((pass, _, _) as d) -> if only pass then d else (pass, [], []))
            (reference_dna n trace))

let only_gen =
  QCheck.Gen.(
    map
      (fun keep pass -> pass = "initial" || List.mem pass keep)
      (list_size (int_range 0 6) (map (Printf.sprintf "p%d") (int_range 1 6))))

let qcheck_windowed_equals_oracles =
  QCheck.Test.make ~count:(qcheck_count 300)
    ~name:"windowed extract equals whole-function and reference oracles"
    (QCheck.make
       ~print:(fun (t, _) -> print_trace t)
       QCheck.Gen.(pair (trace_gen_with ~repeats:true) only_gen))
    (fun (trace, only) ->
      List.for_all
        (fun n -> windowed_agrees ~only n trace && windowed_agrees ~only:(fun _ -> true) n trace)
        [ 2; 3 ])

(* The same property with extractions running at once on spawned
   domains, each over its share of the cases: each domain's graphs, marks
   and counts stay its own. *)
let test_windowed_on_helper_domains () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:(qcheck_count 30) ~name:"windowed extract on helper domains"
       (QCheck.make
          ~print:(fun ts -> String.concat "--\n" (List.map (fun (t, _) -> print_trace t) ts))
          QCheck.Gen.(list_size (int_range 4 12) (pair (trace_gen_with ~repeats:true) only_gen)))
       (fun cases ->
         let share d = List.filteri (fun i _ -> i mod test_domains = d) cases in
         List.init test_domains (fun d ->
             Domain.spawn (fun () ->
                 List.for_all
                   (fun (trace, only) ->
                     List.for_all (fun n -> windowed_agrees ~only n trace) [ 2; 3 ])
                   (share d)))
         |> List.map Domain.join
         |> List.for_all Fun.id))

let test_extract_carries_forward () =
  (* a pass that changes nothing leaves the multiset to the next pass:
     trace [A; A; B] gives Δ(A→B) at position 3 *)
  let a = snap [ (1, "x", []); (2, "y", [ 1 ]); (3, "z", [ 2; 1 ]) ] in
  let b = snap [ (1, "x", []); (2, "w", [ 1 ]); (3, "z", [ 2 ]) ] in
  let trace = [ ("initial", a); ("p1", a); ("p2", b) ] in
  List.iter
    (fun n ->
      match extracted_dna n trace with
      | [ ("p1", [], []); ("p2", removed, added) ] ->
        let ab = extracted_dna n [ ("initial", a); ("p2", b) ] in
        check_bool "Δ(A→B) at position 3" true (ab = [ ("p2", removed, added) ]);
        check_bool "matches the reference" true
          (reference_dna n [ ("initial", a); ("p2", b) ] = ab);
        check_bool "non-empty" true (removed <> [] && added <> [])
      | _ -> Alcotest.fail "expected an empty Δ then Δ(A→B)")
    [ 2; 3 ]

(* ---- corpus equality: every VDC and 16 generated programs ---- *)

module Demonstrators = Jitbull_vdc.Demonstrators
module Generator = Jitbull_fuzz.Generator

(* every (trace, DNA) the engine extracts while running [source] *)
let analysed ~vulns source =
  List.map (fun (_, _, _, trace) -> (trace, Dna.extract trace)) (compiles ~vulns source)

(* Per program: name, MD5 of its DNAs' [Dna.to_sexpr] strings joined by
   newlines, and each DNA's verdict against the 8-VDC DB, in compile
   order. Recorded with
   the Hashtbl-based extractor this one replaced. *)
let corpus_golden =
  [
    ( "CVE-2019-17026",
      "4125a7e23306d7b3b5e6fe2517e2863e",
      [ "disable:applytypes,gvn,foldconstants" ] );
    ( "CVE-2019-9810",
      "60c3cf6124e9f568c5a03b7ad57a442c",
      [ "disable:applytypes,gvn,foldconstants" ] );
    ( "CVE-2019-9791",
      "d11204e0eff0b3485ed73e7b2946df1c",
      [ "disable:eliminatephis,applytypes,dce" ] );
    ( "CVE-2019-11707",
      "c496bc7a8e754a7f058e010cc1ad8523",
      [ "disable:eliminatephis,applytypes,boundscheckelim,dce" ] );
    ( "CVE-2019-9792",
      "2728ae72138df9b90587db1c944ef0b0",
      [ "disable:eliminatephis,applytypes,dce" ] );
    ( "CVE-2019-9795",
      "1d8e2b1b568157510b526e4bb8632bd1",
      [ "disable:foldconstants,dce" ] );
    ( "CVE-2019-9813",
      "9f9de2ce885b5d5c51f24535a8e9f0f9",
      [ "disable:dce" ] );
    ( "CVE-2020-26952",
      "1d89c76e3ed0dfd043352260435d959a",
      [ "disable:foldconstants,sink"; "disable:eliminatephis,applytypes,gvn,dce" ] );
    ( "benign00",
      "c3af8af2023092c69bdd5012fa575b2b",
      [
        "disable:applytypes,gvn,dce"; "disable:applytypes,gvn,dce"; "disable:applytypes,gvn,dce";
        "disable:applytypes,dce"; "disable:eliminatephis,applytypes,dce";
        "disable:eliminatephis,applytypes,dce"; "disable:eliminatephis,applytypes,gvn,dce";
        "disable:applytypes,dce";
      ] );
    ( "benign01",
      "d60ba07170cba08f03dd3b6e5ee85bfc",
      [
        "disable:applytypes,gvn,dce"; "disable:applytypes,gvn,dce";
        "disable:eliminatephis,applytypes,dce"; "disable:eliminatephis,applytypes,gvn,dce";
        "disable:applytypes,dce"; "disable:applytypes,gvn,dce"; "disable:applytypes,gvn,dce";
        "disable:eliminatephis,applytypes,dce";
      ] );
    ( "benign02",
      "63f4654cc44463f50f23c0de8c941070",
      [
        "disable:eliminatephis,applytypes,dce"; "disable:eliminatephis,applytypes,gvn,dce";
        "disable:applytypes,dce"; "disable:applytypes,dce";
        "disable:eliminatephis,applytypes,gvn,dce"; "disable:applytypes,gvn,dce";
        "disable:applytypes,gvn,dce"; "disable:applytypes,dce";
      ] );
    ( "benign03",
      "beed6682822bdd22f425af93a63c4162",
      [
        "disable:applytypes,gvn,dce"; "disable:eliminatephis,applytypes,dce";
        "disable:applytypes,dce"; "disable:applytypes,dce"; "disable:applytypes,dce";
        "disable:applytypes,gvn,dce"; "disable:eliminatephis,applytypes,dce";
        "disable:eliminatephis,applytypes,dce";
      ] );
    ( "benign04",
      "8fa00489c4373281306a05ca208a2d82",
      [
        "disable:applytypes,dce"; "disable:applytypes,gvn,dce"; "disable:applytypes,dce";
        "disable:eliminatephis,applytypes,dce"; "disable:eliminatephis,applytypes,gvn,dce";
        "disable:applytypes,gvn,dce"; "disable:eliminatephis,applytypes,dce";
        "disable:applytypes,gvn,dce";
      ] );
    ( "benign05",
      "62e6391b22d217e11fd7f01b120994e8",
      [
        "disable:eliminatephis,applytypes,gvn,dce"; "disable:applytypes,gvn,dce";
        "disable:applytypes,gvn,dce"; "disable:applytypes,gvn,dce"; "disable:applytypes,gvn,dce";
        "disable:applytypes,dce"; "disable:eliminatephis,applytypes,gvn,dce";
        "disable:applytypes,gvn,dce";
      ] );
    ( "benign06",
      "9d4a4a0a1764fc2d7ae876abc291b032",
      [
        "disable:eliminatephis,applytypes,gvn,dce"; "disable:applytypes,dce";
        "disable:eliminatephis,applytypes,dce"; "disable:applytypes,gvn,dce";
        "disable:applytypes,dce"; "disable:eliminatephis,applytypes,dce";
        "disable:eliminatephis,applytypes,dce"; "disable:eliminatephis,applytypes,gvn,dce";
      ] );
    ( "benign07",
      "3c6f5e2662a57f8630182bfdab5689fa",
      [
        "disable:applytypes,gvn,dce"; "disable:eliminatephis,applytypes,dce";
        "disable:applytypes,dce"; "disable:applytypes,dce"; "disable:eliminatephis,applytypes,dce";
        "disable:applytypes,gvn,dce"; "disable:applytypes,dce"; "disable:applytypes,gvn,dce";
      ] );
    ( "benign08",
      "7d30f1f1cfede0d20a10338f09e0d33b",
      [
        "disable:applytypes,dce"; "disable:eliminatephis,applytypes,dce";
        "disable:eliminatephis,applytypes,gvn,dce"; "disable:eliminatephis,applytypes,dce";
        "disable:eliminatephis,applytypes,gvn,dce"; "disable:applytypes,dce";
        "disable:eliminatephis,applytypes,gvn,dce"; "disable:applytypes,gvn,dce";
      ] );
    ( "benign09",
      "456d0688460d62df2d38e6b2575a8757",
      [
        "disable:applytypes,gvn,dce"; "disable:applytypes,dce";
        "disable:eliminatephis,applytypes,dce"; "disable:applytypes,dce";
        "disable:eliminatephis,applytypes,gvn,dce"; "disable:eliminatephis,applytypes,gvn,dce";
        "disable:applytypes,gvn,dce"; "disable:applytypes,dce";
      ] );
    ( "benign10",
      "5a6d3cdbd3707773bf4c45207ec2bf3e",
      [
        "disable:applytypes,dce"; "disable:eliminatephis,applytypes,gvn,dce";
        "disable:applytypes,gvn,dce"; "disable:applytypes,dce"; "disable:applytypes,dce";
        "disable:applytypes,dce"; "disable:applytypes,gvn,dce"; "disable:applytypes,gvn,dce";
      ] );
    ( "benign11",
      "58ca57389ee6d1499e783247841cb626",
      [
        "disable:applytypes,gvn,dce"; "disable:applytypes,dce"; "disable:applytypes,dce";
        "disable:eliminatephis,applytypes,gvn,dce"; "disable:applytypes,gvn,dce";
        "disable:applytypes,gvn,dce"; "disable:eliminatephis,applytypes,gvn,dce";
        "disable:applytypes,dce";
      ] );
    ( "benign12",
      "6b869ed1c843aaea6e7510b7462a6004",
      [
        "disable:applytypes,dce"; "disable:applytypes,gvn,dce"; "disable:applytypes,dce";
        "disable:applytypes,gvn,dce"; "disable:applytypes,gvn,dce"; "disable:applytypes,gvn,dce";
        "disable:eliminatephis,applytypes,dce"; "disable:eliminatephis,applytypes,gvn,dce";
      ] );
    ( "benign13",
      "c7eca6732e25e84228379212536f58b7",
      [
        "disable:applytypes,gvn,dce"; "disable:applytypes,gvn,dce"; "disable:applytypes,gvn,dce";
        "disable:applytypes,gvn,dce"; "disable:eliminatephis,applytypes,dce";
        "disable:applytypes,dce"; "disable:applytypes,gvn,dce";
        "disable:eliminatephis,applytypes,dce";
      ] );
    ( "benign14",
      "c20c6e7f09ba5832a54c8c77cf7a3041",
      [
        "disable:applytypes,gvn,dce"; "disable:eliminatephis,applytypes,dce";
        "disable:applytypes,dce"; "disable:eliminatephis,applytypes,dce";
        "disable:applytypes,gvn,dce"; "disable:applytypes,gvn,dce"; "disable:applytypes,dce";
        "disable:eliminatephis,applytypes,gvn,dce";
      ] );
    ( "benign15",
      "eaac23483db9b0b5d80634efa9dc5868",
      [
        "disable:applytypes,dce"; "disable:applytypes,dce"; "disable:applytypes,dce";
        "disable:eliminatephis,applytypes,dce"; "disable:applytypes,gvn,dce";
        "disable:applytypes,dce"; "disable:applytypes,gvn,dce"; "disable:applytypes,gvn,dce";
      ] );
  ]

let verdict_string db dna =
  match snd (Jitbull.verdict_of_matches (Db.matching db dna)) with
  | `Allow -> "allow"
  | `Disable ps -> "disable:" ^ String.concat "," ps
  | `Forbid -> "forbid"

(* the programs [corpus_golden] describes: (name, engine bugs, source) *)
let corpus () =
  List.map
    (fun (d : Demonstrators.t) ->
      (d.Demonstrators.name, VC.make [ d.Demonstrators.cve ], d.Demonstrators.source))
    Demonstrators.all
  @ List.init 16 (fun i ->
        ( Printf.sprintf "benign%02d" i,
          VC.none,
          Generator.benign_params
            { Generator.p_seed = i; p_funcs = 8; p_rounds = 40; p_depth = 2 } ))

let test_corpus_dna_unchanged () =
  let db = Db.create () in
  List.iter
    (fun (d : Demonstrators.t) ->
      ignore
        (Db.harvest db ~cve:d.Demonstrators.name ~vulns:(VC.make [ d.Demonstrators.cve ])
           d.Demonstrators.source))
    Demonstrators.all;
  let corpus = corpus () in
  check_int "corpus size" (List.length corpus_golden) (List.length corpus);
  List.iter2
    (fun (name, vulns, source) (name', digest, verdicts) ->
      check_string "corpus order" name' name;
      let runs = analysed ~vulns source in
      let dnas = List.map snd runs in
      check_string (name ^ " DNA digest") digest
        (Digest.to_hex
           (Digest.string
              (String.concat "\n"
                 (List.map (fun d -> Format.asprintf "%a" Sexpr.pp (Dna.to_sexpr d)) dnas))));
      check_bool (name ^ " verdicts") true (verdicts = List.map (verdict_string db) dnas);
      List.iter
        (fun (trace, _) ->
          check_bool (name ^ " equals the reference") true
            (extracted_dna 3 trace = reference_dna 3 trace))
        runs)
    corpus corpus_golden

(* Every Ion compile of every VDC and its four variants (on the VDC's own
   bug), the distilled corpus, the Octane analogues and compile_storm's
   seed-1 programs (on all eight bugs): the windowed DNA prints as the
   whole-function extractor's, in full and posting-aware over the 8-VDC
   DB. *)
let test_windowed_equals_whole_function_on_programs () =
  let module Variants = Jitbull_vdc.Variants in
  let module W = Jitbull_workloads.Workloads in
  let db = Db.create () in
  ignore (Demonstrators.harvest db VC.all);
  let _, posted = Db.posted db in
  let bugs = VC.make VC.all in
  let dir =
    match List.find_opt Sys.file_exists [ "../corpus/distilled"; "corpus/distilled" ] with
    | Some dir -> dir
    | None -> Alcotest.fail "corpus/distilled not found"
  in
  let programs =
    List.concat_map
      (fun (d : Demonstrators.t) ->
        let vulns = VC.make [ d.Demonstrators.cve ] in
        (d.Demonstrators.name, vulns, d.Demonstrators.source)
        :: List.map
             (fun k ->
               ( d.Demonstrators.name ^ " " ^ Variants.kind_name k,
                 vulns,
                 Variants.apply k d.Demonstrators.source ))
             Variants.all_kinds)
      Demonstrators.all
    @ List.filter_map
        (fun f ->
          if Filename.check_suffix f ".js" then
            Some
              (f, bugs, In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all)
          else None)
        (List.sort compare (Array.to_list (Sys.readdir dir)))
    @ List.map (fun (w : W.t) -> (w.W.name, bugs, w.W.source)) W.everything
    @ List.init 64 (fun i ->
          ( Printf.sprintf "storm%02d" i,
            bugs,
            Generator.benign_params
              { Generator.p_seed = 1_000_003 + i; p_funcs = 8; p_rounds = 40; p_depth = 2 } ))
  in
  let printed d = Sexpr.to_string (Dna.to_sexpr d) in
  let traced = ref 0 in
  List.iter
    (fun (name, vulns, source) ->
      List.iter
        (fun (_, _, _, trace) ->
          incr traced;
          List.iter
            (fun only ->
              check_string name
                (printed (Whole_function.extract ?only trace))
                (printed (Dna.extract ?only trace)))
            [ None; Some posted ])
        (compiles ~vulns source))
    programs;
  check_bool "programs traced" true (!traced > 600)

(* The snapshot the extractor reads is the MIR itself: for every
   function of every corpus program, built on its VM feedback with the
   program's engine bugs, [Snapshot.take] before the first pass and
   after each pass equals the graph's instruction list. *)
let test_corpus_snapshots_match_mir () =
  let module Builder = Jitbull_mir.Builder in
  let module Pass = Jitbull_passes.Pass in
  let module Pipeline = Jitbull_passes.Pipeline in
  let module Value = Jitbull_runtime.Value in
  let states = ref 0 in
  List.iter
    (fun (name, vulns, source) ->
      let bc = Compiler.compile (Parser.parse source) in
      let vm = Vm.create bc in
      (try ignore (Vm.run vm) with _ -> ());
      let funcs = bc.Jitbull_bytecode.Op.funcs in
      let build idx = Builder.build funcs.(idx) ~feedback_row:vm.Vm.feedback.(idx) in
      Array.iteri
        (fun idx _ ->
          let inline_resolver callee =
            match Hashtbl.find_opt vm.Vm.globals callee with
            | Some (Value.Function c) when c <> idx -> Some (build c)
            | _ -> None
          in
          let g = build idx in
          let ctx = Pass.make_ctx ~inline_resolver vulns in
          let check after =
            incr states;
            check_bool
              (Printf.sprintf "%s f%d after %s" name idx after)
              true
              (snapshot_matches_mir g (Snapshot.take g))
          in
          check "initial";
          List.iter
            (fun (p : Pass.t) ->
              p.Pass.run ctx g;
              check p.Pass.name)
            Pipeline.passes)
        funcs)
    (corpus ());
  check_bool "every program checked" true (!states >= 19 * List.length (corpus ()))

let suite =
  ( "jitbull-core",
    [
      Alcotest.test_case "buildgraph roots" `Quick test_buildgraph_roots;
      Alcotest.test_case "buildgraph excludes orphans" `Quick test_buildgraph_operandless_excluded;
      Alcotest.test_case "delta: paper worked example" `Quick test_delta_paper_example;
      Alcotest.test_case "delta empty on identical" `Quick test_delta_empty_on_identical;
      Alcotest.test_case "delta multiplicity" `Quick test_delta_multiplicity;
      Alcotest.test_case "delta rejects n outside 2..3" `Quick test_delta_rejects_other_n;
      Alcotest.test_case "delta sexpr roundtrip" `Quick test_delta_sexpr_roundtrip;
      qtest qcheck_key_codec_round_trip;
      Alcotest.test_case "delta key codec: DB keys, canonical order" `Quick
        test_key_codec_db_and_canonical;
      Alcotest.test_case "comparator threshold" `Quick test_comparator_threshold;
      Alcotest.test_case "comparator ratio" `Quick test_comparator_ratio;
      Alcotest.test_case "comparator min multiplicity" `Quick test_comparator_min_multiplicity;
      Alcotest.test_case "similar either side" `Quick test_similar_either_side;
      Alcotest.test_case "matching passes" `Quick test_matching_passes;
      Alcotest.test_case "dna from trace" `Quick test_dna_from_trace;
      Alcotest.test_case "dna rename-insensitive" `Quick test_dna_insensitive_to_renaming;
      Alcotest.test_case "dna sexpr roundtrip" `Quick test_dna_sexpr_roundtrip;
      qtest qcheck_extract_equals_reference;
      qtest qcheck_windowed_equals_oracles;
      Alcotest.test_case "windowed extract on helper domains" `Quick
        test_windowed_on_helper_domains;
      Alcotest.test_case "windowed == whole-function on the programs" `Quick
        test_windowed_equals_whole_function_on_programs;
      Alcotest.test_case "dna extract carries an unchanged pass forward" `Quick
        test_extract_carries_forward;
      Alcotest.test_case "dna and verdicts unchanged on the corpus" `Quick
        test_corpus_dna_unchanged;
      Alcotest.test_case "corpus snapshots match the MIR" `Quick test_corpus_snapshots_match_mir;
      Alcotest.test_case "db lifecycle" `Quick test_db_lifecycle;
      Alcotest.test_case "db save/load" `Quick test_db_save_load;
      Alcotest.test_case "db re-harvest adds nothing" `Quick test_db_reharvest_idempotent;
      Alcotest.test_case "empty db: no analyzer" `Quick test_empty_db_no_analyzer;
      Alcotest.test_case "decision records" `Quick test_decision_records;
      Alcotest.test_case "forbid on mandatory pass" `Quick test_forbid_on_mandatory_pass;
      Alcotest.test_case "detects independent implementation" `Quick test_detection_flags_dangerous_pass;
      Alcotest.test_case "cold script harvests nothing" `Quick test_harvest_cold_script_empty;
      Alcotest.test_case "engine forbid end-to-end" `Quick test_engine_forbid_end_to_end;
      Alcotest.test_case "custom params plumbing" `Quick test_custom_params_flow_through;
      Alcotest.test_case "decision records per function" `Quick
        test_decision_records_per_function;
    ] )
