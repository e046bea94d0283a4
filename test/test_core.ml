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
let snap entries =
  {
    Snapshot.func_name = "test";
    n_blocks = 1;
    entries =
      List.map
        (fun (num, opcode, operands) -> { Snapshot.num; opcode; operands })
        entries;
  }

(* Δ between two dependency graphs *)
let compute ?(n = 3) before after =
  Delta.of_multisets ~before:(Delta.multiset ~n before) ~after:(Delta.multiset ~n after)

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
  check_int "roots" 1 (List.length (Depgraph.roots g));
  check_string "root opcode" "loadelement" (Depgraph.opcode g (List.hd (Depgraph.roots g)));
  check_int "edges" 3 (Depgraph.edge_count g)

let test_buildgraph_operandless_excluded () =
  (* an instruction with no operands that nothing uses is not in G *)
  let g = Depgraph.build (snap [ (1, "constant", []); (2, "parameter", []) ]) in
  check_int "empty graph" 0 (Depgraph.node_count g)

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
  check_bool "A->B removed" true (Delta.mem_key d.Delta.removed "a->b");
  check_bool "C->D removed" true (Delta.mem_key d.Delta.removed "c->d");
  check_bool "C->E added" true (Delta.mem_key d.Delta.added "c->e")

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
   on a trace whose snapshots would never build a multiset. *)
let test_delta_rejects_other_n () =
  let g = Depgraph.build (snap [ (1, "x", []); (2, "y", [ 1 ]) ]) in
  let trace = [ ("start", snap [ (1, "x", []) ]) ] in
  List.iter
    (fun n ->
      check_bool (Printf.sprintf "multiset n=%d" n) true
        (match Delta.multiset ~n g with _ -> false | exception Invalid_argument _ -> true);
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
      ~ctx:{ Engine.cc_bytecode_hash = 0; cc_feedback_hash = 0 }
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
  let by_num = Hashtbl.create 16 in
  List.iter
    (fun (e : Snapshot.entry) -> Hashtbl.replace by_num e.Snapshot.num e)
    s.Snapshot.entries;
  let edges =
    List.concat_map
      (fun (u : Snapshot.entry) ->
        List.filter_map (fun o -> Option.map (fun d -> (u, d)) (Hashtbl.find_opt by_num o))
          u.Snapshot.operands)
      s.Snapshot.entries
  in
  let op (e : Snapshot.entry) = e.Snapshot.opcode in
  let keys =
    if n = 2 then List.map (fun (u, d) -> op u ^ "->" ^ op d) edges
    else begin
      let deps_of = Hashtbl.create 16 and used = Hashtbl.create 16 in
      List.iter
        (fun ((u : Snapshot.entry), (d : Snapshot.entry)) ->
          Hashtbl.add deps_of u.Snapshot.num d;
          Hashtbl.replace used d.Snapshot.num ())
        edges;
      List.concat_map
        (fun (u, (m : Snapshot.entry)) ->
          List.map
            (fun d -> op u ^ "->" ^ op m ^ "->" ^ op d)
            (Hashtbl.find_all deps_of m.Snapshot.num))
        edges
      @ List.filter_map
          (fun ((r : Snapshot.entry), d) ->
            if Hashtbl.mem used r.Snapshot.num then None else Some ("^" ^ op r ^ "->" ^ op d))
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
  Hashtbl.fold (fun k c acc -> (Jitbull_util.Intern.to_string k, c) :: acc) side []
  |> List.sort compare

let extracted_dna n trace =
  List.map
    (fun (pass, (d : Delta.t)) -> (pass, side_strings d.Delta.removed, side_strings d.Delta.added))
    (Dna.extract ~n trace).Dna.deltas

(* Random snapshot traces. Numbers are even, so odd operand numbers
   dangle; operands are drawn from every number in the snapshot, so they
   include forward references (as phis make), self-operands and repeats;
   an empty operand list is common. Each later snapshot repeats the last
   one, renumbers it, edits one entry or is drawn afresh. *)
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
  {
    s with
    Snapshot.entries =
      List.map
        (fun (e : Snapshot.entry) ->
          { e with Snapshot.num = re e.Snapshot.num; operands = List.map re e.Snapshot.operands })
        s.Snapshot.entries;
  }

let edit_one i opcode (s : Snapshot.t) =
  {
    s with
    Snapshot.entries =
      List.mapi
        (fun j (e : Snapshot.entry) -> if j = i then { e with Snapshot.opcode } else e)
        s.Snapshot.entries;
  }

let trace_gen =
  let open QCheck.Gen in
  let step prev =
    frequency
      [
        (2, return prev);
        (1, map (fun shift -> renumber shift prev) (int_range 1 7));
        (2, map2 (fun i op -> edit_one i op prev) (int_range 0 8) (oneofl [ "a"; "d" ]));
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

let print_trace trace =
  String.concat "" (List.map (fun (p, s) -> p ^ ": " ^ Snapshot.to_string s) trace)

let qcheck_extract_equals_reference =
  QCheck.Test.make ~count:(qcheck_count 300) ~name:"dna extract equals brute-force reference"
    (QCheck.make ~print:print_trace trace_gen)
    (fun trace ->
      List.for_all (fun n -> extracted_dna n trace = reference_dna n trace) [ 2; 3 ])

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

let test_corpus_dna_unchanged () =
  let db = Db.create () in
  List.iter
    (fun (d : Demonstrators.t) ->
      ignore
        (Db.harvest db ~cve:d.Demonstrators.name ~vulns:(VC.make [ d.Demonstrators.cve ])
           d.Demonstrators.source))
    Demonstrators.all;
  let corpus =
    List.map
      (fun (d : Demonstrators.t) ->
        (d.Demonstrators.name, VC.make [ d.Demonstrators.cve ], d.Demonstrators.source))
      Demonstrators.all
    @ List.init 16 (fun i ->
          ( Printf.sprintf "benign%02d" i,
            VC.none,
            Generator.benign_params
              { Generator.p_seed = i; p_funcs = 8; p_rounds = 40; p_depth = 2 } ))
  in
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
      Alcotest.test_case "comparator threshold" `Quick test_comparator_threshold;
      Alcotest.test_case "comparator ratio" `Quick test_comparator_ratio;
      Alcotest.test_case "comparator min multiplicity" `Quick test_comparator_min_multiplicity;
      Alcotest.test_case "similar either side" `Quick test_similar_either_side;
      Alcotest.test_case "matching passes" `Quick test_matching_passes;
      Alcotest.test_case "dna from trace" `Quick test_dna_from_trace;
      Alcotest.test_case "dna rename-insensitive" `Quick test_dna_insensitive_to_renaming;
      Alcotest.test_case "dna sexpr roundtrip" `Quick test_dna_sexpr_roundtrip;
      qtest qcheck_extract_equals_reference;
      Alcotest.test_case "dna extract carries an unchanged pass forward" `Quick
        test_extract_carries_forward;
      Alcotest.test_case "dna and verdicts unchanged on the corpus" `Quick
        test_corpus_dna_unchanged;
      Alcotest.test_case "db lifecycle" `Quick test_db_lifecycle;
      Alcotest.test_case "db save/load" `Quick test_db_save_load;
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
