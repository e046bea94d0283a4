(* Tests for the later-added optimizations: inlining, instruction
   simplification, and the LIR peephole. *)

open Helpers
module Mir = Jitbull_mir.Mir
module VC = Jitbull_passes.Vuln_config
module Pipeline = Jitbull_passes.Pipeline
module Engine = Jitbull_jit.Engine
module Lir = Jitbull_lir.Lir
module Lower = Jitbull_lir.Lower
module Regalloc = Jitbull_lir.Regalloc
module Peephole = Jitbull_lir.Peephole
module Parser = Jitbull_frontend.Parser
module Compiler = Jitbull_bytecode.Compiler
module Op = Jitbull_bytecode.Op

(* Build + optimize function [func] with an inline resolver over all other
   functions of the program. *)
let optimized_with_inlining ~func:idx src =
  let bc = Compiler.compile (Parser.parse src) in
  let vm = Vm.create bc in
  (try ignore (Vm.run vm) with _ -> ());
  let build i = Jitbull_mir.Builder.build bc.Op.funcs.(i) ~feedback_row:vm.Vm.feedback.(i) in
  let resolver name =
    let rec find i =
      if i >= Array.length bc.Op.funcs then None
      else if String.equal bc.Op.funcs.(i).Op.name name && i <> idx then Some (build i)
      else find (i + 1)
    in
    find 0
  in
  let g = build idx in
  ignore (Pipeline.run VC.none ~inline_resolver:resolver ~verify:true g);
  g

let inline_src =
  {|
function double(x) { return x * 2; }
function addmul(a, b) { return double(a) + double(b); }
var s = 0;
for (var k = 0; k < 30; k++) { s = addmul(k, 3); }
print(s);
|}

let test_inline_removes_calls () =
  let g = optimized_with_inlining ~func:1 inline_src in
  check_int "both calls inlined" 0 (count_opcode g "call");
  check_bool "callee body present" true (count_opcode g "mul" >= 2)

let test_inline_preserves_semantics () =
  assert_tiers_agree ~name:"inline semantics" inline_src;
  assert_tiers_agree ~name:"inline with branches"
    {|
function absish(x) { if (x < 0) { return 0 - x; } return x; }
function f(a) { return absish(a) + absish(0 - a); }
var s = 0;
for (var k = 0; k < 30; k++) { s = f(k - 15); }
print(s);
|};
  assert_tiers_agree ~name:"inline missing args"
    {|
function pick(a, b) { if (typeof b == 'undefined') { return a; } return b; }
function f(x) { return pick(x) + pick(x, 5); }
var s = 0;
for (var k = 0; k < 30; k++) { s = f(k); }
print(s);
|}

let test_inline_respects_reassignment () =
  (* f is rebound at runtime: inlining its static body would be wrong *)
  let src =
    {|
function orig(x) { return x + 1; }
function evil(x) { return x - 1; }
function caller(x) { return target(x); }
var target = orig;
var s = 0;
for (var k = 0; k < 40; k++) { s = caller(k); }
target = evil;
s = caller(100);
print(s);
|}
  in
  assert_tiers_agree ~name:"rebinding" src;
  check_string "rebound call uses new target" "99\n" (jit_output src)

let test_inline_skips_recursion () =
  assert_tiers_agree ~name:"recursion not inlined"
    {|
function fact(n) { if (n <= 1) { return 1; } return n * fact(n - 1); }
var s = 0;
for (var k = 0; k < 30; k++) { s = fact(6); }
print(s);
|}

let test_inline_skips_large_callees () =
  let src =
    {|
function big(x) {
  var t = x;
  for (var i = 0; i < 3; i++) { t = t * 2 + 1; t = t - (t >> 2); t = (t ^ 3) + (t & 7); t = t % 1009; t = t + i * 5; }
  return t;
}
function caller(a) { return big(a) + 1; }
var s = 0;
for (var k = 0; k < 30; k++) { s = caller(k); }
print(s);
|}
  in
  let g = optimized_with_inlining ~func:1 src in
  check_int "large callee kept as call" 1 (count_opcode g "call");
  assert_tiers_agree ~name:"large callee" src

(* ---- simplify ---- *)

let test_simplify_identities () =
  let g, _ =
    optimized_mir ~disabled:[ "foldconstants" ] ~func:0
      "function f(a, b) { return (a * 1) + (b - 0) + (a / 1); } for (var k = 0; k < 5; k++) f(k, 2);"
  in
  check_int "mul-by-1 gone" 0 (count_opcode g "mul");
  check_int "sub-0 gone" 0 (count_opcode g "sub");
  check_int "div-by-1 gone" 0 (count_opcode g "div")

let test_simplify_preserves_nan_and_strings () =
  assert_tiers_agree ~name:"NaN * 1"
    "function f(x) { return x * 1; } print(f(0/0)); print(f(0/0)); print(f(0/0)); print(f(0/0)); print(f(0/0));";
  (* '+ 0' on a string must NOT be simplified: 's' + 0 = 's0' *)
  assert_tiers_agree ~name:"string + 0"
    "function f(x) { return x + 0; } print(f('s')); print(f('s')); print(f('s')); print(f('s')); print(f('s'));"

let test_simplify_branch_inversion () =
  let g, _ =
    optimized_mir ~func:0
      "function f(a, b) { if (!(a < b)) { return 1; } return 2; } for (var k = 0; k < 6; k++) { f(k, 3); f(3, k); }"
  in
  check_int "not folded into branch" 0 (count_opcode g "not");
  assert_tiers_agree ~name:"inverted branch"
    "function f(a, b) { if (!(a < b)) { return 1; } return 2; } for (var k = 0; k < 6; k++) { print(f(k, 3)); }"

(* ---- LIR peephole ---- *)

let lowered src =
  let g, _ = optimized_mir ~func:0 src in
  let lir = Lower.lower g in
  Regalloc.allocate lir;
  lir

let test_peephole_removes_noop_moves () =
  (* a loop-carried swap generates phi moves; after allocation some become
     dst = src *)
  let lir =
    lowered
      "function f(n) { var t = 0; for (var i = 0; i < n; i++) { t = t + i; } return t; } for (var k = 0; k < 6; k++) f(5);"
  in
  let before = Array.length lir.Lir.code in
  let removed = Peephole.run lir in
  check_int "length shrank by removed" (before - removed) (Array.length lir.Lir.code);
  (* no no-op move survives *)
  Array.iter
    (fun (i : Lir.inst) ->
      if i.Lir.kind = Lir.Kmove then check_bool "no noop move" false (i.Lir.dst = i.Lir.a))
    lir.Lir.code

let test_peephole_removes_goto_next () =
  let lir =
    lowered
      "function f(c) { var x = 0; if (c) { x = 1; } else { x = 2; } return x; } for (var k = 0; k < 6; k++) { f(1); f(0); }"
  in
  ignore (Peephole.run lir);
  Array.iteri
    (fun pc (i : Lir.inst) ->
      if i.Lir.kind = Lir.Kgoto then check_bool "no goto-to-next" false (i.Lir.imm = pc + 1))
    lir.Lir.code

let test_peephole_preserves_semantics () =
  (* engine runs peephole internally; diverse control flow must agree *)
  List.iter
    (fun src -> assert_tiers_agree ~name:"peephole semantics" src)
    [
      "function f(n) { var a = 1; var b = 2; for (var i = 0; i < n; i++) { var t = a; a = b; b = t; } return a * 10 + b; } for (var k = 0; k < 8; k++) print(f(k));";
      "function g(c, d) { if (c) { if (d) { return 3; } return 2; } return 1; } for (var k = 0; k < 8; k++) { print(g(k % 2, k % 3)); }";
    ]

let test_engine_reports_peephole () =
  let config = { Engine.default_config with Engine.baseline_threshold = 2; ion_threshold = 4 } in
  let _, t =
    Engine.run_source config
      "function f(n) { var t = 0; for (var i = 0; i < n; i++) { t += i; } return t; } for (var k = 0; k < 10; k++) f(6);"
  in
  check_bool "peephole counted" true ((Engine.stats t).Engine.peephole_removed >= 0)

(* A Forbid verdict installs no Ion code, so its compile must add no
   peephole removals: the count is that of the same program with Ion out
   of reach, i.e. the baseline tier's alone. The program's own DNA under
   Thr = 0 (the exhaustive scan, where key-disjoint sides match) flags
   the mandatory renumber pass, which forbids JIT for its one Ion
   tier-up. *)
let forbid_src =
  "function f(n) { var s = 0; for (var i = 0; i < n; i++) { if (i % 3) { s = s + i; } } return s; } \
   var t = 0; for (var k = 0; k < 40; k++) { t = t + f(k); } print(t);"

let test_forbid_counts_no_ion_peephole () =
  let no_ion_out, no_ion =
    let out, t =
      Engine.run_source { Engine.default_config with Engine.ion_threshold = 1000 } forbid_src
    in
    check_int "Ion out of reach" 0 (Engine.stats t).Engine.ion_compiles;
    (out, Engine.stats t)
  in
  check_bool "the baseline tier's peephole removes something" true
    (no_ion.Engine.peephole_removed > 0);
  let config =
    {
      Engine.default_config with
      Engine.analyzer = Some (fun ~ctx:_ ~func_index:_ ~name:_ ~trace:_ -> Engine.Forbid_jit);
    }
  in
  let out, t = Engine.run_source config forbid_src in
  let s = Engine.stats t in
  check_int "one Ion tier-up" 1 s.Engine.ion_compiles;
  check_int "forbidden" 1 s.Engine.nr_nojit;
  check_string "output" no_ion_out out;
  check_int "baseline removals only" no_ion.Engine.peephole_removed s.Engine.peephole_removed

let suite =
  ( "optim-ext",
    [
      Alcotest.test_case "inline removes calls" `Quick test_inline_removes_calls;
      Alcotest.test_case "inline semantics" `Quick test_inline_preserves_semantics;
      Alcotest.test_case "inline respects rebinding" `Quick test_inline_respects_reassignment;
      Alcotest.test_case "inline skips recursion" `Quick test_inline_skips_recursion;
      Alcotest.test_case "inline skips large callees" `Quick test_inline_skips_large_callees;
      Alcotest.test_case "simplify identities" `Quick test_simplify_identities;
      Alcotest.test_case "simplify NaN/strings" `Quick test_simplify_preserves_nan_and_strings;
      Alcotest.test_case "simplify branch inversion" `Quick test_simplify_branch_inversion;
      Alcotest.test_case "peephole noop moves" `Quick test_peephole_removes_noop_moves;
      Alcotest.test_case "peephole goto-next" `Quick test_peephole_removes_goto_next;
      Alcotest.test_case "peephole semantics" `Quick test_peephole_preserves_semantics;
      Alcotest.test_case "engine peephole stats" `Quick test_engine_reports_peephole;
      Alcotest.test_case "forbid counts no Ion peephole" `Quick
        test_forbid_counts_no_ion_peephole;
    ] )
