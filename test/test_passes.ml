(* Tests for the optimization passes: per-pass transformations, semantic
   preservation, and the injected CVE bugs firing only when activated. *)

open Helpers
module Mir = Jitbull_mir.Mir
module VC = Jitbull_passes.Vuln_config
module Pipeline = Jitbull_passes.Pipeline

let src_redundant_length =
  (* two same-index stores around a shrink: the second check must survive
     correct GVN and disappear under the 17026 bug *)
  {|
function f(a, v) {
  a[1] = v;
  a.length = 1;
  a[1] = v;
  return 0;
}
var x = [1,2,3,4];
for (var k = 0; k < 5; k++) { f([1,2,3,4], k); }
|}

let test_gvn_correct_keeps_check () =
  let g, _ = optimized_mir ~func:0 src_redundant_length in
  check_int "both checks survive" 2 (count_opcode g "boundscheck")

let test_gvn_vulnerable_removes_check () =
  let g, _ = optimized_mir ~vulns:(VC.make [ VC.CVE_2019_17026 ]) ~func:0 src_redundant_length in
  check_int "one check eliminated" 1 (count_opcode g "boundscheck")

let test_gvn_dedups_pure () =
  let g, _ =
    optimized_mir ~func:0
      {|
function f(a, b) { return (a + b) * (a + b); }
for (var k = 0; k < 5; k++) { f(k, 2); }
|}
  in
  check_int "common subexpression merged" 1 (count_opcode g "add")

(* GVN keys a number constant on its exact bits: two constants with one
   12-digit display stay apart, so the JIT computes what the interpreter
   does; 0 and -0 stay apart in the MIR too *)
let test_gvn_keeps_close_constants_apart () =
  let src =
    "function f(x) { var a = x * 0.1; var b = x * 0.1000000000001; return b - a; } \
     var r = 0; for (var i = 0; i < 3000; i++) { r = f(3); } print(r);"
  in
  check_string "jit == interp" (interp_output src) (jit_output src);
  let muls src = count_opcode (fst (optimized_mir ~func:0 src)) "mul" in
  check_int "both products survive" 2
    (muls
       "function f(x) { var a = x * 0.1; var b = x * 0.1000000000001; return b - a; } \
        for (var k = 0; k < 5; k++) { f(k); }");
  check_int "x * 0 and x * -0 both survive" 2
    (muls "function g(x) { return 1 / (x * 0) + 1 / (x * -0); } for (var k = 0; k < 5; k++) { g(k); }")

let test_gvn_no_dedup_across_store () =
  (* sink would legally forward the store here; disable it to observe GVN
     in isolation *)
  let g, _ =
    optimized_mir ~disabled:[ "sink" ] ~func:0
      {|
function f(a) { var x = a[0]; a[0] = x + 1; return x + a[0]; }
for (var k = 0; k < 5; k++) { f([1,2]); }
|}
  in
  (* the load after the store must not merge with the one before *)
  check_int "loads distinct" 2 (count_opcode g "loadelement")

let src_loop_invariant =
  {|
function f(a, n) {
  var t = 0;
  for (var i = 0; i < n; i++) { t = t + a[0]; }
  return t;
}
for (var k = 0; k < 5; k++) { f([5,6], 3); }
|}

let test_licm_hoists () =
  let g, _ = optimized_mir ~func:0 src_loop_invariant in
  (* the guard/elements/length/check/load chain for a[0] is invariant (no
     stores in the loop) and must end up in the preheader, outside the
     loop body *)
  let dom = Jitbull_mir.Domtree.compute g in
  let headers =
    List.filter
      (fun (b : Mir.block) ->
        List.exists (fun p -> Jitbull_mir.Domtree.dominates dom b p) b.Mir.preds)
      g.Mir.blocks
  in
  match headers with
  | [ header ] ->
    let body = Jitbull_mir.Domtree.loop_body dom header in
    let load_in_loop =
      List.exists
        (fun (i : Mir.instr) ->
          i.Mir.opcode = Mir.Load_element && body.(i.Mir.in_block))
        (Mir.all_instructions g)
    in
    check_bool "load hoisted out of loop" false load_in_loop
  | _ -> Alcotest.fail "expected exactly one loop"

let src_licm_with_store =
  {|
function f(a, n) {
  var t = 0;
  for (var i = 0; i < n; i++) { t = t + a[0]; a.length = 2; }
  return t;
}
for (var k = 0; k < 5; k++) { f([5,6], 3); }
|}

let test_licm_blocked_by_store () =
  let g, _ = optimized_mir ~func:0 src_licm_with_store in
  let dom = Jitbull_mir.Domtree.compute g in
  let header =
    List.find
      (fun (b : Mir.block) ->
        List.exists (fun p -> Jitbull_mir.Domtree.dominates dom b p) b.Mir.preds)
      g.Mir.blocks
  in
  let body = Jitbull_mir.Domtree.loop_body dom header in
  let length_load_in_loop =
    List.exists
      (fun (i : Mir.instr) ->
        i.Mir.opcode = Mir.Initialized_length && body.(i.Mir.in_block))
      (Mir.all_instructions g)
  in
  check_bool "length load stays in loop" true length_load_in_loop

let test_licm_vulnerable_hoists_anyway () =
  let g, _ =
    optimized_mir ~vulns:(VC.make [ VC.CVE_2019_9792 ]) ~func:0 src_licm_with_store
  in
  let dom = Jitbull_mir.Domtree.compute g in
  let header =
    List.find
      (fun (b : Mir.block) ->
        List.exists (fun p -> Jitbull_mir.Domtree.dominates dom b p) b.Mir.preds)
      g.Mir.blocks
  in
  let body = Jitbull_mir.Domtree.loop_body dom header in
  let length_load_in_loop =
    List.exists
      (fun (i : Mir.instr) ->
        i.Mir.opcode = Mir.Initialized_length && body.(i.Mir.in_block))
      (Mir.all_instructions g)
  in
  check_bool "stale length hoisted (bug)" false length_load_in_loop

let test_phi_elimination () =
  let g, _ =
    optimized_mir ~func:0
      "function f(n) { var t = 0; for (var i = 0; i < n; i++) { t += 1; } return t; } f(2); f(2); f(2);"
  in
  (* only the two genuinely loop-carried phis (t, i) survive *)
  check_bool "trivial phis folded" true (count_opcode g "phi" <= 2)

let test_constant_folding () =
  let g, _ =
    optimized_mir ~func:0 "function f() { return (2 * 3 + 4 < 11) ? 1 : 0; } f(); f(); f();"
  in
  (* everything folds; the branch disappears *)
  check_int "no compare left" 0 (count_opcode g "compare_lt");
  check_int "no test left" 0 (count_opcode g "test")

let test_fold_constants_matches_runtime_semantics () =
  (* folded '+' must still concatenate strings *)
  assert_tiers_agree ~name:"constant concat"
    "function f() { return 'a' + 1 + 2; } print(f()); print(f()); print(f()); print(f()); print(f());"

let test_dce_keeps_guards () =
  let g, _ =
    optimized_mir ~func:0
      "function f(a, i, v) { a[i] = v; } var x = [1,2,3]; for (var k = 0; k < 5; k++) f(x, 1, k);"
  in
  check_int "unused store check kept" 1 (count_opcode g "boundscheck")

let test_dce_vulnerable_drops_unused_guard () =
  let g, _ =
    optimized_mir ~vulns:(VC.make [ VC.CVE_2019_9813 ]) ~func:0
      "function f(a, i, v) { a[i] = v; } var x = [1,2,3]; for (var k = 0; k < 5; k++) f(x, 1, k);"
  in
  check_int "store check dropped (bug)" 0 (count_opcode g "boundscheck")

let test_dce_removes_dead_code () =
  let g, _ =
    optimized_mir ~func:0
      "function f(a, b) { var dead = a * b + 17; return a; } for (var k = 0; k < 5; k++) f(k, 2);"
  in
  check_int "dead multiply removed" 0 (count_opcode g "mul")

let test_bce_removes_dominated_check () =
  let g, _ =
    optimized_mir ~func:0
      {|
function f(a) {
  var t = 0;
  for (var i = 0; i < a.length; i++) { t = t + a[i]; }
  return t;
}
for (var k = 0; k < 5; k++) { f([1,2,3]); }
|}
  in
  (* the loop condition compares i against the same freshly loaded length
     used by the check... the check's length is a separate load, so the
     correct pass must keep it *)
  check_int "check kept (different length load)" 1 (count_opcode g "boundscheck")

let test_bce_removes_same_load_check () =
  let g, _ =
    optimized_mir ~func:0
      {|
function f(a, i) {
  var el = 0;
  var len = a.length;
  if (i < len) { el = 1; }
  return el;
}
for (var k = 0; k < 5; k++) { f([1,2,3], 1); }
|}
  in
  ignore g;
  (* shape-level: no bounds check in this function at all; this test
     pins that bce does not crash on checkless graphs *)
  check_int "no checks" 0 (count_opcode g "boundscheck")

let test_bce_vulnerable_accepts_stale_length () =
  let src =
    {|
function f(a, v) {
  var n = a.length;
  for (var i = 0; i < n; i++) { a[i] = v; }
  return 0;
}
for (var k = 0; k < 5; k++) { f([1,2,3,4], k); }
|}
  in
  let g_ok, _ = optimized_mir ~func:0 src in
  check_int "correct: check kept" 1 (count_opcode g_ok "boundscheck");
  let g_bug, _ = optimized_mir ~vulns:(VC.make [ VC.CVE_2019_11707 ]) ~func:0 src in
  check_int "vulnerable: check removed" 0 (count_opcode g_bug "boundscheck")

let test_type_analysis_removes_known_number_conversions () =
  let g, _ =
    optimized_mir ~func:0
      "function f(a, b) { return -(a - b); } for (var k = 0; k < 5; k++) f(k, 2);"
  in
  (* negate's tonumber operand is the sub result, already a number *)
  check_int "tonumber folded away" 0 (count_opcode g "tonumber")

let test_sink_forwards_store_to_load () =
  let g, _ =
    optimized_mir ~func:0
      "function f(a, v) { a[0] = v; return a[0]; } for (var k = 0; k < 5; k++) f([1,2], k);"
  in
  check_int "load forwarded" 0 (count_opcode g "loadelement")

let test_sink_blocked_by_call () =
  let src =
    {|
function g(a) { a.length = 0; return 0; }
function f(a, v) { a[0] = v; g(a); return a[0]; }
for (var k = 0; k < 5; k++) { f([1,2], k); }
|}
  in
  let g_ok, _ = optimized_mir ~func:1 src in
  check_int "correct: load reloads after call" 1 (count_opcode g_ok "loadelement");
  let g_bug, _ = optimized_mir ~vulns:(VC.make [ VC.CVE_2020_26952 ]) ~func:1 src in
  check_int "vulnerable: forwarded across call" 0 (count_opcode g_bug "loadelement")

let test_empty_block_elimination () =
  let _, trace =
    optimized_mir ~func:0
      "function f(c) { if (c) { return 1; } return 2; } f(1); f(0); f(1); f(0); f(1);"
  in
  (* pipeline must stay verifiable (checked inside optimized_mir via
     ~verify:true) and produce a trace entry for the pass *)
  check_bool "emptyblocks pass ran" true (List.mem_assoc "emptyblocks" trace)

let test_disabled_pass_is_skipped () =
  let g, _ =
    optimized_mir ~disabled:[ "gvn" ] ~func:0
      "function f(a, b) { return (a + b) * (a + b); } for (var k = 0; k < 5; k++) f(k, 2);"
  in
  check_int "no dedup when gvn disabled" 2 (count_opcode g "add")

let test_every_pass_produces_snapshot () =
  let _, trace = optimized_mir ~func:0 "function f(a) { return a + 1; } f(1); f(2); f(3);" in
  check_int "initial + one per pass" (1 + List.length Pipeline.passes) (List.length trace)

(* A pass that leaves the IR as it was, or is skipped, repeats the
   previous snapshot physically; any pass that changed the entries or
   the block count gets a snapshot of its own. *)
let test_unchanged_pass_shares_snapshot () =
  let module Snapshot = Jitbull_mir.Snapshot in
  let _, trace =
    optimized_mir ~disabled:[ "gvn" ] ~func:0
      "function f(a, b) { var t = 0; for (var i = 0; i < a; i++) { t = t + (a + b) * (a + b); } return t; } for (var k = 0; k < 9; k++) f(k, 2);"
  in
  let pairs = List.combine (List.rev (List.tl (List.rev trace))) (List.tl trace) in
  List.iter
    (fun ((_, (a : Snapshot.t)), (pass, (b : Snapshot.t))) ->
      check_bool (pass ^ " shares iff unchanged") true
        (b == a = (Snapshot.same_entries a b && a.Snapshot.n_blocks = b.Snapshot.n_blocks)))
    pairs;
  check_bool "the skipped pass shares" true
    (List.exists (fun ((_, a), (pass, b)) -> pass = "gvn" && a == b) pairs);
  check_bool "some pass changed the IR" true (List.exists (fun ((_, a), (_, b)) -> a != b) pairs);
  (* the comparison the pipeline shares by: a block more is a change even
     with every entry the same *)
  let g = Mir.create ~name:"blocks" ~arity:0 in
  let s = Snapshot.take g in
  check_bool "a fresh snapshot matches its graph" true (Snapshot.matches s g);
  ignore (Mir.new_block g);
  check_bool "same entries, one more block" true
    (Snapshot.same_entries s (Snapshot.take g) && not (Snapshot.matches s g))

let test_mandatory_passes () =
  check_bool "split mandatory" false (Pipeline.can_disable "splitcriticaledges");
  check_bool "renumber mandatory" false (Pipeline.can_disable "renumber");
  check_bool "gvn optional" true (Pipeline.can_disable "gvn");
  check_bool "unknown pass" false (Pipeline.can_disable "nosuchpass")

(* Semantic preservation: a batch of behaviourally diverse programs run
   identically on the interpreter and the fully optimizing JIT. *)
let preservation_programs =
  [
    "var t = 0; function f(n) { for (var i = 0; i < n; i++) { t += i; } return t; } for (var k = 0; k < 9; k++) print(f(4));";
    "function g(a) { return a[0] + a[a.length - 1]; } var x = [3,4,5]; for (var k = 0; k < 9; k++) print(g(x));";
    "function h(s) { var t = 0; for (var i = 0; i < s.length; i++) { t += s.charCodeAt(i); } return t; } for (var k = 0; k < 9; k++) print(h('abcd'));";
    "function m(o) { o.n = o.n + 1; return o.n; } var obj = {n: 0}; for (var k = 0; k < 9; k++) print(m(obj));";
    "function p(a) { a.push(a.length); return a.pop() + a.length; } var arr = [1]; for (var k = 0; k < 9; k++) print(p(arr));";
    "function q(x) { return x == 0 ? 'z' : (x < 0 ? 'n' : 'p'); } for (var k = -4; k < 5; k++) print(q(k));";
    "function r(n) { var a = []; for (var i = 0; i < n; i++) { a.push(i * i); } var s = 0; for (var j = 0; j < a.length; j++) { s += a[j]; } return s; } for (var k = 0; k < 9; k++) print(r(k));";
  ]

let test_semantic_preservation () =
  List.iter (fun src -> assert_tiers_agree ~name:"preservation" src) preservation_programs

(* ---- golden per-pass output ----

   Every pass's output, pinned: for each function of each corpus program
   (the eight demonstrators and sixteen generated programs), built on its
   VM feedback, the MD5 over [Snapshot.to_string] of every [Pipeline.run]
   trace entry, followed by the final snapshot of a
   [run_quiet ~disabled:recompile_disabled] run on a fresh build of the
   same function (the go/no-go recompile path). One digest per program
   with no bugs active and one with all eight. A change that alters what
   a pass produces on purpose updates these constants and says why. *)

module Snapshot = Jitbull_mir.Snapshot

let pipeline_digest vulns source =
  let module Value = Jitbull_runtime.Value in
  let bc = Jitbull_bytecode.Compiler.compile (Jitbull_frontend.Parser.parse source) in
  let vm = Vm.create bc in
  (try ignore (Vm.run vm) with _ -> ());
  let funcs = bc.Jitbull_bytecode.Op.funcs in
  let build idx = Jitbull_mir.Builder.build funcs.(idx) ~feedback_row:vm.Vm.feedback.(idx) in
  let buf = Buffer.create 4096 in
  Array.iteri
    (fun idx _ ->
      let inline_resolver callee =
        match Hashtbl.find_opt vm.Vm.globals callee with
        | Some (Value.Function c) when c <> idx -> Some (build c)
        | _ -> None
      in
      List.iter
        (fun (_, s) -> Buffer.add_string buf (Snapshot.to_string s))
        (Pipeline.run vulns ~inline_resolver (build idx));
      let g = build idx in
      Pipeline.run_quiet vulns ~inline_resolver ~disabled:recompile_disabled g;
      Buffer.add_string buf (Snapshot.to_string (Snapshot.take g)))
    funcs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* (program, digest with no bugs, digest with all eight bugs) *)
let pass_golden =
  [
    ("CVE-2019-17026", "5a6a79f2cfaf326546a0b038fcbae9ae", "0b5e5cde964099bc9ea339cec3e65f24");
    ("CVE-2019-9810", "ef42672d3896cfd4500157cb783f3be0", "eca9c21ad6d90692b95d8a998e30efde");
    ("CVE-2019-9791", "8ac035ffb4961a67a6befbf623976e8e", "54adff85ff2e74770588d86fb791f7de");
    ("CVE-2019-11707", "1aab4e715064d3a952859552a1c5aa71", "989408e9204da99de871f38e32021902");
    ("CVE-2019-9792", "472d6664bb9b0446979ca864627a8f55", "e499695c6bfeaefd06ddc59000d1f58e");
    ("CVE-2019-9795", "9a0470679e5cb0146e717feb7752ccf6", "7f0278b534683e7da8ef172725e487c7");
    ("CVE-2019-9813", "a704fb01b67bd8330b36ca9d509ec695", "74dec42f6f3b2abde83c286a5f8f3823");
    ("CVE-2020-26952", "603d3987bc41ded02228fe4a7601e727", "dc8b33e576b63c1c55850294f5af9705");
    ("benign00", "d26e9d16bbd44015e22bf4b642750ec5", "ccb07f5cc6eb39300447e33b90a42b05");
    ("benign01", "21f232e69148a45630043f6273929801", "b1425f3916ab3dee62cac58f0b23daa9");
    ("benign02", "ce7c8063bc4f79f3f33492a0aebcb341", "6b60d144282b18a3d80730fb49c82f23");
    ("benign03", "b171b9b1845125a08c91b657bf87429d", "8e33b08aaab920c18f8478176197b71b");
    ("benign04", "fd674f9b972be2d7fbf8fc3f15092437", "53498e2c0c719f36aa80f776424b0a15");
    ("benign05", "c9e58ce701390698a18854e5ead8944e", "ba4c1794b6d596cca227169130ac933b");
    ("benign06", "5a8dc315d57ed80441785cf2497c9110", "2b5808ade5626cd0bcb4edceb649de83");
    ("benign07", "78972686d67c1a45e36ac43285412ce9", "e1ab3716f086f1a073a1a5dd194a14e5");
    ("benign08", "e57c7eda85127403c93409e6042f679a", "690f8fd88af24e48e35d085f8c3b0673");
    ("benign09", "87af22fa839fad08173c8d72e84e6b48", "b093a4b21bc9250f573f66e06f598ff2");
    ("benign10", "2294bf65478ade53035289085547236c", "f6a53f27303e89313a0dece71a86e880");
    ("benign11", "72aa2f02007ccb689c759a9bedddc787", "548cd43363d96c96d6c35c8992a1f303");
    ("benign12", "a72a8cc672870f10faaa5e1320bdfb80", "f46563796765b0c04f3e49097ebe2534");
    ("benign13", "b920c4b50fbcef0997caecda5faa8f49", "4b0fa8a4aeb83d6288744f463cf52ab4");
    ("benign14", "ce3757dc9aeb20b5b50e0fb392dfad7d", "e69bba26c47244f8b31918a372c06753");
    ("benign15", "e64ccb2b19229234e543a9031b685be9", "f8883c5f34bffd80793707acd5ad9dc8");
  ]

let test_pass_output_golden () =
  let all = VC.make VC.all in
  let programs = golden_programs () in
  check_int "program count" (List.length pass_golden) (List.length programs);
  List.iter2
    (fun (name, source) (name', none, buggy) ->
      check_string "program order" name' name;
      check_string (name ^ " patched passes") none (pipeline_digest VC.none source);
      check_string (name ^ " buggy passes") buggy (pipeline_digest all source))
    programs pass_golden

(* ---- golden compile output ----

   What the compile emits, pinned past the MIR: for each function of each
   corpus program, the LIR after register allocation and peephole of the
   baseline compile, of the Ion compile and of the go/no-go recompile,
   and the x86-64 bytes {!Jitbull_native.Native.emit} makes of the two
   Ion ones. The LIR is serialized whole (constants, names, call
   arguments and every operand field), so a change to a lowering table
   or to the allocator that moves one register shows here. One digest
   per program with no bugs active and one with all eight. The LIR half
   of these constants was computed before the compile path's tables
   became arrays, and that change left it as it was; the machine code
   moved twice, when element loads, array lengths and int32 [%] became
   machine code and when displacements in [-128, 127] took a disp8, and
   the digests without it stayed the same both times. *)

let compile_digest vulns source =
  let buf = Buffer.create 65536 in
  let lir (l : Jitbull_lir.Lir.func) =
    Buffer.add_string buf (Marshal.to_string l [ Marshal.No_sharing ])
  in
  let code l = Buffer.add_bytes buf (Jitbull_native.Native.emit l) in
  Array.iter
    (fun c ->
      lir (c.baseline ());
      let ion = c.ion [] and recompile = c.ion recompile_disabled in
      lir ion;
      code ion;
      lir recompile;
      code recompile)
    (compiles_of vulns source);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* (program, digest with no bugs, digest with all eight bugs) *)
let compile_golden =
  [
    ("CVE-2019-17026", "015ce87da4b6fca013faf44c901600ee", "7a57ff799472311e571f6c660711b1a8");
    ("CVE-2019-9810", "49ce9c75136e61fe4b93e72d23328d89", "d9a5f07fa5020e2566e408779d627267");
    ("CVE-2019-9791", "0cfc3a3491c132cbc26c45a11fb28f34", "e1a6033209bb4f2b8c6493bfbabdd558");
    ("CVE-2019-11707", "b08fd138f6c64e9d8e0da5748aaf3006", "9747ba14a87f96674d8d81d12112513c");
    ("CVE-2019-9792", "a7d2c1bca5a425bc9a47a5e21f24c0a9", "7bf536f4ca618a8203e1718f35f027e4");
    ("CVE-2019-9795", "3e92a6c32ff83e0ff49e59a48e5930c5", "19ba37bd594e1a659e95f437a4699989");
    ("CVE-2019-9813", "f458f4528c85899253dd6395ac7e2ae1", "7f6a6727d8fb221e42bf5baeec20859a");
    ("CVE-2020-26952", "3005ec2e2a19612f6d539da353f9d471", "8f47e8297cc3ef0e965dc26e831de294");
    ("benign00", "9799a3c3b4440ae36034f5fbdd4d0144", "1eb1a6ab9e326e8925d9699e094d2c0d");
    ("benign01", "222afa330be633f81c1817c4daee712e", "439463809a0f685d81f7c779af6c3a51");
    ("benign02", "c317324f06ea4402bc29a7ad441760e0", "a08109e1a8c39151733c1546367ff306");
    ("benign03", "0f63f0f00119549438cb68f535e24191", "567957b714a3ffd58790d2b735bc8a27");
    ("benign04", "76c30789f0a94680bbe8ebc9946c347a", "c2055bdc96463b6ba67604d01fb5dc08");
    ("benign05", "cecb18c7c43eae50c5a02dcb2550ba50", "84fb6ec4533c574aca8563cb5e933cb2");
    ("benign06", "7327b0a7d325779f8c9f254a3bd8190c", "180613de36aa17c61ac2cbc6a65571c5");
    ("benign07", "de929c2d43090a45f8231485da0c0b2f", "71e4113d5d90dc968862568fa3df0b8b");
    ("benign08", "524585f043e6ab79e20f9ce1b8bf253f", "dbeb3275117b687c8b57793c9e742be9");
    ("benign09", "50459b1869df93b3b5339ab56b8e5fe8", "1e967bdc50dc00287361c43d9a90a627");
    ("benign10", "18250fdb27ad285d078f777361589ff3", "70bfdcd4c12c01e2efbf9cf8df80f8a0");
    ("benign11", "69af55e3e4e2d0d12fc8b27cd0882502", "d2656a6b3a9d680a77f736c4b6b5a7fc");
    ("benign12", "38ad6cdc13a4ae825001c2f7a37f099f", "5f04c8a8832b6d3013cd4032feabf0fe");
    ("benign13", "5fded6677e745eb18ecd89ef69844ac6", "f2eb34be66744a6170ed8e0f4cab9e01");
    ("benign14", "6e9120c99027b35605eb28a1263318e9", "0bf0f0136debe8240719c526fa037494");
    ("benign15", "6d574726b6d49ddf6048c4065ceab12e", "952a168991e95ba9a6e08bbd08035755");
  ]

let test_compile_output_golden () =
  let all = VC.make VC.all in
  let programs = golden_programs () in
  check_int "program count" (List.length compile_golden) (List.length programs);
  List.iter2
    (fun (name, source) (name', none, buggy) ->
      check_string "program order" name' name;
      check_string (name ^ " patched compile") none (compile_digest VC.none source);
      check_string (name ^ " buggy compile") buggy (compile_digest all source))
    programs compile_golden

let suite =
  ( "passes",
    [
      Alcotest.test_case "gvn keeps check (patched)" `Quick test_gvn_correct_keeps_check;
      Alcotest.test_case "gvn removes check (17026)" `Quick test_gvn_vulnerable_removes_check;
      Alcotest.test_case "gvn dedups pure" `Quick test_gvn_dedups_pure;
      Alcotest.test_case "gvn respects stores" `Quick test_gvn_no_dedup_across_store;
      Alcotest.test_case "gvn keeps close constants apart" `Quick
        test_gvn_keeps_close_constants_apart;
      Alcotest.test_case "licm hoists invariant load" `Quick test_licm_hoists;
      Alcotest.test_case "licm blocked by store" `Quick test_licm_blocked_by_store;
      Alcotest.test_case "licm hoists anyway (9792)" `Quick test_licm_vulnerable_hoists_anyway;
      Alcotest.test_case "phi elimination" `Quick test_phi_elimination;
      Alcotest.test_case "constant folding" `Quick test_constant_folding;
      Alcotest.test_case "folding matches runtime" `Quick test_fold_constants_matches_runtime_semantics;
      Alcotest.test_case "dce keeps guards" `Quick test_dce_keeps_guards;
      Alcotest.test_case "dce drops guard (9813)" `Quick test_dce_vulnerable_drops_unused_guard;
      Alcotest.test_case "dce removes dead code" `Quick test_dce_removes_dead_code;
      Alcotest.test_case "bce keeps fresh-length check" `Quick test_bce_removes_dominated_check;
      Alcotest.test_case "bce on checkless graph" `Quick test_bce_removes_same_load_check;
      Alcotest.test_case "bce stale length (11707)" `Quick test_bce_vulnerable_accepts_stale_length;
      Alcotest.test_case "type analysis" `Quick test_type_analysis_removes_known_number_conversions;
      Alcotest.test_case "sink forwards" `Quick test_sink_forwards_store_to_load;
      Alcotest.test_case "sink blocked by call (26952)" `Quick test_sink_blocked_by_call;
      Alcotest.test_case "empty block elimination" `Quick test_empty_block_elimination;
      Alcotest.test_case "disabled pass skipped" `Quick test_disabled_pass_is_skipped;
      Alcotest.test_case "snapshot per pass" `Quick test_every_pass_produces_snapshot;
      Alcotest.test_case "unchanged pass shares its snapshot" `Quick
        test_unchanged_pass_shares_snapshot;
      Alcotest.test_case "mandatory passes" `Quick test_mandatory_passes;
      Alcotest.test_case "semantic preservation" `Quick test_semantic_preservation;
      Alcotest.test_case "pass output golden" `Quick test_pass_output_golden;
      Alcotest.test_case "compile output golden" `Quick test_compile_output_golden;
    ] )
