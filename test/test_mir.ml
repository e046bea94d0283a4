(* Tests for MIR construction, dominators, the verifier and snapshots. *)

open Helpers
module Mir = Jitbull_mir.Mir
module Builder = Jitbull_mir.Builder
module Domtree = Jitbull_mir.Domtree
module Verifier = Jitbull_mir.Verifier
module Snapshot = Jitbull_mir.Snapshot
module Parser = Jitbull_frontend.Parser
module Compiler = Jitbull_bytecode.Compiler
module Feedback = Jitbull_bytecode.Feedback
module Op = Jitbull_bytecode.Op

(* Build MIR for function [idx] with fully generic feedback (no warmup). *)
let generic_mir ?(idx = 0) src =
  let bc = Compiler.compile (Parser.parse src) in
  let f = bc.Op.funcs.(idx) in
  let feedback_row = Array.init (Array.length f.Op.code) (fun _ -> Feedback.fresh_site ()) in
  Builder.build f ~feedback_row

(* Build MIR with warmed feedback. *)
let warmed_mir ?(idx = 0) src =
  let bc = Compiler.compile (Parser.parse src) in
  let vm = Vm.create bc in
  (try ignore (Vm.run vm) with _ -> ());
  Builder.build bc.Op.funcs.(idx) ~feedback_row:vm.Vm.feedback.(idx)

let test_straight_line () =
  let g = generic_mir "function f(a, b) { return a + b; } f(1, 2);" in
  Verifier.check g;
  check_int "parameters" 2 (count_opcode g "parameter");
  check_int "one add" 1 (count_opcode g "add");
  check_int "one return" 1 (count_opcode g "return")

let test_loop_builds_phis () =
  let g = generic_mir "function f(n) { var t = 0; for (var i = 0; i < n; i++) { t += i; } return t; } f(3);" in
  Verifier.check g;
  check_bool "has phis" true (count_opcode g "phi" > 0);
  (* loop structure: some block has a back edge *)
  let dom = Domtree.compute g in
  let has_loop =
    List.exists
      (fun (b : Mir.block) -> List.exists (fun p -> Domtree.dominates dom b p) b.Mir.preds)
      g.Mir.blocks
  in
  check_bool "loop header found" true has_loop

let test_function_starting_with_loop () =
  (* bc block 0 is itself a loop header: needs the synthetic entry *)
  let g = generic_mir "function f(n) { while (n > 0) { n -= 1; } return n; } f(2);" in
  Verifier.check g;
  check_bool "entry has goto" true
    (match Mir.control_instr g.Mir.entry with
    | Some { Mir.opcode = Mir.Goto _; _ } -> true
    | _ -> false)

let test_generic_vs_guarded_access () =
  let src = "function f(a, i) { return a[i]; } var x = [1,2,3]; for (var k = 0; k < 5; k++) f(x, 1);" in
  let generic = generic_mir src in
  check_int "no feedback: generic access" 1 (count_opcode generic "getelemgeneric");
  check_int "no feedback: no guard" 0 (count_opcode generic "guardarray");
  let warmed = warmed_mir src in
  check_int "warmed: guarded fast path" 1 (count_opcode warmed "boundscheck");
  check_int "warmed: guard present" 1 (count_opcode warmed "guardarray");
  check_int "warmed: no generic" 0 (count_opcode warmed "getelemgeneric")

let test_store_check_value_unused () =
  (* the store fast path leaves the boundscheck result unused (the shape
     the CVE-2019-9813 model preys on) *)
  let g = warmed_mir "function f(a, i, v) { a[i] = v; } var x = [1,2,3]; for (var k = 0; k < 5; k++) f(x, 1, k);" in
  Verifier.check g;
  let chk =
    List.find
      (fun (i : Mir.instr) -> i.Mir.opcode = Mir.Bounds_check)
      (Mir.all_instructions g)
  in
  check_bool "check result unused" false
    (List.exists (fun (i : Mir.instr) -> List.memq chk i.Mir.operands) (Mir.all_instructions g))

let test_logical_and_stack_merge () =
  let g = generic_mir "function f(a, b) { return a && b; } f(1, 2);" in
  Verifier.check g;
  check_bool "merge phi for stack slot" true (count_opcode g "phi" >= 1)

let test_verifier_rejects_bad_graph () =
  let g = generic_mir "function f(a) { return a; } f(1);" in
  (* corrupt: drop the control instruction of the entry block *)
  let b = List.hd g.Mir.blocks in
  b.Mir.body <- List.filter (fun (i : Mir.instr) -> not (Mir.is_control i.Mir.opcode)) b.Mir.body;
  check_bool "invalid" false (Verifier.check_bool g)

let test_verifier_rejects_bad_phi_arity () =
  let g = generic_mir "function f(n) { var t = 0; while (n > 0) { n -= 1; t += 1; } return t; } f(2);" in
  let phi =
    List.find (fun (i : Mir.instr) -> i.Mir.opcode = Mir.Phi) (Mir.all_instructions g)
  in
  phi.Mir.operands <- List.tl phi.Mir.operands;
  check_bool "invalid arity" false (Verifier.check_bool g)

let test_dominators () =
  let g = generic_mir "function f(c) { var x = 0; if (c) { x = 1; } else { x = 2; } return x; } f(1);" in
  let dom = Domtree.compute g in
  let entry = g.Mir.entry in
  List.iter
    (fun b -> check_bool "entry dominates all" true (Domtree.dominates dom entry b))
    g.Mir.blocks;
  (* the two branch arms do not dominate each other *)
  let arms =
    List.filter
      (fun (b : Mir.block) ->
        List.length b.Mir.preds = 1 && b != entry
        && match Mir.control_instr b with
           | Some { Mir.opcode = Mir.Goto _; _ } -> true
           | _ -> false)
      g.Mir.blocks
  in
  match arms with
  | a :: b :: _ ->
    check_bool "arms incomparable" false (Domtree.dominates dom a b || Domtree.dominates dom b a)
  | _ -> ()  (* shape changed; other assertions still cover dominance *)

let test_renumber_stability () =
  let g = generic_mir "function f(a) { return a + 1; } f(1);" in
  let snap1 = Snapshot.take g in
  Mir.renumber g;
  Mir.renumber g;
  let snap2 = Snapshot.take g in
  (* renumbering twice is idempotent on an already-ordered graph *)
  check_bool "snapshots equal" true (snap1 = snap2)

let test_snapshot_contents () =
  let g = generic_mir "function f(a) { return a * 2; } f(1);" in
  let snap = Snapshot.take g in
  check_bool "snapshot is the MIR's instruction list" true (snapshot_matches_mir g snap);
  check_bool "operands referenced by number" true
    (List.exists (fun (_, _, operands) -> operands <> []) (Snapshot.entries snap))

(* An operand outside the graph keeps its number in the snapshot. *)
let test_snapshot_dangling_operand () =
  let g = generic_mir "function f(a) { return a * 2; } f(1);" in
  let ghost = Mir.make_instr g (Mir.Constant (Jitbull_runtime.Value.Number 1.0)) [] in
  let b = List.hd g.Mir.blocks in
  b.Mir.phis <- b.Mir.phis @ [ Mir.make_instr g Mir.Phi [ ghost; ghost ] ];
  let snap = Snapshot.take g in
  check_bool "snapshot is the MIR's instruction list" true (snapshot_matches_mir g snap);
  check_bool "dangling number kept" true
    (List.exists (fun (_, _, operands) -> operands = [ ghost.Mir.num; ghost.Mir.num ])
       (Snapshot.entries snap));
  check_bool "no entry for it" false
    (List.exists (fun (num, _, _) -> num = ghost.Mir.num) (Snapshot.entries snap))

(* Every opcode's name, as DNA databases and chain keys spell it; two
   opcodes share a tag exactly when they share a name. *)
let test_opcode_names () =
  let g = Mir.create ~name:"t" ~arity:0 in
  let b = g.Mir.entry in
  let v = Jitbull_runtime.Value.Number 0.0 in
  let table =
    [
      (Mir.Parameter 0, "parameter"); (Mir.Parameter 3, "parameter"); (Mir.Constant v, "constant");
      (Mir.Constant (Jitbull_runtime.Value.String "s"), "constant"); (Mir.Phi, "phi");
      (Mir.Unbox_number, "unboxnumber"); (Mir.Unbox_int32, "unboxint32");
      (Mir.Guard_array, "guardarray"); (Mir.Bounds_check, "boundscheck"); (Mir.Add, "add");
      (Mir.Bin_num Mir.NSub, "sub"); (Mir.Bin_num Mir.NMul, "mul"); (Mir.Bin_num Mir.NDiv, "div");
      (Mir.Bin_num Mir.NMod, "mod"); (Mir.Bin_num Mir.NBit_and, "bitand");
      (Mir.Bin_num Mir.NBit_or, "bitor"); (Mir.Bin_num Mir.NBit_xor, "bitxor");
      (Mir.Bin_num Mir.NShl, "lsh"); (Mir.Bin_num Mir.NShr, "rsh"); (Mir.Bin_num Mir.NUshr, "ursh");
      (Mir.Compare Mir.CLt, "compare_lt"); (Mir.Compare Mir.CLe, "compare_le");
      (Mir.Compare Mir.CGt, "compare_gt"); (Mir.Compare Mir.CGe, "compare_ge");
      (Mir.Compare Mir.CEq, "compare_eq"); (Mir.Compare Mir.CNeq, "compare_ne");
      (Mir.Compare Mir.CStrict_eq, "compare_stricteq");
      (Mir.Compare Mir.CStrict_neq, "compare_strictne"); (Mir.Negate, "negate");
      (Mir.Bit_not, "bitnot"); (Mir.Not, "not"); (Mir.Typeof, "typeof");
      (Mir.To_number, "tonumber"); (Mir.New_array 2, "newarray"); (Mir.Elements, "elements");
      (Mir.Initialized_length, "initializedlength"); (Mir.Load_element, "loadelement");
      (Mir.Store_element, "storeelement"); (Mir.Array_length, "arraylength");
      (Mir.Set_array_length, "setarraylength"); (Mir.Array_push, "arraypush");
      (Mir.Array_pop, "arraypop"); (Mir.New_object [ "x" ], "newobject");
      (Mir.Get_prop "x", "getprop"); (Mir.Set_prop "x", "setprop");
      (Mir.Get_index_generic, "getelemgeneric"); (Mir.Set_index_generic, "setelemgeneric");
      (Mir.Load_global "x", "loadglobal"); (Mir.Store_global "x", "storeglobal");
      (Mir.Declare_global "x", "declareglobal"); (Mir.Call 1, "call");
      (Mir.Call_method ("m", 1), "callmethod"); (Mir.Goto b, "goto"); (Mir.Test (b, b), "test");
      (Mir.Return, "return"); (Mir.Unreachable, "unreachable");
    ]
  in
  List.iter
    (fun (op, name) ->
      check_string name name (Mir.opcode_name op);
      check_string (name ^ " in the table") name Mir.opcode_names.(Mir.opcode_tag op))
    table;
  check_int "one tag per name"
    (List.length (List.sort_uniq compare (List.map snd table)))
    (Array.length Mir.opcode_names);
  List.iter
    (fun (a, na) ->
      List.iter
        (fun (b, nb) ->
          check_bool (na ^ " vs " ^ nb) (na = nb) (Mir.opcode_tag a = Mir.opcode_tag b))
        table)
    table

let test_forward_uses () =
  let g = generic_mir "function f(a) { return a + a; } f(1);" in
  let param =
    List.find (fun (i : Mir.instr) -> i.Mir.opcode = Mir.Parameter 0) (Mir.all_instructions g)
  in
  let add = List.find (fun (i : Mir.instr) -> i.Mir.opcode = Mir.Add) (Mir.all_instructions g) in
  let b = g.Mir.entry in
  (* a constant at the head of the entry block dominates every use *)
  let constant x =
    let c = Mir.make_instr ~in_block:b.Mir.bid g (Mir.Constant (Jitbull_runtime.Value.Number x)) [] in
    b.Mir.body <- c :: b.Mir.body;
    c
  in
  let c = constant 5.0 in
  let fw = Mir.forwarding g in
  Mir.forward fw param c;
  (* a replacement made during the pass chains: c forwarded on to d *)
  let d = constant 6.0 in
  Mir.forward fw c d;
  check_bool "resolves through the chain" true (Mir.resolve fw param == d);
  check_bool "operands unchanged before the sweep" true (List.memq param add.Mir.operands);
  Mir.forward_uses g fw;
  check_bool "no more uses of param" false
    (List.exists
       (fun (i : Mir.instr) -> List.memq param i.Mir.operands || List.memq c i.Mir.operands)
       (Mir.all_instructions g));
  check_bool "uses moved to the final replacement" true
    (List.length add.Mir.operands = 2 && List.for_all (fun o -> o == d) add.Mir.operands);
  check_bool "replaced instructions left the graph" false
    (List.exists (fun i -> i == param || i == c) (Mir.all_instructions g));
  Verifier.check g

let suite =
  ( "mir",
    [
      Alcotest.test_case "straight line" `Quick test_straight_line;
      Alcotest.test_case "loop phis" `Quick test_loop_builds_phis;
      Alcotest.test_case "function starting with loop" `Quick test_function_starting_with_loop;
      Alcotest.test_case "generic vs guarded access" `Quick test_generic_vs_guarded_access;
      Alcotest.test_case "store check unused" `Quick test_store_check_value_unused;
      Alcotest.test_case "logical-and stack merge" `Quick test_logical_and_stack_merge;
      Alcotest.test_case "verifier rejects bad graph" `Quick test_verifier_rejects_bad_graph;
      Alcotest.test_case "verifier rejects bad phi" `Quick test_verifier_rejects_bad_phi_arity;
      Alcotest.test_case "dominators" `Quick test_dominators;
      Alcotest.test_case "renumber stability" `Quick test_renumber_stability;
      Alcotest.test_case "snapshot contents" `Quick test_snapshot_contents;
      Alcotest.test_case "snapshot dangling operand" `Quick test_snapshot_dangling_operand;
      Alcotest.test_case "opcode names" `Quick test_opcode_names;
      Alcotest.test_case "forward_uses" `Quick test_forward_uses;
    ] )
