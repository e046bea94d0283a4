(* Additional edge-case unit tests across modules. *)

open Helpers
module Token = Jitbull_frontend.Token
module Lexer = Jitbull_frontend.Lexer
module Value = Jitbull_runtime.Value
module Heap = Jitbull_runtime.Heap
module Sexpr = Jitbull_util.Sexpr
module Prng = Jitbull_util.Prng
module Op = Jitbull_bytecode.Op
module Compiler = Jitbull_bytecode.Compiler
module Parser = Jitbull_frontend.Parser
module Mir = Jitbull_mir.Mir
module Domtree = Jitbull_mir.Domtree
module Catalog = Jitbull_vdc.Catalog
module Variants = Jitbull_vdc.Variants
module Lir = Jitbull_lir.Lir
module Peephole = Jitbull_lir.Peephole
module Engine = Jitbull_jit.Engine

let test_lexer_positions () =
  let tokens = Lexer.tokenize "a\n  bb" in
  match tokens with
  | [ { Token.pos = p1; _ }; { Token.pos = p2; _ }; _ ] ->
    check_int "first line" 1 p1.Token.line;
    check_int "first col" 1 p1.Token.column;
    check_int "second line" 2 p2.Token.line;
    check_int "second col" 3 p2.Token.column
  | _ -> Alcotest.fail "unexpected token count"

let test_lexer_error_position () =
  match Lexer.tokenize "ok\n   @" with
  | exception Lexer.Lex_error (_, pos) ->
    check_int "error line" 2 pos.Token.line;
    check_int "error column" 4 pos.Token.column
  | _ -> Alcotest.fail "expected lex error"

let test_sexpr_file_roundtrip () =
  let path = Filename.temp_file "sexpr" ".tmp" in
  let s = Sexpr.list [ Sexpr.atom "x"; Sexpr.int 3; Sexpr.list [ Sexpr.atom "nested y" ] ] in
  Sexpr.save path s;
  let s' = Sexpr.load path in
  Sys.remove path;
  check_string "roundtrip" (Sexpr.to_string s) (Sexpr.to_string s')

let test_prng_choose () =
  let p = Prng.create 1 in
  for _ = 1 to 50 do
    check_bool "choose member" true (List.mem (Prng.choose p [ 1; 2; 3 ]) [ 1; 2; 3 ])
  done;
  match Prng.choose p [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty choose should raise"

let test_heap_introspection () =
  let h = Heap.create ~size_limit:512 () in
  let a = Heap.alloc_array h ~length:3 in
  check_int "size" 512 (Heap.size h);
  check_bool "cells used counts header" true (Heap.cells_used h = 5);
  check_bool "base addr" true (Heap.base_addr h a = 0);
  (* zero-length arrays still get capacity 1 *)
  let b = Heap.alloc_array h ~length:0 in
  check_int "zero-length capacity" 1 (Heap.capacity h b);
  check_int "zero-length length" 0 (Heap.length h b)

let test_heap_freelist_reuse () =
  let h = Heap.create ~size_limit:512 () in
  let a = Heap.alloc_array h ~length:20 in
  Heap.set_length h a 2;
  let used_before = Heap.cells_used h in
  (* the next allocation fits in the reclaimed tail: no bump growth *)
  let _ = Heap.alloc_array h ~length:5 in
  check_int "no bump growth" used_before (Heap.cells_used h)

let test_op_to_string_total () =
  (* every opcode renders without raising *)
  let ops =
    [ Op.Push_const (Value.Number 1.0); Op.Load_local 0; Op.Store_local 1;
      Op.Load_global "g"; Op.Store_global "g"; Op.Declare_global "g"; Op.Pop; Op.Dup;
      Op.Binop Jitbull_frontend.Ast.Add; Op.Unop Jitbull_frontend.Ast.Not; Op.Jump 3;
      Op.Jump_if_false 4; Op.Jump_if_true 5; Op.New_array 2; Op.New_object [ "a" ];
      Op.Get_index; Op.Set_index; Op.Get_member "m"; Op.Set_member "m"; Op.Call 1;
      Op.Call_method ("push", 1); Op.Return; Op.Return_undefined ]
  in
  List.iter (fun op -> check_bool "nonempty" true (String.length (Op.to_string op) > 0)) ops

let test_domtree_loop_body () =
  let bc = Compiler.compile (Parser.parse "function f(n) { var t = 0; for (var i = 0; i < n; i++) { t += i; } return t; } f(3);") in
  let row =
    Array.init (Array.length bc.Op.funcs.(0).Op.code) (fun _ ->
        Jitbull_bytecode.Feedback.fresh_site ())
  in
  let g = Jitbull_mir.Builder.build bc.Op.funcs.(0) ~feedback_row:row in
  let dom = Domtree.compute g in
  let header =
    List.find
      (fun (b : Mir.block) -> List.exists (fun p -> Domtree.dominates dom b p) b.Mir.preds)
      g.Mir.blocks
  in
  let body = Domtree.loop_body dom header in
  let size = Array.fold_left (fun n member -> if member then n + 1 else n) 0 body in
  check_bool "header in body" true body.(header.Mir.bid);
  check_bool "body smaller than graph" true (size < List.length g.Mir.blocks)

let test_catalog_lookup () =
  check_bool "find known" true (Catalog.find "CVE-2019-17026" <> None);
  check_bool "find unknown" true (Catalog.find "CVE-0000-0000" = None);
  check_int "survey size matches paper's table" 24 (List.length Catalog.all)

let test_variants_mix_seed_varies () =
  let src = "var a = 1; var b = 2; var c = 3; var d = 4; print(a + b + c + d);" in
  (* different seeds may reorder differently but always run identically *)
  check_string "seed 1 runs" (interp_output src) (interp_output (Variants.apply ~seed:1 Variants.Mix src));
  check_string "seed 2 runs" (interp_output src) (interp_output (Variants.apply ~seed:2 Variants.Mix src))

let test_peephole_branch_remap () =
  (* hand-build LIR: goto over a noop move; after peephole the branch must
     still reach the return *)
  let mk kind = Lir.make_inst kind in
  let i0 = mk Lir.Kconst in
  i0.Lir.dst <- 0;
  i0.Lir.imm <- 0;
  let i1 = mk Lir.Kgoto in
  i1.Lir.imm <- 3;
  let i2 = mk Lir.Kmove in
  i2.Lir.dst <- 1;
  i2.Lir.a <- 1;
  (* noop: removed *)
  let i3 = mk Lir.Kreturn in
  i3.Lir.a <- 0;
  let f =
    {
      Lir.name = "t";
      arity = 0;
      code = [| i0; i1; i2; i3 |];
      consts = [| Value.Number 9.0 |];
      names = [||];
      call_args = [||];
      fields = [||];
      n_regs = 2;
      spill_count = 0;
    }
  in
  let removed = Peephole.run f in
  check_bool "removed something" true (removed >= 1);
  (* executing still returns 9 *)
  let realm = Jitbull_runtime.Realm.create ~size_limit:256 () in
  let cb =
    {
      Jitbull_lir.Executor.call_function = (fun _ _ -> Value.Undefined);
      lookup_global = (fun _ -> Value.Undefined);
      store_global = (fun _ _ -> ());
      declare_global = (fun _ -> ());
    }
  in
  check_bool "still returns 9" true
    (Jitbull_lir.Executor.run f realm cb [] = Value.Number 9.0)

let test_engine_double_run_safe () =
  (* running two engines over the same program source is independent *)
  let src = "function f(x) { return x + 1; } var s = 0; for (var i = 0; i < 40; i++) { s = f(i); } print(s);" in
  let a, _ = Engine.run_source Engine.default_config src in
  let b, _ = Engine.run_source Engine.default_config src in
  check_string "independent runs" a b

let test_value_display () =
  check_string "NaN" "NaN" (Value.to_display (Value.Number Float.nan));
  check_string "Infinity" "Infinity" (Value.to_display (Value.Number Float.infinity));
  check_string "negative zero is 0" "0" (Value.to_display (Value.Number (-0.0)));
  check_string "float" "2.5" (Value.to_display (Value.Number 2.5));
  let obj = Hashtbl.create 2 in
  Hashtbl.replace obj "b" (Value.Number 2.0);
  Hashtbl.replace obj "a" (Value.Number 1.0);
  check_string "object sorted fields" "{a: 1, b: 2}" (Value.to_display (Value.Object obj))

let suite =
  ( "extra-unit",
    [
      Alcotest.test_case "lexer positions" `Quick test_lexer_positions;
      Alcotest.test_case "lexer error position" `Quick test_lexer_error_position;
      Alcotest.test_case "sexpr file roundtrip" `Quick test_sexpr_file_roundtrip;
      Alcotest.test_case "prng choose" `Quick test_prng_choose;
      Alcotest.test_case "heap introspection" `Quick test_heap_introspection;
      Alcotest.test_case "heap freelist reuse" `Quick test_heap_freelist_reuse;
      Alcotest.test_case "op to_string total" `Quick test_op_to_string_total;
      Alcotest.test_case "domtree loop body" `Quick test_domtree_loop_body;
      Alcotest.test_case "catalog lookup" `Quick test_catalog_lookup;
      Alcotest.test_case "variants mix seeds" `Quick test_variants_mix_seed_varies;
      Alcotest.test_case "peephole branch remap" `Quick test_peephole_branch_remap;
      Alcotest.test_case "engine double run" `Quick test_engine_double_run_safe;
      Alcotest.test_case "value display" `Quick test_value_display;
    ] )
