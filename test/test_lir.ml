(* Tests for LIR lowering, the parallel-move resolver, the register
   allocator and the executor. *)

open Helpers
module Mir = Jitbull_mir.Mir
module Lir = Jitbull_lir.Lir
module Lower = Jitbull_lir.Lower
module Regalloc = Jitbull_lir.Regalloc
module Executor = Jitbull_lir.Executor
module Parser = Jitbull_frontend.Parser
module Compiler = Jitbull_bytecode.Compiler
module Op = Jitbull_bytecode.Op
module Value = Jitbull_runtime.Value
module Realm = Jitbull_runtime.Realm
module Engine = Jitbull_jit.Engine

(* Lower function [idx] of [src] after full optimization with warmup. *)
let lowered ?(idx = 0) ?(allocate = true) src =
  let g, _ = optimized_mir ~func:idx src in
  let lir = Lower.lower g in
  if allocate then Regalloc.allocate lir;
  lir

(* Execute a single LIR function with trivial callbacks. *)
let exec lir args =
  let realm = Realm.create ~size_limit:65536 () in
  let globals = Hashtbl.create 8 in
  let cb =
    {
      Executor.call_function = (fun _ _ -> Alcotest.fail "no calls expected");
      lookup_global =
        (fun n ->
          match Hashtbl.find_opt globals n with
          | Some v -> v
          | None -> Value.Undefined);
      store_global = (fun n v -> Hashtbl.replace globals n v);
      declare_global = (fun n -> if not (Hashtbl.mem globals n) then Hashtbl.replace globals n Value.Undefined);
    }
  in
  Executor.run lir realm cb args

let test_lower_simple () =
  let lir = lowered "function f(a, b) { return a * b + 1; } for (var k = 0; k < 5; k++) f(k, 2);" in
  check_bool "has code" true (Array.length lir.Lir.code > 0);
  check_string "name" "f" lir.Lir.name;
  check_bool "execute" true
    (exec lir [ Value.Number 6.0; Value.Number 7.0 ] = Value.Number 43.0)

let test_lower_loop () =
  let lir =
    lowered
      "function f(n) { var t = 0; for (var i = 0; i < n; i++) { t += i; } return t; } for (var k = 0; k < 5; k++) f(4);"
  in
  check_bool "loop result" true (exec lir [ Value.Number 10.0 ] = Value.Number 45.0)

let test_lower_branch_phis () =
  let lir =
    lowered
      "function f(c, a, b) { var x = 0; if (c) { x = a; } else { x = b; } return x; } for (var k = 0; k < 5; k++) { f(1, 2, 3); f(0, 2, 3); }"
  in
  check_bool "true branch" true (exec lir [ Value.Bool true; Value.Number 2.0; Value.Number 3.0 ] = Value.Number 2.0);
  check_bool "false branch" true (exec lir [ Value.Bool false; Value.Number 2.0; Value.Number 3.0 ] = Value.Number 3.0)

let test_parallel_move_swap () =
  (* swap in a loop is the classic parallel-copy cycle *)
  let lir =
    lowered
      "function f(n) { var a = 1; var b = 2; for (var i = 0; i < n; i++) { var t = a; a = b; b = t; } return a * 10 + b; } for (var k = 0; k < 6; k++) { f(3); f(4); }"
  in
  check_bool "odd swaps" true (exec lir [ Value.Number 3.0 ] = Value.Number 21.0);
  check_bool "even swaps" true (exec lir [ Value.Number 4.0 ] = Value.Number 12.0)

let test_sequentialize_moves_cycle () =
  (* three-way rotation through the resolver *)
  let lir =
    lowered
      "function f(n) { var a = 1; var b = 2; var c = 3; for (var i = 0; i < n; i++) { var t = a; a = b; b = c; c = t; } return a * 100 + b * 10 + c; } for (var k = 0; k < 6; k++) { f(1); f(2); f(3); }"
  in
  check_bool "one rotation" true (exec lir [ Value.Number 1.0 ] = Value.Number 231.0);
  check_bool "three rotations" true (exec lir [ Value.Number 3.0 ] = Value.Number 123.0)

let test_regalloc_bounded_registers () =
  (* many simultaneously live values force spill slots *)
  let src =
    "function f(a) { var v0 = a+1; var v1 = a+2; var v2 = a+3; var v3 = a+4; var v4 = a+5; var v5 = a+6; var v6 = a+7; var v7 = a+8; var v8 = a+9; var v9 = a+10; var v10 = a+11; var v11 = a+12; var v12 = a+13; var v13 = a+14; var v14 = a+15; var v15 = a+16; return v0+v1+v2+v3+v4+v5+v6+v7+v8+v9+v10+v11+v12+v13+v14+v15; } for (var k = 0; k < 5; k++) f(k);"
  in
  let lir = lowered src in
  check_bool "spilled" true (lir.Lir.spill_count > 0);
  check_bool "registers reused" true (lir.Lir.n_regs < 80);
  check_bool "still correct" true (exec lir [ Value.Number 0.0 ] = Value.Number 136.0)

let test_regalloc_reuses_registers () =
  let lir =
    lowered
      "function f(a) { var x = a + 1; var y = x + 1; var z = y + 1; return z; } for (var k = 0; k < 5; k++) f(k);"
  in
  check_bool "fits in machine registers" true (lir.Lir.spill_count = 0);
  check_bool "correct" true (exec lir [ Value.Number 1.0 ] = Value.Number 4.0)

let test_bailout_on_type_guard () =
  let lir =
    lowered "function f(a, b) { return a - b; } for (var k = 0; k < 6; k++) f(k, 1);"
  in
  match exec lir [ Value.String "zz"; Value.Number 1.0 ] with
  | exception Lir.Bailout _ -> ()
  | v -> Alcotest.fail ("expected bailout, got " ^ Value.to_display v)

let test_bailout_on_bounds () =
  let lir =
    lowered "function f(a, i) { return a[i]; } var x = [1,2,3]; for (var k = 0; k < 6; k++) f(x, 1);"
  in
  let realm = Realm.create ~size_limit:65536 () in
  let h = Jitbull_runtime.Heap.alloc_array realm.Realm.heap ~length:2 in
  let cb =
    {
      Executor.call_function = (fun _ _ -> Value.Undefined);
      lookup_global = (fun _ -> Value.Undefined);
      store_global = (fun _ _ -> ());
      declare_global = (fun _ -> ());
    }
  in
  match Executor.run lir realm cb [ Value.Array h; Value.Number 99.0 ] with
  | exception Lir.Bailout _ -> ()
  | v -> Alcotest.fail ("expected bailout, got " ^ Value.to_display v)

let test_executor_generic_paths () =
  (* polymorphic access sites compile generic and keep full semantics *)
  let src =
    "function f(o, k) { return o[k]; } var a = [7]; var obj = {x: 9}; print(f(a, 0)); print(f(obj, 'x')); print(f(a, 0)); print(f(obj, 'x')); print(f(a, 0)); print(f(obj, 'x')); print(f(a, 0));"
  in
  assert_tiers_agree ~name:"generic index" src

let test_to_string_roundtrip () =
  let lir = lowered "function f(a) { return a + 1; } for (var k = 0; k < 5; k++) f(k);" in
  let text = Lir.to_string lir in
  check_bool "dump mentions lir" true (String.length text > 10 && String.sub text 0 3 = "lir")

(* ---- engine-level tiering ---- *)

let test_tier_up_sequence () =
  let config =
    { Engine.default_config with Engine.baseline_threshold = 3; ion_threshold = 6 }
  in
  let out, t =
    Engine.run_source config
      "function f(x) { return x * 2; } var s = 0; for (var i = 0; i < 20; i++) { s = f(i); } print(s);"
  in
  check_string "result" "38\n" out;
  let st = Engine.stats t in
  check_int "one baseline compile" 1 st.Engine.baseline_compiles;
  check_int "one ion compile" 1 st.Engine.ion_compiles

let test_nojit_config () =
  let config = { Engine.default_config with Engine.jit_enabled = false } in
  let out, t =
    Engine.run_source config
      "function f(x) { return x + 1; } for (var i = 0; i < 50; i++) { f(i); } print(f(1));"
  in
  check_string "result" "2\n" out;
  check_int "no compiles" 0 (Engine.stats t).Engine.ion_compiles

let test_deopt_blacklists () =
  (* repeated guard failures must blacklist the function and fall back to
     the interpreter, preserving semantics *)
  let config =
    { Engine.default_config with Engine.baseline_threshold = 2; ion_threshold = 3; max_bailouts = 2 }
  in
  let src =
    "function f(a, i) { return a[i]; } var x = [1,2,3]; var s = 0; for (var k = 0; k < 30; k++) { s = f(x, 5); } print(s);"
  in
  let out, t = Engine.run_source config src in
  check_string "OOB read is undefined" "undefined\n" out;
  let st = Engine.stats t in
  check_bool "bailouts happened" true (st.Engine.bailouts > 0);
  check_int "function deopted" 1 st.Engine.deopts

let test_bailout_replay_semantics () =
  (* a guard that fails only sometimes: the bailed calls replay in the
     interpreter and produce correct values *)
  let config =
    { Engine.default_config with Engine.baseline_threshold = 2; ion_threshold = 4; max_bailouts = 1000 }
  in
  let src =
    "function f(a, i) { return a[i]; } var x = [10,20,30]; var s = 0; for (var k = 0; k < 12; k++) { var v = f(x, k % 4); if (typeof v == 'number') { s += v; } } print(s);"
  in
  let out, _ = Engine.run_source config src in
  check_string "mixed in/out of bounds" (interp_output src) out

(* ---- allocated LIR: goldens and the allocator oracle ---- *)

module Vm = Jitbull_bytecode.Vm
module Feedback = Jitbull_bytecode.Feedback
module Builder = Jitbull_mir.Builder
module Pass = Jitbull_passes.Pass
module Pipeline = Jitbull_passes.Pipeline
module Peephole = Jitbull_lir.Peephole
module VC = Jitbull_passes.Vuln_config
module Generator = Jitbull_fuzz.Generator
module Demonstrators = Jitbull_vdc.Demonstrators
module Workloads = Jitbull_workloads.Workloads

(* Every function of [source], built after a VM warm-up, as the MIR each
   of the engine's three lowerings starts from, labelled: the baseline
   tier's (fresh feedback, split critical edges and renumber only), the
   full Ion pipeline's, and the go/no-go recompile's (the pipeline with
   [recompile_disabled] off). The warm-up runs once per partial
   application to [source]. *)
let lowering_mirs source =
  let bc = Compiler.compile (Parser.parse source) in
  let vm = Vm.create bc in
  (try ignore (Vm.run vm) with _ -> ());
  let funcs = bc.Op.funcs in
  let build ?feedback_row idx =
    let feedback_row = Option.value feedback_row ~default:vm.Vm.feedback.(idx) in
    Builder.build funcs.(idx) ~feedback_row
  in
  let inline_resolver idx callee =
    match Hashtbl.find_opt vm.Vm.globals callee with
    | Some (Value.Function c) when c <> idx -> Some (build c)
    | _ -> None
  in
  fun vulns ->
    List.concat_map
      (fun idx ->
        let name = funcs.(idx).Op.name in
        let baseline =
          let fresh = Array.map (fun _ -> Feedback.fresh_site ()) vm.Vm.feedback.(idx) in
          let g = build ~feedback_row:fresh idx in
          Jitbull_passes.Split_critical_edges.pass.Pass.run (Pass.make_ctx vulns) g;
          Mir.renumber g;
          g
        in
        let ion disabled =
          let g = build idx in
          Pipeline.run_quiet vulns ~inline_resolver:(inline_resolver idx) ~disabled g;
          g
        in
        [
          (name ^ " baseline", baseline);
          (name ^ " ion", ion []);
          (name ^ " recompile", ion recompile_disabled);
        ])
      (List.init (Array.length funcs) Fun.id)

(* lower, allocate and peephole, as the engine installs it *)
let allocated g =
  let lir = Lower.lower g in
  Regalloc.allocate lir;
  ignore (Peephole.run lir);
  lir

(* The allocated LIR of every lowering of every function, pinned: for
   each golden program, the MD5 over [Lir.to_string] of [allocated] on
   each of [lowering_mirs] in order. One digest with no bugs active and
   one with all eight. The allocator, lowering and peephole must keep
   these byte for byte; a change that alters their output on purpose
   updates the constants and says why. *)
let allocated_digest mirs =
  let buf = Buffer.create 4096 in
  List.iter (fun (_, g) -> Buffer.add_string buf (Lir.to_string (allocated g))) mirs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* (program, digest with no bugs, digest with all eight bugs) *)
let allocated_golden =
  [
    ("CVE-2019-17026", "082cdb03e8e5a15a97a8272507bae470", "52c10b594deb6f2112afe381bf067624");
    ("CVE-2019-9810", "53463ce38d9537e2a2d54d7f77d68fc6", "35c3f50fac87bf16b0652cc406c170f6");
    ("CVE-2019-9791", "061aecc36befba577d71335c6a574400", "2f9070a217c47c08621da47c897e7e27");
    ("CVE-2019-11707", "1e4c17cacb93629c5bfb6e3c6663a207", "0b9189d89687bf80ae56b48903af4b5e");
    ("CVE-2019-9792", "38edf18fb1862a7e9ef23564180e993e", "a8af347277841e99d492cb92b6bb095c");
    ("CVE-2019-9795", "5c04260386c3e8496174f8e7bc3d21b9", "b2e648a86a758ae36159ee8dda29f5a1");
    ("CVE-2019-9813", "46af250d04f4cade325be0882a8cc07c", "c08859b422a90c68ae115ba0929445ad");
    ("CVE-2020-26952", "56b0e6377cf83f2d6a64709a5e618b25", "4dbd86e8773e95b83fc66f7b18b76a01");
    ("benign00", "efe5916fc31d2b6fcb7ddea87b9d5dfb", "d61e6cc4f0327bdfc5d151f7c954b107");
    ("benign01", "2ed3d20d4f25be3fbf6fbee10316b56f", "12054783e3e5ea120421496caaec01d1");
    ("benign02", "ad7408d20fcad15482234385135c1b68", "c53ed2f3779ebfca801262ab83521be8");
    ("benign03", "46e78492fceb70d35a60c2c46feed0f7", "b7eb17beac783dfbbf2ef031bce119c8");
    ("benign04", "2b1954da90044eb34bf3970e0e1b704f", "9ee200797a15c4771a60cc91545c9557");
    ("benign05", "c73afc31e73934b26af0fd84f949d7b5", "ba28e556af6072354c69580d6e5a2e3a");
    ("benign06", "ac3f6adb3bbb8adfa056542dacc9ad7a", "fee0e88e0f95810dfb9fd3c230b5f8f6");
    ("benign07", "5515493b8f7d98b1054cee3aa6492b21", "ad4286e158fd60d601bb40aa7ce42c4e");
    ("benign08", "d54159c88320808ca32ad250b012b84a", "6df311444b1c7bef92d5dfd9164f3796");
    ("benign09", "b753dd923fb0e161e1e9554d947f2bb8", "9dbf0bde6462467587a44c022fa010d4");
    (* fn6 holds the constants 0 and -0, one pool entry each since the
       pool keys numbers on their bits *)
    ("benign10", "d5fad82fcb4d71e582d4dfb0f3bee948", "7c6c89b679513c118098b2d5b1f62fcb");
    ("benign11", "5fa6db27a95a58654069c396df35138b", "638f83e7d68ab9b3b1bbfc7763724c5d");
    ("benign12", "21e2a28b40dbff07091153aeb81f1914", "bc093f88bbd5aa5d9dacc20768213d90");
    ("benign13", "45e9bde8689d62ae7e542397786defde", "5e09397d89ed40904db23a08879497dc");
    ("benign14", "bf6b8e48a6ef72d59ee167011af44e07", "fe833a89f988432ab60468c07dbffa43");
    ("benign15", "46541bdf8e60b6378f7041a540f94674", "636ba572f7fffb30b924600f6ee30be9");
  ]

let test_allocated_golden () =
  let all = VC.make VC.all in
  let programs = golden_programs () in
  check_int "program count" (List.length allocated_golden) (List.length programs);
  List.iter2
    (fun (name, source) (name', none, buggy) ->
      check_string "program order" name' name;
      let mirs = lowering_mirs source in
      check_string (name ^ " patched passes") none (allocated_digest (mirs VC.none));
      check_string (name ^ " buggy passes") buggy (allocated_digest (mirs all)))
    programs allocated_golden

(* The allocator before block-level liveness, kept as the oracle the
   linear-time one must match: liveness as a per-instruction fixed point
   over [Set.Make (Int)], every live vreg touched at every pc, and for
   each interval a scan that partitions and re-sorts the active list. *)
module Reference = struct
  module IS = Set.Make (Int)

  let sources (f : Lir.func) (i : Lir.inst) : int list =
    let reg x = if x >= 0 then [ x ] else [] in
    match i.Lir.kind with
    | Lir.Kconst | Lir.Kparam | Lir.Knew_array | Lir.Knew_object | Lir.Kload_global
    | Lir.Kdeclare_global | Lir.Kgoto ->
      []
    | Lir.Kmove | Lir.Kunbox_number | Lir.Kunbox_int32 | Lir.Kguard_array | Lir.Knegate
    | Lir.Kbitnot | Lir.Knot | Lir.Ktypeof | Lir.Ktonumber | Lir.Kelements
    | Lir.Kinit_length | Lir.Karray_length | Lir.Karray_pop | Lir.Kget_prop
    | Lir.Kstore_global ->
      reg i.Lir.a
    | Lir.Ktest | Lir.Kreturn -> reg i.Lir.a
    | Lir.Kbounds_check | Lir.Kadd | Lir.Kbin _ | Lir.Kcompare _ | Lir.Kload_element
    | Lir.Kset_array_length | Lir.Karray_push | Lir.Kset_prop | Lir.Kget_index_gen ->
      reg i.Lir.a @ reg i.Lir.b
    | Lir.Kstore_element | Lir.Kset_index_gen -> reg i.Lir.a @ reg i.Lir.b @ reg i.Lir.c
    | Lir.Kcall | Lir.Kcall_method -> reg i.Lir.a @ Array.to_list f.Lir.call_args.(i.Lir.imm)

  let defines (i : Lir.inst) = if i.Lir.dst >= 0 then [ i.Lir.dst ] else []

  let successors (f : Lir.func) pc =
    let i = f.Lir.code.(pc) in
    match i.Lir.kind with
    | Lir.Kgoto -> [ i.Lir.imm ]
    | Lir.Ktest -> [ i.Lir.imm; i.Lir.b ]
    | Lir.Kreturn -> []
    | _ -> [ pc + 1 ]

  let intervals (f : Lir.func) =
    let n = Array.length f.Lir.code and nv = f.Lir.n_regs in
    let live_in = Array.make n IS.empty in
    let changed = ref true in
    while !changed do
      changed := false;
      for pc = n - 1 downto 0 do
        let i = f.Lir.code.(pc) in
        let out =
          List.fold_left (fun acc s -> IS.union acc live_in.(s)) IS.empty (successors f pc)
        in
        let inn =
          IS.union (IS.of_list (sources f i)) (IS.diff out (IS.of_list (defines i)))
        in
        if not (IS.equal inn live_in.(pc)) then begin
          live_in.(pc) <- inn;
          changed := true
        end
      done
    done;
    let start = Array.make nv max_int and stop = Array.make nv (-1) in
    let touch pc v =
      if v >= 0 && v < nv then begin
        if pc < start.(v) then start.(v) <- pc;
        if pc > stop.(v) then stop.(v) <- pc
      end
    in
    for pc = 0 to n - 1 do
      let i = f.Lir.code.(pc) in
      List.iter (touch pc) (defines i);
      List.iter (touch pc) (sources f i);
      IS.iter (touch pc) live_in.(pc)
    done;
    (start, stop)

  let allocate (f : Lir.func) =
    let nv = f.Lir.n_regs in
    if Array.length f.Lir.code > 0 then begin
      let start, stop = intervals f in
      let assignment = Array.make nv (-1) in
      let order =
        List.filter (fun v -> stop.(v) >= 0) (List.init nv Fun.id)
        |> List.sort (fun v1 v2 -> compare start.(v1) start.(v2))
      in
      let free = Queue.create () in
      for r = 0 to Lir.machine_registers - 1 do
        Queue.add r free
      done;
      let active = ref [] in
      let next_slot = ref Lir.machine_registers in
      let spills = ref 0 in
      List.iter
        (fun v ->
          let expired, still = List.partition (fun (e, _) -> e < start.(v)) !active in
          List.iter (fun (_, r) -> Queue.add r free) expired;
          active := still;
          if Queue.is_empty free then begin
            assignment.(v) <- !next_slot;
            incr next_slot;
            incr spills
          end
          else begin
            let r = Queue.take free in
            assignment.(v) <- r;
            active :=
              List.sort (fun (e1, _) (e2, _) -> compare e1 e2) ((stop.(v), r) :: !active)
          end)
        order;
      let map v = if v >= 0 && assignment.(v) >= 0 then assignment.(v) else v in
      Array.iter
        (fun (i : Lir.inst) ->
          (match i.Lir.kind with
          | Lir.Ktest -> i.Lir.a <- map i.Lir.a
          | Lir.Kcall | Lir.Kcall_method ->
            i.Lir.a <- map i.Lir.a;
            f.Lir.call_args.(i.Lir.imm) <- Array.map map f.Lir.call_args.(i.Lir.imm)
          | _ ->
            i.Lir.a <- map i.Lir.a;
            i.Lir.b <- map i.Lir.b;
            i.Lir.c <- map i.Lir.c);
          i.Lir.dst <- map i.Lir.dst)
        f.Lir.code;
      f.Lir.n_regs <- max Lir.machine_registers !next_slot;
      f.Lir.spill_count <- !spills
    end
end

(* [None] when [Regalloc] and [Reference] agree on [g]'s intervals and
   allocated LIR, else what differs. *)
let oracle_disagreement (label, g) =
  let expected = Lower.lower g and actual = Lower.lower g in
  if Reference.intervals expected <> Regalloc.intervals actual then
    Some (label ^ ": intervals differ")
  else begin
    Reference.allocate expected;
    Regalloc.allocate actual;
    let e = Lir.to_string expected and a = Lir.to_string actual in
    if String.equal e a then None
    else Some (Printf.sprintf "%s: allocated LIR differs\n%s\nagainst\n%s" label a e)
  end

(* Every lowering of every function of each program, with no bugs and
   with all eight. *)
let check_oracle programs =
  let all = VC.make VC.all in
  List.iter
    (fun (name, source) ->
      let mirs = lowering_mirs source in
      List.iter
        (fun vulns ->
          List.iter
            (fun mir ->
              match oracle_disagreement mir with
              | None -> ()
              | Some msg -> Alcotest.fail (name ^ " " ^ msg))
            (mirs vulns))
        [ VC.none; all ])
    programs

let test_oracle_demonstrators () =
  check_oracle
    (List.map
       (fun (d : Demonstrators.t) -> (d.Demonstrators.name, d.Demonstrators.source))
       Demonstrators.all)

let test_oracle_octane () =
  check_oracle
    (List.map (fun (w : Workloads.t) -> (w.Workloads.name, w.Workloads.source)) Workloads.everything)

let qcheck_oracle_generated =
  QCheck.Test.make ~count:(qcheck_count 20) ~name:"allocator == reference on generated programs"
    QCheck.(pair (int_bound 100_000) bool)
    (fun (seed, buggy) ->
      let source =
        Generator.benign_params
          { Generator.p_seed = seed; p_funcs = 4; p_rounds = 20; p_depth = 2 }
      in
      let vulns = if buggy then VC.make VC.all else VC.none in
      List.for_all
        (fun mir ->
          match oracle_disagreement mir with
          | None -> true
          | Some msg -> QCheck.Test.fail_report msg)
        (lowering_mirs source vulns))

let suite =
  ( "lir+engine",
    [
      Alcotest.test_case "lower simple" `Quick test_lower_simple;
      Alcotest.test_case "lower loop" `Quick test_lower_loop;
      Alcotest.test_case "branch phis" `Quick test_lower_branch_phis;
      Alcotest.test_case "parallel move swap" `Quick test_parallel_move_swap;
      Alcotest.test_case "parallel move rotation" `Quick test_sequentialize_moves_cycle;
      Alcotest.test_case "regalloc spills" `Quick test_regalloc_bounded_registers;
      Alcotest.test_case "regalloc reuses" `Quick test_regalloc_reuses_registers;
      Alcotest.test_case "bailout on type guard" `Quick test_bailout_on_type_guard;
      Alcotest.test_case "bailout on bounds" `Quick test_bailout_on_bounds;
      Alcotest.test_case "generic paths" `Quick test_executor_generic_paths;
      Alcotest.test_case "lir dump" `Quick test_to_string_roundtrip;
      Alcotest.test_case "tier-up sequence" `Quick test_tier_up_sequence;
      Alcotest.test_case "nojit config" `Quick test_nojit_config;
      Alcotest.test_case "deopt blacklists" `Quick test_deopt_blacklists;
      Alcotest.test_case "bailout replay" `Quick test_bailout_replay_semantics;
      Alcotest.test_case "allocated LIR golden" `Quick test_allocated_golden;
      Alcotest.test_case "allocator oracle: demonstrators" `Quick test_oracle_demonstrators;
      Alcotest.test_case "allocator oracle: octane" `Quick test_oracle_octane;
      qtest qcheck_oracle_generated;
    ] )
