(* The native x86-64 Ion backend: encoder golden bytes, NaN-box codec,
   native==executor differential equivalence, the W^X code-page
   lifecycle, and the structural guarantee that a Forbid verdict never
   maps a page.

   Every test that needs to *run* generated code is guarded on
   [Native.enabled ()], so the suite stays green on non-x86-64 hosts and
   under the forced-fallback CI leg (JITBULL_NO_NATIVE=1) — there the
   equivalence tests degenerate to executor==executor, which is exactly
   the fallback contract. *)

open Helpers
module Native = Jitbull_native.Native
module Exec_mem = Jitbull_native.Exec_mem
module Asm = Jitbull_native.Asm
module Nanbox = Jitbull_runtime.Nanbox
module Value = Jitbull_runtime.Value
module Db = Jitbull_core.Db
module Jitbull = Jitbull_core.Jitbull
module V = Jitbull_vdc.Demonstrators
module Obs = Jitbull_obs.Obs
module Metrics = Jitbull_obs.Metrics
module F = Jitbull_fuzz
module Op = Jitbull_bytecode.Op
module Executor = Jitbull_lir.Executor

let when_native f () = if Native.enabled () then f ()

(* ---- encoder golden bytes ---- *)

let hex b =
  String.concat " "
    (List.init (Bytes.length b) (fun i ->
         Printf.sprintf "%02x" (Char.code (Bytes.get b i))))

let golden name expected build =
  let a = Asm.create () in
  build a;
  check_string name expected (hex (Asm.finalize a))

let test_encoder_golden () =
  (* a slot displacement takes a disp8 up to slot 15, a disp32 past it *)
  golden "mov rax, [rdi+24]" "48 8b 47 18" (fun a -> Asm.mov_r_slot a Asm.rax 3);
  golden "mov [rdi+24], rcx" "48 89 4f 18" (fun a -> Asm.mov_slot_r a 3 Asm.rcx);
  golden "mov r8, [rdi+0]" "4c 8b 47 00" (fun a -> Asm.mov_r_slot a Asm.r8 0);
  golden "mov rax, [rdi+120]" "48 8b 47 78" (fun a -> Asm.mov_r_slot a Asm.rax 15);
  golden "mov rax, [rdi+128]" "48 8b 87 80 00 00 00" (fun a ->
      Asm.mov_r_slot a Asm.rax 16);
  golden "mov [rdi+128], r8" "4c 89 87 80 00 00 00" (fun a ->
      Asm.mov_slot_r a 16 Asm.r8);
  golden "movabs rcx, canonical-NaN" "48 b9 00 00 00 00 00 00 f8 7f" (fun a ->
      Asm.movabs a Asm.rcx 0x7FF8000000000000L);
  golden "movabs r11, imm" "49 bb ff 00 00 00 00 00 00 00" (fun a ->
      Asm.movabs a Asm.r11 0xFFL);
  golden "mov eax, imm32" "b8 12 00 00 00" (fun a -> Asm.mov_eax_imm a 0x12);
  golden "ret" "c3" Asm.ret;
  golden "addsd xmm0, xmm1" "f2 0f 58 c1" (fun a -> Asm.addsd a Asm.xmm0 Asm.xmm1);
  golden "mulsd xmm1, xmm0" "f2 0f 59 c8" (fun a -> Asm.mulsd a Asm.xmm1 Asm.xmm0);
  golden "ucomisd xmm0, xmm1" "66 0f 2e c1" (fun a ->
      Asm.ucomisd a Asm.xmm0 Asm.xmm1);
  golden "cvttsd2si rax, xmm0" "f2 48 0f 2c c0" (fun a ->
      Asm.cvttsd2si a Asm.rax Asm.xmm0);
  golden "cvtsi2sd xmm1, rax" "f2 48 0f 2a c8" (fun a ->
      Asm.cvtsi2sd a Asm.xmm1 Asm.rax);
  golden "movq xmm0, rcx" "66 48 0f 6e c1" (fun a -> Asm.movq_x_r a Asm.xmm0 Asm.rcx);
  golden "movq rcx, xmm0" "66 48 0f 7e c1" (fun a -> Asm.movq_r_x a Asm.rcx Asm.xmm0);
  golden "sete al" "0f 94 c0" (fun a -> Asm.setcc a Asm.cc_e Asm.rax);
  golden "movzx eax, al" "0f b6 c0" Asm.movzx_eax_al;
  golden "shl edx, cl" "d3 e2" (fun a -> Asm.shl_cl32 a Asm.rdx);
  golden "sar edx, cl" "d3 fa" (fun a -> Asm.sar_cl32 a Asm.rdx);
  golden "movsxd r11, eax" "4c 63 d8" (fun a -> Asm.movsxd a ~dst:Asm.r11 ~src:Asm.rax);
  (* the heap reads' forms *)
  golden "mov rdx, [rsi+16]" "48 8b 56 10" (fun a ->
      Asm.mov_r_mem a Asm.rdx ~base:Asm.rsi ~disp:16);
  golden "mov rdx, [rsi-128]" "48 8b 56 80" (fun a ->
      Asm.mov_r_mem a Asm.rdx ~base:Asm.rsi ~disp:(-128));
  golden "mov rdx, [rsi+127]" "48 8b 56 7f" (fun a ->
      Asm.mov_r_mem a Asm.rdx ~base:Asm.rsi ~disp:127);
  golden "mov rdx, [rsi+128]" "48 8b 96 80 00 00 00" (fun a ->
      Asm.mov_r_mem a Asm.rdx ~base:Asm.rsi ~disp:128);
  golden "mov rdx, [rsi-129]" "48 8b 96 7f ff ff ff" (fun a ->
      Asm.mov_r_mem a Asm.rdx ~base:Asm.rsi ~disp:(-129));
  golden "mov rax, [r8+8]" "49 8b 40 08" (fun a ->
      Asm.mov_r_mem a Asm.rax ~base:Asm.r8 ~disp:8);
  golden "mov r8, [rdx+8*rcx]" "4c 8b 04 ca" (fun a ->
      Asm.mov_r_index a Asm.r8 ~base:Asm.rdx ~index:Asm.rcx);
  golden "mov rax, [rdx+8*r8]" "4a 8b 04 c2" (fun a ->
      Asm.mov_r_index a Asm.rax ~base:Asm.rdx ~index:Asm.r8);
  golden "and r8, 1023" "49 81 e0 ff 03 00 00" (fun a -> Asm.and_r_imm a Asm.r8 1023);
  golden "cmp rax, -1" "48 81 f8 ff ff ff ff" (fun a -> Asm.cmp_r_imm a Asm.rax (-1));
  golden "add r8, 2" "49 81 c0 02 00 00 00" (fun a -> Asm.add_r_imm a Asm.r8 2);
  golden "test rax, rax" "48 85 c0" (fun a -> Asm.test_rr a Asm.rax Asm.rax);
  golden "div ecx" "f7 f1" (fun a -> Asm.div_r32 a Asm.rcx);
  golden "mov eax, r8d" "44 89 c0" (fun a -> Asm.mov_rr32 a ~dst:Asm.rax ~src:Asm.r8);
  golden "shl rcx, 16" "48 c1 e1 10" (fun a -> Asm.shl_r_imm a Asm.rcx 16);
  golden "sar rax, 1" "48 c1 f8 01" (fun a -> Asm.sar_r_imm a Asm.rax 1)

let test_encoder_rel32_patching () =
  (* forward: the 6-byte jcc skips the first ret (rel32 = +1) *)
  golden "je +1 over a ret" "0f 84 01 00 00 00 c3 c3" (fun a ->
      let l = Asm.new_label a in
      Asm.jcc a Asm.cc_e l;
      Asm.ret a;
      Asm.bind a l;
      Asm.ret a);
  (* backward: jmp to position 0 from a hole ending at 6 (rel32 = -6) *)
  golden "jmp -6 to entry" "c3 e9 fa ff ff ff" (fun a ->
      let l = Asm.new_label a in
      Asm.bind a l;
      Asm.ret a;
      Asm.jmp a l);
  (* an unbound label with holes must be rejected, not emitted as 0 *)
  let a = Asm.create () in
  let l = Asm.new_label a in
  Asm.jmp a l;
  check_bool "unbound label rejected" true
    (match Asm.finalize a with
    | exception Failure _ -> true
    | _ -> false)

(* ---- NaN-box codec ---- *)

let test_nanbox_specials () =
  let side = Nanbox.side_create () in
  let bits f = Int64.bits_of_float f in
  List.iter
    (fun f ->
      check_bool
        (Printf.sprintf "number %h round-trips bit-exactly" f)
        true
        (Nanbox.encode side (Value.Number f) = bits f))
    [ 0.0; -0.0; 1.5; -1.5; Float.infinity; Float.neg_infinity; Float.max_float ];
  (* every NaN payload canonicalizes on encode; decode is still NaN *)
  let noisy_nan = Int64.float_of_bits 0x7FF0000000000BADL in
  check_bool "NaN canonicalized" true
    (Nanbox.encode side (Value.Number noisy_nan) = Nanbox.canonical_nan);
  (match Nanbox.decode side Nanbox.canonical_nan with
  | Value.Number f -> check_bool "canonical NaN decodes to NaN" true (Float.is_nan f)
  | v -> Alcotest.fail ("canonical NaN decoded to " ^ Value.type_name v));
  (* singletons *)
  List.iter
    (fun (v, b) ->
      check_bool (Value.to_display v ^ " encodes to its singleton") true
        (Nanbox.encode side v = b);
      check_bool (Value.to_display v ^ " decodes back") true (Nanbox.decode side b = v))
    [
      (Value.Undefined, Nanbox.bits_undefined);
      (Value.Null, Nanbox.bits_null);
      (Value.Bool false, Nanbox.bits_false);
      (Value.Bool true, Nanbox.bits_true);
    ];
  (* the is-number boundary: everything unsigned-below bits_min_tag is a
     number (even non-canonical negative NaN patterns, unreachable after
     encode), everything at or above is a tag *)
  check_bool "just below the tag space is a number" true
    (Nanbox.is_number (Int64.pred Nanbox.bits_min_tag));
  check_bool "bits_min_tag is not a number" false (Nanbox.is_number Nanbox.bits_min_tag);
  check_bool "undefined is not a number" false (Nanbox.is_number Nanbox.bits_undefined);
  check_bool "true is not a number" false (Nanbox.is_number Nanbox.bits_true);
  check_bool "-1.0 is a number" true (Nanbox.is_number (bits (-1.0)))

let test_nanbox_heap_values () =
  let side = Nanbox.side_create () in
  (* arrays and functions ride in the payload, not the side table *)
  check_bool "array round-trips" true
    (Nanbox.decode side (Nanbox.encode side (Value.Array 42)) = Value.Array 42);
  check_bool "function round-trips" true
    (Nanbox.decode side (Nanbox.encode side (Value.Function 7)) = Value.Function 7);
  (* strings go through the side table and stay GC-rooted *)
  let b1 = Nanbox.encode side (Value.String "hello") in
  let b2 = Nanbox.encode side (Value.String "world") in
  check_bool "string 1 round-trips" true
    (Nanbox.decode side b1 = Value.String "hello");
  check_bool "string 2 round-trips" true
    (Nanbox.decode side b2 = Value.String "world");
  (* side_reset keeps the constant prefix and drops activations' refs *)
  let side2 = Nanbox.side_create () in
  let c = Nanbox.encode side2 (Value.String "const") in
  Nanbox.side_reset side2 ~preload:1;
  check_bool "preload survives reset" true
    (Nanbox.decode side2 c = Value.String "const");
  let again = Nanbox.encode side2 (Value.String "fresh") in
  check_bool "slots reused after reset" true
    (Nanbox.decode side2 again = Value.String "fresh")

(* Storing into a full side table compacts it: the preload and what the
   registers reference stay, renumbered, so a table sized to the preload
   plus one slot per register never grows. *)
let test_side_table_compaction () =
  let n_slots = 4 in
  let regs = Exec_mem.make_regfile n_slots in
  Bigarray.Array1.fill regs Nanbox.bits_undefined;
  let side = Nanbox.side_create ~size:(1 + n_slots) () in
  ignore (Nanbox.side_push side (Value.String "const"));
  Nanbox.side_reset side ~preload:1;
  for k = 0 to 99 do
    Nanbox.store side regs (k mod n_slots) (Value.String (string_of_int k));
    (* a copied register shares its slot until the next compaction *)
    if k mod 10 = 0 then Bigarray.Array1.set regs ((k + 1) mod n_slots) regs.{k mod n_slots}
  done;
  Nanbox.store side regs 2 (Value.Number 2.5);
  List.iteri
    (fun r v ->
      check_string (Printf.sprintf "register %d" r) v (Value.to_display (Nanbox.load side regs r)))
    [ "96"; "97"; "2.5"; "99" ];
  check_bool "the preload survives" true
    (Nanbox.decode side (Nanbox.tagged Nanbox.tag_side 0) = Value.String "const");
  check_bool "the next free slot is within the table" true
    (Nanbox.side_push side Value.Null <= n_slots)

let qcheck_nanbox_roundtrip =
  QCheck.Test.make ~count:(qcheck_count 500) ~name:"nanbox float round-trip"
    QCheck.float (fun f ->
      let side = Nanbox.side_create () in
      let b = Nanbox.encode side (Value.Number f) in
      Nanbox.is_number b
      &&
      match Nanbox.decode side b with
      | Value.Number g ->
        if Float.is_nan f then Float.is_nan g
        else Int64.bits_of_float g = Int64.bits_of_float f
      | _ -> false)

(* ---- W^X lifecycle (Exec_mem) ---- *)

let maps_line_for (addr : nativeint) =
  if not (Sys.file_exists "/proc/self/maps") then None
  else begin
    let prefix = Printf.sprintf "%nx-" addr in
    let ic = open_in "/proc/self/maps" in
    let found = ref None in
    (try
       while true do
         let line = input_line ic in
         if String.length line > String.length prefix
            && String.equal (String.sub line 0 (String.length prefix)) prefix
         then found := Some line
       done
     with End_of_file -> ());
    close_in ic;
    !found
  end

let test_exec_mem_wx_lifecycle =
  when_native (fun () ->
      let before = Exec_mem.stats () in
      (* mov eax, 0x42; ret *)
      let a = Asm.create () in
      Asm.mov_eax_imm a 0x42;
      Asm.ret a;
      let region = Exec_mem.install (Asm.finalize a) in
      let during = Exec_mem.stats () in
      check_int "one map" (before.Exec_mem.s_maps_total + 1) during.Exec_mem.s_maps_total;
      check_int "one more live region" (before.Exec_mem.s_live_regions + 1)
        during.Exec_mem.s_live_regions;
      check_bool "region flagged mapped" true region.Exec_mem.mapped;
      (* the page is executable-not-writable, never W+X *)
      (match maps_line_for region.Exec_mem.addr with
      | None -> () (* no /proc (non-Linux): the mprotect contract stands alone *)
      | Some line ->
        check_bool ("installed page is r-x in: " ^ line) true
          (String.length line > 0
          &&
          let fields = String.split_on_char ' ' line in
          match List.nth_opt fields 1 with
          | Some perms ->
            String.equal (String.sub perms 0 4) "r-xp"
          | None -> false));
      (* the sealed page actually runs *)
      let regs = Exec_mem.make_regfile 4 in
      check_int "generated code returns" 0x42 (Exec_mem.call region 0 regs regs);
      Exec_mem.release region;
      check_bool "unmapped" false region.Exec_mem.mapped;
      let after = Exec_mem.stats () in
      check_int "one unmap" (during.Exec_mem.s_unmaps_total + 1)
        after.Exec_mem.s_unmaps_total;
      check_int "live count restored" before.Exec_mem.s_live_regions
        after.Exec_mem.s_live_regions;
      check_bool "page gone from the address space" true
        (maps_line_for region.Exec_mem.addr = None);
      (* release is idempotent *)
      Exec_mem.release region;
      check_int "double release unmaps once"
        after.Exec_mem.s_unmaps_total
        (Exec_mem.stats ()).Exec_mem.s_unmaps_total)

(* ---- native == executor differential equivalence ---- *)

let native_cfg = { jit_config with Engine.native = true }
let executor_cfg = { jit_config with Engine.native = false }

(* Semantic corners the lowering handles specially: each runs hot enough
   to reach Ion, so with the native backend enabled the loop body is
   machine code. *)
let edge_corpus =
  [
    (* NaN falls through a bounds check without bailing (unordered jb) *)
    "function f(a, i) { return a[i]; } var x = [1,2,3]; var s = '';\n\
     for (var k = 0; k < 20; k = k + 1) { s = f(x, 0/0); } print(s);";
    (* -0 is falsy and prints as 0 *)
    "function f(x) { if (x) { return 1; } return -x; }\n\
     var r = 0; for (var k = 0; k < 20; k = k + 1) { r = f(-0); } print(r);";
    (* int32 edges: wraparound, negative shift operands, >>> zero-fill *)
    "function f(n) { return ((n | 0) + (1 << 30) + (1 << 30)) | 0; }\n\
     var r = 0; for (var k = 0; k < 20; k = k + 1) { r = f(k); } print(r);";
    "function f(h) { return (h << 33) + (h >> 1) + (h >>> 1); }\n\
     var r = 0; for (var k = 0; k < 20; k = k + 1) { r = f(-5); } print(r);";
    "function f(x) { return -x >>> 0; }\n\
     var r = 0; for (var k = 0; k < 20; k = k + 1) { r = f(1); } print(r);";
    (* non-int32 doubles exit to the host for bit ops, same as executor *)
    "function f(x) { return (x & 3) + (x | 0); }\n\
     var r = 0; for (var k = 0; k < 20; k = k + 1) { r = f(2.5); } print(r);";
    (* NaN comparisons: every relational is false, != is true *)
    "function f(x) { var c = 0; if (x < 1) c = c + 1; if (x >= 1) c = c + 2;\n\
     if (x == x) c = c + 4; if (x != x) c = c + 8; return c; }\n\
     var r = 0; for (var k = 0; k < 20; k = k + 1) { r = f(0/0); } print(r);";
    (* truthiness across the boxed kinds *)
    "function f(x) { if (x) { return 1; } return 0; }\n\
     var s = '';\n\
     for (var k = 0; k < 20; k = k + 1) {\n\
       s = '' + f(0) + f(1) + f('') + f('a') + f(null) + f(undefined) + f([]) + f(0/0);\n\
     } print(s);";
    (* a guard failure after tier-up: identical bailout + replay *)
    "function f(x) { return x + 1; }\n\
     var r = 0; for (var k = 0; k < 20; k = k + 1) { r = f(k); }\n\
     print(f('s')); print(r);";
    (* heavy ops (strings, calls, arrays) exit to the host mid-loop *)
    "function g(x) { return x * 2; }\n\
     function f(n) { var s = 0; var a = [1,2,3];\n\
       for (var i = 0; i < n; i = i + 1) { s = s + g(i) + a[i % 3]; }\n\
       return s + 'x'; }\n\
     for (var k = 0; k < 10; k = k + 1) { f(20); } print(f(20));";
    (* 0 and -0 are two constants: infinities of opposite sign, sum NaN *)
    "function g(x) { return 1/(x*0) + 1/(x*-0); }\n\
     var r = 0; for (var k = 0; k < 20; k = k + 1) { r = g(1); } print(r);";
    (* element indices at the host exit: fractional, -0, past the end *)
    "function f(a, i) { return a[i]; } var x = [1,2,3]; var s = '';\n\
     for (var k = 0; k < 20; k = k + 1) { s = '' + f(x, 1) + f(x, -0) + f(x, 1.5); }\n\
     print(s + f(x, 3) + f(x, -1));";
    "function f(a, i, v) { a[i] = v; return a[0] + a[1]; } var x = [1,2]; var r = 0;\n\
     for (var k = 0; k < 20; k = k + 1) { r = f(x, -0, k) + f(x, 1, 7); } print(r + ' ' + x[0]);";
    (* % on NaN, -0 and the infinities (1/r shows the sign of a zero) *)
    "function f(x, y) { return x % y; } var s = '';\n\
     for (var k = 0; k < 20; k = k + 1) {\n\
       s = '' + f(5, 0/0) + f(0/0, 2) + 1/f(-0, 3) + f(5, 1/0) + f(5, -1/0)\n\
         + f(1/0, 5) + f(5, 0) + f(-5, 3) + 1/f(-6, 3) + f(5.5, 2);\n\
     } print(s);";
    (* % past the int32 fast path: a negative or -0 dividend, a zero or
       negative divisor, int32 overflow, fractions, NaN and infinities;
       1/r shows the sign of a zero result *)
    "function f(x, y) { return x % y; } var s = '';\n\
     for (var k = 0; k < 20; k = k + 1) {\n\
       s = '' + 1/f(-0, 5) + ' ' + 1/f(-4, 2) + ' ' + f(k, 0) + ' ' + f(-7, 3) + ' '\n\
         + 1/f(-2147483648, -1) + ' ' + f(2147483648, 7) + ' ' + f(5.5, 2) + ' '\n\
         + f(0/0, 3) + ' ' + f(3, 0/0) + ' ' + f(1/0, 3) + ' ' + f(-1/0, 3) + ' '\n\
         + f(3, 1/0) + ' ' + f(3, -1/0) + ' ' + f(k, 7) + ' ' + 1/f(0, 7) + ' '\n\
         + f(2147483647, 2147483647) + ' ' + f(2147483646, 2147483647) + ' ' + f(7, -3);\n\
     } print(s);";
    (* element reads of a hole, a string, a function, a nested array
       (its length shown, not its handle) and the singletons, and
       lengths read in the loop *)
    "function g() { return 1; }\n\
     function f(a) { var s = ''; for (var i = 0; i < a.length; i = i + 1) {\n\
       var e = a[i]; if (typeof e == 'object' && e) { e = e.length; } s = s + e + ','; }\n\
       return s + a.length; }\n\
     var a = [1, 'str', g, [2, 3], 0/0, -0, true, null]; a.length = 10; a[9] = 2.5;\n\
     var r = ''; for (var k = 0; k < 20; k = k + 1) { r = f(a); } print(r);";
    "function f(a, i) { var o = a[i]; return o.k; }\n\
     var a = [{ k: 1 }, { k: 'two' }]; var r = '';\n\
     for (var k = 0; k < 20; k = k + 1) { r = '' + f(a, k % 2) + f(a, 1); } print(r);";
    (* a length read after the host grew the array *)
    "function f(a, n) { for (var i = 0; i < n; i = i + 1) { a.push(i); }\n\
     return a.length + a[n - 1]; }\n\
     var r = 0; for (var k = 1; k < 20; k = k + 1) { r = f([], k * 3); } print(r);";
    (* [var x] after [x = 1] keeps 1 *)
    "function f(k) { return x + k; } x = 1; var x; var r = 0;\n\
     for (var k = 0; k < 20; k = k + 1) { r = f(k); } print(r + ' ' + x);";
    (* a function name rebound at top level, before and inside the loop *)
    "function g(x) { return x + 1; } function h(x) { return x * 10; } g = h;\n\
     function f(k) { return g(k) + 1; } var r = 0;\n\
     for (var k = 0; k < 20; k = k + 1) { r = r + f(k); } print(r);";
    "function g(x) { return x + 1; } function h(x) { return x * 10; }\n\
     function f(k) { return g(k); } var r = 0;\n\
     for (var k = 0; k < 20; k = k + 1) { if (k == 10) { g = h; } r = r + f(k); } print(r);";
    (* a global first created by a store inside a function, hot or not *)
    "function init() { made = 7; } function f(k) { last = k; return made + k; }\n\
     init(); var r = 0; for (var k = 0; k < 20; k = k + 1) { r = r + f(k); }\n\
     print(r + ' ' + last + ' ' + made);";
    (* builtins read as globals, called and stored *)
    "var M = Math; var p = print;\n\
     function f(k) { if (k % 7 == 0) { p(Math.floor(k / 2)); } return M.max(k, 3); }\n\
     var r = 0; for (var k = 0; k < 20; k = k + 1) { r = r + f(k); } print(r);";
  ]

(* Edge programs that end in an error, which every tier must raise alike:
   an undefined global read from hot code. *)
let edge_corpus_raising =
  [
    "function f(k) { if (k > 15) { return missing + k; } return k; }\n\
     var r = 0; for (var k = 0; k < 20; k = k + 1) { r = f(k); } print(r);";
  ]

let test_edge_corpus_equivalence () =
  let check ~raises src =
    (* Only a raising program's error is caught and compared; any other
       program that raises fails the test. *)
    let outcome run =
      if raises then (try run () with e -> "error: " ^ Printexc.to_string e) else run ()
    in
    let reference = outcome (fun () -> interp_output src) in
    check_bool "raises as expected" raises (String.starts_with ~prefix:"error:" reference);
    check_string "vm matches interpreter" reference (outcome (fun () -> vm_output src));
    let engine cfg =
      let eng = Engine.create cfg (Compiler.compile (Parser.parse src)) in
      (outcome (fun () -> Engine.run eng), Engine.stats eng)
    in
    let out_n, sn = engine native_cfg in
    let out_e, se = engine executor_cfg in
    check_string "native matches interpreter" reference out_n;
    check_string "executor matches interpreter" reference out_e;
    check_int "same ion compiles" se.Engine.ion_compiles sn.Engine.ion_compiles;
    check_int "same bailouts" se.Engine.bailouts sn.Engine.bailouts;
    check_int "executor leg installs no native code" 0 se.Engine.native_installs;
    if Native.enabled () && sn.Engine.ion_compiles > 0 then
      check_bool "native leg ran machine code" true (sn.Engine.native_installs > 0)
  in
  List.iter (check ~raises:false) edge_corpus;
  List.iter (check ~raises:true) edge_corpus_raising

(* A native loop building a string per iteration keeps only the strings
   its registers hold: it once kept every one until the next call. *)
let test_string_loop_equivalence () =
  let src =
    "function f(n) { var s = ''; for (var i = 0; i < n; i = i + 1) { s = s + 'a'; }\n\
     return s.length; }\n\
     for (var k = 0; k < 10; k = k + 1) { print(f(2000 + k)); }"
  in
  check_string "native matches interpreter" (interp_output src)
    (fst (Engine.run_source native_cfg src))

(* Callbacks for hand-built LIR that calls and touches no globals. *)
let no_callbacks =
  { Executor.call_function = (fun _ _ -> Value.Undefined);
    lookup_global = (fun _ -> Value.Undefined);
    store_global = (fun _ _ -> ()); declare_global = (fun _ -> ()) }

(* The host exits' array and [%] operations over what only a removed
   guard lets reach them: receivers that are not arrays, indices and
   operands that are not numbers. A hand-built [x OP y] with no guard in
   front must give the executor's value, heap and exception, each run on
   a fresh realm whose array [1, 2, 3] has the same handle. *)
let test_unguarded_exits =
  when_native (fun () ->
      let module Lir = Jitbull_lir.Lir in
      let module Heap = Jitbull_runtime.Heap in
      let module Realm = Jitbull_runtime.Realm in
      let inst kind ~dst ~a ~b ~imm = { (Lir.make_inst kind) with Lir.dst; a; b; c = b; imm } in
      let func kind =
        let ret = if kind = Lir.Kstore_element then 0 else 2 in
        {
          Lir.name = "unguarded"; arity = 2; consts = [||]; names = [||];
          call_args = [||]; fields = Array.make 4 []; n_regs = 3; spill_count = 0;
          code =
            [| inst Lir.Kparam ~dst:0 ~a:(-1) ~b:(-1) ~imm:0;
               inst Lir.Kparam ~dst:1 ~a:(-1) ~b:(-1) ~imm:1;
               inst kind ~dst:(if ret = 2 then 2 else -1) ~a:0 ~b:1 ~imm:0;
               inst Lir.Kreturn ~dst:(-1) ~a:ret ~b:(-1) ~imm:0 |];
        }
      in
      let outcome run x y =
        let realm = Realm.create () in
        let h = Heap.alloc_array realm.Realm.heap ~length:3 in
        List.iteri (fun k v -> Heap.set realm.Realm.heap h k (Value.Number v)) [ 1.; 2.; 3. ];
        let arg = function `Arr -> Value.Array h | `V v -> v in
        let res =
          try Value.to_display (run realm [ arg x; arg y ]) with e -> Printexc.to_string e
        in
        res ^ " | " ^ String.concat "," (List.init 4 (fun k ->
            Value.to_display (Heap.get_unchecked realm.Realm.heap h k)))
      in
      let values =
        [ `Arr; `V (Value.Number 1.); `V (Value.Number 1.5); `V (Value.Number (-0.));
          `V (Value.Number 7.); `V (Value.Number Float.nan); `V (Value.Number Float.infinity);
          `V (Value.Bool true); `V (Value.String "ab"); `V Value.Undefined; `V Value.Null;
          `V (Value.Function 0) ]
      in
      List.iter
        (fun kind ->
          let f = func kind in
          let code = Native.compile f in
          List.iter
            (fun x ->
              List.iter
                (fun y ->
                  check_string (Lir.kind_name kind)
                    (outcome (fun realm args -> Executor.run f realm no_callbacks args) x y)
                    (outcome (fun realm args -> Native.run code realm no_callbacks args) x y))
                values)
            values;
          Native.release code)
        [ Lir.Kelements; Lir.Kinit_length; Lir.Karray_length; Lir.Kload_element;
          Lir.Kstore_element; Lir.Kbin Jitbull_mir.Mir.NMod ])

(* The heap reads in machine code against the host's: after a random
   heap-op sequence (forged headers, shrinks, grows, unchecked writes
   past the end) with the mirror built at a random step, [load_element]
   on every handle, one past them included, at every index in
   [[-4, size + 4)] and a few non-integral ones, and [array_length] and
   [init_length] on every handle, give the executor's value or raise its
   exception. *)
let qcheck_native_reads_agree size_limit =
  let module Lir = Jitbull_lir.Lir in
  let module Heap = Jitbull_runtime.Heap in
  let module Realm = Jitbull_runtime.Realm in
  let inst kind ~dst ~a ~b ~imm = { (Lir.make_inst kind) with Lir.dst; a; b; c = b; imm } in
  let func kind =
    {
      Lir.name = "read"; arity = 2; consts = [||]; names = [||];
      call_args = [||]; fields = Array.make 4 []; n_regs = 3; spill_count = 0;
      code =
        [| inst Lir.Kparam ~dst:0 ~a:(-1) ~b:(-1) ~imm:0;
           inst Lir.Kparam ~dst:1 ~a:(-1) ~b:(-1) ~imm:1;
           inst kind ~dst:2 ~a:0 ~b:1 ~imm:0;
           inst Lir.Kreturn ~dst:(-1) ~a:2 ~b:(-1) ~imm:0 |];
    }
  in
  let kinds = [ Lir.Kload_element; Lir.Karray_length; Lir.Kinit_length ] in
  let funcs = List.map func kinds in
  let codes = lazy (List.map Native.compile funcs) in
  QCheck.Test.make ~count:(qcheck_count 20)
    ~name:(Printf.sprintf "native heap reads == executor (size %d)" size_limit)
    (Test_runtime.mirror_ops_arb size_limit)
    (fun (at, ops) ->
      (not (Native.enabled ()))
      ||
      let realm = Realm.create ~size_limit () in
      ignore
        (Test_runtime.Run_heap.run ~heap:realm.Realm.heap ~size_limit ops ~hook:(fun k t ->
             if k = at then ignore (Heap.mirror t)));
      let n = Int64.to_int (Heap.mirror realm.Realm.heap).{Heap.desc_next_handle} in
      let show run args =
        try Value.to_display (run realm args) with e -> Printexc.to_string e
      in
      let indices =
        List.init (size_limit + 8) (fun k -> float_of_int (k - 4))
        @ [ Float.nan; -0.; 1.5; 2147483648.; 4.6e18; 1e300; Float.infinity ]
      in
      List.for_all2
        (fun f code ->
          let agree args =
            let native = show (fun realm args -> Native.run code realm no_callbacks args) args
            and host = show (fun realm args -> Executor.run f realm no_callbacks args) args in
            native = host
            || QCheck.Test.fail_reportf "%s %s: native %s, executor %s"
                 (Lir.kind_name (f.Lir.code.(2)).Lir.kind)
                 (String.concat ", " (List.map Value.to_display args)) native host
          in
          List.for_all
            (fun h ->
              if (f.Lir.code.(2)).Lir.kind = Lir.Kload_element then
                List.for_all (fun i -> agree [ Value.Array h; Value.Number i ]) indices
              else agree [ Value.Array h; Value.Undefined ])
            (List.init (n + 1) Fun.id))
        funcs (Lazy.force codes))

(* [elements] on an array is machine code: a hand-built loop taking an
   array's elements 100 times, with no guard in front, returns natively
   with no host exit and the executor's value. *)
let test_elements_stay_native =
  when_native (fun () ->
      let module Lir = Jitbull_lir.Lir in
      let module Heap = Jitbull_runtime.Heap in
      let module Realm = Jitbull_runtime.Realm in
      let inst ?(a = -1) ?(b = -1) ?(imm = -1) kind dst =
        { (Lir.make_inst kind) with Lir.dst; a; b; imm }
      in
      let f =
        {
          Lir.name = "elements_loop"; arity = 2; consts = [| Value.Number 0.; Value.Number 1. |];
          names = [||]; call_args = [||]; fields = Array.make 9 []; n_regs = 6; spill_count = 0;
          code =
            [| inst Lir.Kparam 0 ~imm:0;
               inst Lir.Kparam 1 ~imm:1;
               inst Lir.Kconst 2 ~imm:0;
               inst Lir.Kconst 3 ~imm:1;
               inst Lir.Kelements 4 ~a:0;
               inst Lir.Kadd 2 ~a:2 ~b:3;
               inst (Lir.Kcompare Jitbull_mir.Mir.CLt) 5 ~a:2 ~b:1;
               inst Lir.Ktest (-1) ~a:5 ~imm:4 ~b:8;
               inst Lir.Kreturn (-1) ~a:4 |];
        }
      in
      let run exec =
        let realm = Realm.create () in
        let h = Heap.alloc_array realm.Realm.heap ~length:3 in
        Value.to_display (exec realm [ Value.Array h; Value.Number 100. ])
      in
      let code = Native.compile f in
      let native = run (fun realm args -> Native.run code realm no_callbacks args) in
      check_string "value" (run (fun realm args -> Executor.run f realm no_callbacks args)) native;
      let exits = Native.exits code in
      check_int "host exits" 0 exits.Native.t_hostop;
      check_int "returns" 1 exits.Native.t_return;
      Native.release code)

let qcheck_native_vs_executor =
  QCheck.Test.make ~count:(qcheck_count 60) ~name:"native == executor on random programs"
    QCheck.(pair (int_bound 5000) bool)
    (fun (seed, aggressive) ->
      let src =
        if aggressive then F.Generator.aggressive ~seed else F.Generator.benign ~seed
      in
      let run cfg = try fst (Engine.run_source cfg src) with e -> "!" ^ Printexc.to_string e in
      String.equal (run native_cfg) (run executor_cfg))

let test_metamorphic_tier_agreement () =
  (* the oracle's four-way leg: interp == vm == native == executor *)
  List.iter
    (fun src ->
      match F.Oracle.check_metamorphic ~subsets:[] src with
      | [] -> ()
      | v :: _ ->
        Alcotest.fail
          (Printf.sprintf "tier agreement violated (%s): %s" v.F.Oracle.mv_invariant
             v.F.Oracle.mv_detail))
    [
      "function f(n) { var s = 0; for (var i = 0; i < n; i = i + 1) { s = s + i * 1.5; } return s; }\n\
       for (var k = 0; k < 12; k = k + 1) { print(f(k)); }";
      List.nth edge_corpus 0;
      List.nth edge_corpus 3;
    ]

(* ---- engine code-page lifecycle ---- *)

let func_idx eng name =
  let funcs = (Engine.vm eng).Vm.program.Op.funcs in
  let rec go i =
    if i >= Array.length funcs then Alcotest.fail ("no function " ^ name)
    else if String.equal funcs.(i).Op.name name then i
    else go (i + 1)
  in
  go 0

let test_engine_installs_and_exits =
  when_native (fun () ->
      let src =
        "function f(n) { var s = 0; for (var i = 0; i < n; i = i + 1) { s = s + i; } return s; }\n\
         for (var k = 0; k < 12; k = k + 1) { print(f(10)); }"
      in
      let out, eng = Engine.run_source native_cfg src in
      check_string "output" (interp_output src) out;
      let idx = func_idx eng "f" in
      check_bool "f reached Ion" true (Engine.tier_of eng idx = Engine.Ion);
      match Engine.native_code_of eng idx with
      | None -> Alcotest.fail "no native code installed for f"
      | Some code ->
        let region = Native.region code in
        check_bool "code page live while installed" true region.Exec_mem.mapped;
        check_bool "code bytes emitted" true (Native.code_size code > 0);
        let exits = Native.exits code in
        check_bool "hot calls returned natively" true (exits.Native.t_return > 0))

let test_engine_blacklist_releases_pages =
  when_native (fun () ->
      let before = Exec_mem.stats () in
      (* warmed on in-bounds reads, then hammered out of bounds: repeated
         guard failures blacklist f and must unmap its code page *)
      let cfg = { native_cfg with Engine.max_bailouts = 2 } in
      let src =
        "function f(a, i) { return a[i]; } var x = [1,2,3]; var s = 0;\n\
         for (var k = 0; k < 30; k = k + 1) { s = f(x, 5); } print(s);"
      in
      let out, eng = Engine.run_source cfg src in
      check_string "OOB read is undefined" "undefined\n" out;
      let idx = func_idx eng "f" in
      check_bool "f blacklisted" true (Engine.tier_of eng idx = Engine.Blacklisted);
      check_bool "native code dropped" true (Engine.native_code_of eng idx = None);
      let after = Exec_mem.stats () in
      check_bool "pages were mapped" true
        (after.Exec_mem.s_maps_total > before.Exec_mem.s_maps_total);
      check_bool "the blacklisted function's page was unmapped" true
        (after.Exec_mem.s_unmaps_total > before.Exec_mem.s_unmaps_total))

(* ---- dropped engines give their code pages back ---- *)

(* An engine dropped without a blacklist or deopt never releases its
   code: the code's finaliser hands its region and profiler slot to the
   next compile, which recycles them. After fifty dropped engines and one
   more compile, the live regions and profiler slots are where they
   started, plus that compile's own. *)
let test_dropped_engines_give_back_pages =
  when_native (fun () ->
      let src =
        "function f(n) { var s = 0; for (var i = 0; i < n; i = i + 1) { s = s + i; } return s; }\n\
         for (var k = 0; k < 12; k = k + 1) { print(f(10)); }"
      in
      let run () = snd (Engine.run_source native_cfg src) in
      let live () = (Exec_mem.stats ()).Exec_mem.s_live_regions in
      (* whatever earlier tests left unreachable is reclaimed by this
         engine's compile *)
      Gc.full_major ();
      let kept = run () in
      let live0 = live () and slots0 = Jitbull_obs.Profile.registered_pages () in
      let maps0 = (Exec_mem.stats ()).Exec_mem.s_maps_total in
      for _ = 1 to 50 do
        ignore (Sys.opaque_identity (run ()))
      done;
      check_int "fifty installs" (maps0 + 50) (Exec_mem.stats ()).Exec_mem.s_maps_total;
      Gc.full_major ();
      let last = run () in
      check_int "one install" 1 (Engine.stats last).Engine.native_installs;
      let slot = if slots0 > 0 then 1 else 0 in
      check_int "live regions back where they started" (live0 + 1) (live ());
      check_int "profiler slots back where they started" (slots0 + slot)
        (Jitbull_obs.Profile.registered_pages ());
      check_bool "recycled regions held for reuse" true
        ((Exec_mem.stats ()).Exec_mem.s_free_regions > 0);
      ignore (Sys.opaque_identity (kept, last)))

(* ---- a Forbid verdict never maps a page ---- *)

let test_forbid_maps_no_page =
  when_native (fun () ->
      (* structural check first: an analyzer that forbids everything must
         leave the process-global map counter untouched *)
      let forbid_all ~ctx:_ ~func_index:_ ~name:_ ~trace:_ = Engine.Forbid_jit in
      let cfg = { native_cfg with Engine.analyzer = Some forbid_all } in
      let src =
        "function f(n) { var s = 0; for (var i = 0; i < n; i = i + 1) { s = s + i; } return s; }\n\
         for (var k = 0; k < 12; k = k + 1) { print(f(10)); }"
      in
      let before = (Exec_mem.stats ()).Exec_mem.s_maps_total in
      let out, eng = Engine.run_source cfg src in
      check_string "forbidden run still correct" (interp_output src) out;
      let st = Engine.stats eng in
      check_bool "verdict was Forbid" true (st.Engine.nr_nojit > 0);
      check_int "no native installs" 0 st.Engine.native_installs;
      check_int "no code page mapped for a forbidden compile" before
        (Exec_mem.stats ()).Exec_mem.s_maps_total)

let test_forbid_via_harvested_cve =
  when_native (fun () ->
      (* the paper's flow: harvest a CVE's DNA, run its exploit under the
         go/no-go policy — the exploit's compile draws a non-Allow verdict
         (Disable recompile or Forbid), and every mapped page corresponds
         to an install the policy admitted: nothing is mapped for the
         compile the verdict rejected *)
      let d = V.find VC.CVE_2019_9810 in
      let vulns = VC.make [ d.V.cve ] in
      let db = Db.create () in
      check_bool "harvest yields entries" true
        (Db.harvest db ~cve:d.V.name ~vulns d.V.source > 0);
      let cfg = Jitbull.config ~vulns db in
      let before = (Exec_mem.stats ()).Exec_mem.s_maps_total in
      let _, eng = Engine.run_source cfg d.V.source in
      let st = Engine.stats eng in
      check_bool "the exploit's compile drew a non-Allow verdict" true
        (st.Engine.nr_nojit + st.Engine.nr_disjit > 0);
      check_int "maps == policy-admitted native installs, nothing else"
        (before + st.Engine.native_installs)
        (Exec_mem.stats ()).Exec_mem.s_maps_total)

(* ---- forced fallback and observability ---- *)

let test_env_forced_fallback () =
  if not (Native.available ()) then ()
  else begin
    let prev = Option.value (Sys.getenv_opt "JITBULL_NO_NATIVE") ~default:"" in
    Unix.putenv "JITBULL_NO_NATIVE" "1";
    Fun.protect
      ~finally:(fun () -> Unix.putenv "JITBULL_NO_NATIVE" prev)
      (fun () ->
        check_bool "backend reports disabled" false (Native.enabled ());
        let obs = Obs.create () in
        let cfg = { native_cfg with Engine.obs = Some obs } in
        let src =
          "function f(n) { var s = 0; for (var i = 0; i < n; i = i + 1) { s = s + i; } return s; }\n\
           for (var k = 0; k < 12; k = k + 1) { print(f(10)); }"
        in
        let out, eng = Engine.run_source cfg src in
        check_string "fallback output identical" (interp_output src) out;
        check_int "no native installs under JITBULL_NO_NATIVE" 0
          (Engine.stats eng).Engine.native_installs;
        let view = Obs.view (Some obs) in
        check_bool "fallback cause counted" true
          (match Metrics.find_counter view "native.fallback_total.env" with
          | Some n -> n > 0
          | None -> false))
  end

let test_obs_counters =
  when_native (fun () ->
      let obs = Obs.create () in
      let cfg = { native_cfg with Engine.obs = Some obs } in
      let src =
        "function f(n) { var s = 0; for (var i = 0; i < n; i = i + 1) { s = s + i; } return s; }\n\
         for (var k = 0; k < 12; k = k + 1) { print(f(10)); }"
      in
      let _, eng = Engine.run_source cfg src in
      check_bool "native installed" true ((Engine.stats eng).Engine.native_installs > 0);
      let view = Obs.view (Some obs) in
      let counter name = Option.value (Metrics.find_counter view name) ~default:0 in
      check_bool "native.compiled_funcs" true (counter "native.compiled_funcs" > 0);
      check_bool "native.code_bytes" true (counter "native.code_bytes" > 0);
      check_bool "native.exits_total.return" true
        (counter "native.exits_total.return" > 0);
      check_bool "native.emit histogram populated" true
        (match Metrics.find_histogram view "native.emit" with
        | Some h -> h.Metrics.hv_count > 0
        | None -> false))

let suite =
  ( "native",
    [
      Alcotest.test_case "encoder golden bytes" `Quick test_encoder_golden;
      Alcotest.test_case "encoder rel32 patching" `Quick test_encoder_rel32_patching;
      Alcotest.test_case "nanbox specials" `Quick test_nanbox_specials;
      Alcotest.test_case "nanbox heap values" `Quick test_nanbox_heap_values;
      Alcotest.test_case "side table compaction" `Quick test_side_table_compaction;
      qtest qcheck_nanbox_roundtrip;
      Alcotest.test_case "exec_mem W^X lifecycle" `Quick test_exec_mem_wx_lifecycle;
      Alcotest.test_case "edge corpus equivalence" `Quick test_edge_corpus_equivalence;
      Alcotest.test_case "unguarded exits == executor" `Quick test_unguarded_exits;
      Alcotest.test_case "elements stay native" `Quick test_elements_stay_native;
      qtest (qcheck_native_reads_agree 64);
      qtest (qcheck_native_reads_agree 1000);
      Alcotest.test_case "string loop equivalence" `Quick test_string_loop_equivalence;
      qtest qcheck_native_vs_executor;
      Alcotest.test_case "metamorphic tier agreement" `Quick
        test_metamorphic_tier_agreement;
      Alcotest.test_case "engine installs and exits" `Quick test_engine_installs_and_exits;
      Alcotest.test_case "blacklist releases pages" `Quick
        test_engine_blacklist_releases_pages;
      Alcotest.test_case "dropped engines give back pages" `Quick
        test_dropped_engines_give_back_pages;
      Alcotest.test_case "forbid maps no page" `Quick test_forbid_maps_no_page;
      Alcotest.test_case "forbid via harvested CVE" `Quick test_forbid_via_harvested_cve;
      Alcotest.test_case "env forced fallback" `Quick test_env_forced_fallback;
      Alcotest.test_case "obs counters" `Quick test_obs_counters;
    ] )
