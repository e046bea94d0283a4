(* The native Ion tier: lowers allocated LIR to x86-64 and runs it over
   an unboxed NaN-boxed register file.

   Design: generated code covers the numeric core — const/move/guards/
   bounds checks/float arithmetic/compares/branches, an int32 [%], an
   array's elements handle, and the heap reads [load_element],
   [init_length] and [array_length] — and *exits to the host* for
   everything else.  The heap reads go through the realm heap's NaN-boxed
   mirror ({!Heap.mirror}), whose descriptor the call gate passes in
   %rsi; every address they form is checked against the descriptor's
   handle count and heap size first, and anything out of range, or a
   cell the mirror cannot carry, is left to the host.  Every
   exit returns a packed [(lir_pc lsl 4) lor reason] in rax; the host
   performs the operation on decoded values (sharing the executor's
   raw_number/Value_ops semantics bit for bit, including the
   type-confusion behaviour a removed guard exposes) and re-enters the
   code at the byte offset recorded for the next LIR pc.  Guard failures exit with a bailout reason; the host
   formats the executor-identical message and raises {!Lir.Bailout}, so
   the engine's deopt path is tier-agnostic.

   Fast paths never assume well-typedness the executor would not: each
   checks its operands are numbers (one unsigned compare against the
   NaN-box tag boundary) and otherwise defers to the host, so a
   type-confused register flows through raw_number exactly as in the
   executor — the differential oracle must not be able to tell the tiers
   apart, even under vulnerable go/no-go configurations. *)

module Value = Jitbull_runtime.Value
module Value_ops = Jitbull_runtime.Value_ops
module Heap = Jitbull_runtime.Heap
module Nanbox = Jitbull_runtime.Nanbox
module Realm = Jitbull_runtime.Realm
module Builtins = Jitbull_runtime.Builtins
module Errors = Jitbull_runtime.Errors
module Mir = Jitbull_mir.Mir
module Ast = Jitbull_frontend.Ast
module Lir = Jitbull_lir.Lir
module Executor = Jitbull_lir.Executor
module Profile = Jitbull_obs.Profile

(* Ticks landing in the host-operation gate (decode, host op, re-enter)
   rather than in a registered code page. *)
let prof_host = Profile.tag "native;host"

let available () = Exec_mem.available

(* JITBULL_NO_NATIVE forces the LIR-executor fallback; unset, "" and "0"
   leave the backend on (tests toggle via putenv). *)
let forced_off () =
  match Sys.getenv_opt "JITBULL_NO_NATIVE" with
  | Some s -> s <> "" && s <> "0"
  | None -> false

let enabled () = available () && not (forced_off ())

(* Exit reasons (low 4 bits of the packed exit code). *)
let reason_return = 0
let reason_hostop = 1
let reason_bailout = 2
let reason_test = 3

type counters = {
  mutable c_return : int;
  mutable c_hostop : int;
  mutable c_bailout : int;
  mutable c_test : int;
}

type exit_totals = {
  t_return : int;
  t_hostop : int;
  t_bailout : int;
  t_test : int;
}

(* A pooled activation: the C-allocated register file plus the OCaml
   side table that keeps boxed values GC-rooted while their NaN-boxed
   references live in the regfile. *)
type activation = {
  regs : Exec_mem.regfile;
  side : Nanbox.side;
}

type code = {
  func : Lir.func;
  region : Exec_mem.region;
  offsets : int array;  (* LIR pc -> byte offset (re-entry points) *)
  n_slots : int;  (* n_regs + arity arg-staging slots *)
  const_preload : Value.t array;  (* boxed consts, side slots [0..) *)
  counters : counters;
  prof_slot : int;  (* sampling-profiler page-table slot, -1 if none *)
  mutable pool : activation list;
  mutable active : int;  (* live activations (recursion depth) *)
  mutable dead : bool;  (* released; unmap when [active] drains *)
}

let code_size code = code.region.Exec_mem.code_size
let region code = code.region

let exits code =
  {
    t_return = code.counters.c_return;
    t_hostop = code.counters.c_hostop;
    t_bailout = code.counters.c_bailout;
    t_test = code.counters.c_test;
  }

(* ---- compilation ---- *)

(* The side table [Nanbox.encode] is handed for an immediate constant:
   only strings, objects and builtins are pushed onto a side table, and
   those are preloaded instead, so this one is never written. *)
let no_side = Nanbox.side_create ~size:1 ()

let assemble (f : Lir.func) =
  let asm = Asm.create () in
  let insts = f.Lir.code in
  let len = Array.length insts in
  let n_regs = max f.Lir.n_regs 1 in
  let n_slots = n_regs + f.Lir.arity in
  (* Constants become immediates; heap-shaped ones are preloaded into
     the side table at fixed indices, so their NaN-boxed bits are also
     compile-time immediates. *)
  let preload = ref [] in
  let n_preload = ref 0 in
  let const_bits =
    Array.map
      (fun (v : Value.t) ->
        match v with
        | Value.String _ | Value.Object _ | Value.Builtin _ ->
          let k = !n_preload in
          incr n_preload;
          preload := v :: !preload;
          Nanbox.tagged Nanbox.tag_side k
        | v -> Nanbox.encode no_side v)
      f.Lir.consts
  in
  let pc_labels = Array.init len (fun _ -> Asm.new_label asm) in
  let offsets = Array.make len 0 in
  (* Exit stubs are shared per (pc, reason) and emitted after the main
     body, in first-use order, so the layout is deterministic. Only the
     instruction at [pc] asks for pc's exits, so the stubs of the pc
     being lowered are all there is to look up: [pc_exits], by reason
     (reasons are below 4), cleared at each pc. *)
  let pc_exits = Array.make 4 None in
  let exit_order = ref [] in
  let exit_label pc reason =
    match pc_exits.(reason) with
    | Some l -> l
    | None ->
      let l = Asm.new_label asm in
      pc_exits.(reason) <- Some l;
      exit_order := ((pc, reason), l) :: !exit_order;
      l
  in
  let exit_now pc reason =
    Asm.mov_eax_imm asm ((pc lsl 4) lor reason);
    Asm.ret asm
  in
  let store_dst (i : Lir.inst) r =
    if i.Lir.dst >= 0 then Asm.mov_slot_r asm i.Lir.dst r
  in
  (* gpr <- slot; exit unless the bits are a number.  Leaves the tag
     boundary in r11 for follow-up operand checks. *)
  let load_number slot gpr fail =
    Asm.mov_r_slot asm gpr slot;
    Asm.movabs asm Asm.r11 Nanbox.bits_min_tag;
    Asm.cmp_rr asm gpr Asm.r11;
    Asm.jcc asm Asm.cc_ae fail
  in
  let check_number gpr fail =
    (* r11 still holds the boundary *)
    Asm.cmp_rr asm gpr Asm.r11;
    Asm.jcc asm Asm.cc_ae fail
  in
  (* dst64 <- exactly-representable int32 of the double whose bits are in
     [src]; branches to [fail] when the value does not round-trip or
     overflows int32 (clobbers xmm0, xmm1, r11). *)
  let to_int32_exact ~src ~dst fail =
    Asm.movq_x_r asm Asm.xmm0 src;
    Asm.cvttsd2si asm dst Asm.xmm0;
    Asm.cvtsi2sd asm Asm.xmm1 dst;
    Asm.ucomisd asm Asm.xmm1 Asm.xmm0;
    Asm.jcc asm Asm.cc_p fail;
    Asm.jcc asm Asm.cc_ne fail;
    Asm.movsxd asm ~dst:Asm.r11 ~src:dst;
    Asm.cmp_rr asm Asm.r11 dst;
    Asm.jcc asm Asm.cc_ne fail
  in
  (* rax <- slot; exit unless the bits are an array (clobbers rcx). *)
  let load_array slot fail =
    Asm.mov_r_slot asm Asm.rax slot;
    Asm.mov_rr asm ~dst:Asm.rcx ~src:Asm.rax;
    Asm.shr_r_imm asm Asm.rcx Nanbox.tag_shift;
    Asm.cmp_r32_imm asm Asm.rcx Nanbox.tag_array;
    Asm.jcc asm Asm.cc_ne fail
  in
  (* r8 <- the mirror's base address for the array whose bits are in
     rax; [fail] unless its handle is below the mirror's handle count
     (clobbers rcx, rdx). *)
  let array_base fail =
    Asm.mov_rr asm ~dst:Asm.rcx ~src:Asm.rax;
    Asm.shl_r_imm asm Asm.rcx (64 - Nanbox.tag_shift);
    Asm.shr_r_imm asm Asm.rcx (64 - Nanbox.tag_shift);
    Asm.mov_r_mem asm Asm.rdx ~base:Asm.rsi ~disp:(8 * Heap.desc_next_handle);
    Asm.cmp_rr asm Asm.rcx Asm.rdx;
    Asm.jcc asm Asm.cc_ae fail;
    Asm.mov_r_mem asm Asm.rdx ~base:Asm.rsi ~disp:(8 * Heap.desc_handles);
    Asm.mov_r_index asm Asm.r8 ~base:Asm.rdx ~index:Asm.rcx
  in
  (* rax <- the mirror's bits for cell r8; [fail] unless r8 is in
     [0, size_limit) — one unsigned compare (clobbers rcx, rdx, r8). *)
  let read_cell fail =
    Asm.mov_r_mem asm Asm.rdx ~base:Asm.rsi ~disp:(8 * Heap.desc_size_limit);
    Asm.cmp_rr asm Asm.r8 Asm.rdx;
    Asm.jcc asm Asm.cc_ae fail;
    Asm.mov_rr asm ~dst:Asm.rcx ~src:Asm.r8;
    Asm.shr_r_imm asm Asm.rcx Heap.page_bits;
    Asm.mov_r_mem asm Asm.rdx ~base:Asm.rsi ~disp:(8 * Heap.desc_pages);
    Asm.mov_r_index asm Asm.rdx ~base:Asm.rdx ~index:Asm.rcx;
    Asm.and_r_imm asm Asm.r8 ((1 lsl Heap.page_bits) - 1);
    Asm.mov_r_index asm Asm.rax ~base:Asm.rdx ~index:Asm.r8
  in
  (* Boxed boolean from the flag byte in al. *)
  let box_bool (i : Lir.inst) =
    Asm.movzx_eax_al asm;
    Asm.movabs asm Asm.rcx Nanbox.bits_false;
    Asm.add_rr asm Asm.rax Asm.rcx;
    store_dst i Asm.rax
  in
  (* al <- truthiness of slot [a]; side-table refs (strings/objects/
     builtins) jump to [xl] for the host to decide. *)
  let truthiness a_slot xl =
    Asm.mov_r_slot asm Asm.rax a_slot;
    Asm.movabs asm Asm.r11 Nanbox.bits_min_tag;
    Asm.cmp_rr asm Asm.rax Asm.r11;
    let tagged_l = Asm.new_label asm in
    let truthy_l = Asm.new_label asm in
    let done_l = Asm.new_label asm in
    Asm.jcc asm Asm.cc_ae tagged_l;
    (* number: falsy iff +0, -0 or NaN — ucomisd vs 0 sets ZF for all *)
    Asm.movq_x_r asm Asm.xmm0 Asm.rax;
    Asm.xorpd asm Asm.xmm1 Asm.xmm1;
    Asm.ucomisd asm Asm.xmm0 Asm.xmm1;
    Asm.setcc asm Asm.cc_ne Asm.rax;
    Asm.jmp asm done_l;
    Asm.bind asm tagged_l;
    Asm.mov_rr asm ~dst:Asm.rcx ~src:Asm.rax;
    Asm.shr_r_imm asm Asm.rcx Nanbox.tag_shift;
    Asm.cmp_r32_imm asm Asm.rcx Nanbox.tag_side;
    Asm.jcc asm Asm.cc_e xl;
    Asm.cmp_r32_imm asm Asm.rcx Nanbox.tag_singleton;
    Asm.jcc asm Asm.cc_ne truthy_l;
    (* singleton: only [true] (payload 3) is truthy *)
    Asm.cmp_r32_imm asm Asm.rax 3;
    Asm.setcc asm Asm.cc_e Asm.rax;
    Asm.jmp asm done_l;
    Asm.bind asm truthy_l;
    (* arrays and functions are always truthy *)
    Asm.mov_r8_imm asm Asm.rax 1;
    Asm.bind asm done_l
  in
  Array.iteri
    (fun pc (i : Lir.inst) ->
      offsets.(pc) <- Asm.pos asm;
      Asm.bind asm pc_labels.(pc);
      Array.fill pc_exits 0 4 None;
      match i.Lir.kind with
      | Lir.Kconst ->
        if i.Lir.dst >= 0 then begin
          Asm.movabs asm Asm.rax const_bits.(i.Lir.imm);
          store_dst i Asm.rax
        end
      | Lir.Kparam ->
        if i.Lir.dst >= 0 then begin
          if i.Lir.imm >= 0 && i.Lir.imm < f.Lir.arity then
            Asm.mov_r_slot asm Asm.rax (n_regs + i.Lir.imm)
          else Asm.movabs asm Asm.rax Nanbox.bits_undefined;
          store_dst i Asm.rax
        end
      | Lir.Kmove ->
        if i.Lir.dst >= 0 then begin
          Asm.mov_r_slot asm Asm.rax i.Lir.a;
          store_dst i Asm.rax
        end
      | Lir.Kunbox_number ->
        load_number i.Lir.a Asm.rax (exit_label pc reason_bailout);
        store_dst i Asm.rax
      | Lir.Kunbox_int32 ->
        let bail = exit_label pc reason_bailout in
        load_number i.Lir.a Asm.rax bail;
        (* the executor accepts integers with |n| <= 2^31 (inclusive);
           the round-trip handles -0.0 (exact) and NaN (unordered) *)
        Asm.movq_x_r asm Asm.xmm0 Asm.rax;
        Asm.cvttsd2si asm Asm.rcx Asm.xmm0;
        Asm.cvtsi2sd asm Asm.xmm1 Asm.rcx;
        Asm.ucomisd asm Asm.xmm1 Asm.xmm0;
        Asm.jcc asm Asm.cc_p bail;
        Asm.jcc asm Asm.cc_ne bail;
        Asm.movabs asm Asm.r11 2147483648L;
        Asm.cmp_rr asm Asm.rcx Asm.r11;
        Asm.jcc asm Asm.cc_g bail;
        Asm.movabs asm Asm.r11 (-2147483648L);
        Asm.cmp_rr asm Asm.rcx Asm.r11;
        Asm.jcc asm Asm.cc_l bail;
        store_dst i Asm.rax
      | Lir.Kguard_array ->
        load_array i.Lir.a (exit_label pc reason_bailout);
        store_dst i Asm.rax
      | Lir.Kelements ->
        (* an array's elements handle is its own bits; the host only
           reinterprets a receiver a removed guard let through *)
        load_array i.Lir.a (exit_label pc reason_hostop);
        store_dst i Asm.rax
      | Lir.Kbounds_check ->
        (* numbers-only fast path; anything else needs raw_number, so the
           host handles it (and formats the bailout message if it fails).
           Executor semantics: fail iff idx < 0 || idx >= len — a NaN
           index or length makes both comparisons false, i.e. passes. *)
        let bail = exit_label pc reason_bailout in
        let host = exit_label pc reason_hostop in
        load_number i.Lir.a Asm.rax host;
        Asm.mov_r_slot asm Asm.rdx i.Lir.b;
        check_number Asm.rdx host;
        Asm.movq_x_r asm Asm.xmm0 Asm.rax;
        Asm.xorpd asm Asm.xmm1 Asm.xmm1;
        Asm.ucomisd asm Asm.xmm0 Asm.xmm1;
        let not_neg = Asm.new_label asm in
        Asm.jcc asm Asm.cc_p not_neg;
        Asm.jcc asm Asm.cc_b bail;
        Asm.bind asm not_neg;
        Asm.movq_x_r asm Asm.xmm1 Asm.rdx;
        Asm.ucomisd asm Asm.xmm0 Asm.xmm1;
        Asm.jcc asm Asm.cc_ae bail;
        store_dst i Asm.rax
      | Lir.Kadd ->
        (* generic JS +: only the number+number case stays native *)
        let host = exit_label pc reason_hostop in
        load_number i.Lir.a Asm.rax host;
        Asm.mov_r_slot asm Asm.rdx i.Lir.b;
        check_number Asm.rdx host;
        Asm.movq_x_r asm Asm.xmm0 Asm.rax;
        Asm.movq_x_r asm Asm.xmm1 Asm.rdx;
        Asm.addsd asm Asm.xmm0 Asm.xmm1;
        Asm.movq_r_x asm Asm.rax Asm.xmm0;
        store_dst i Asm.rax
      | Lir.Kbin op -> (
        match op with
        | Mir.NSub | Mir.NMul | Mir.NDiv ->
          let host = exit_label pc reason_hostop in
          load_number i.Lir.a Asm.rax host;
          Asm.mov_r_slot asm Asm.rdx i.Lir.b;
          check_number Asm.rdx host;
          Asm.movq_x_r asm Asm.xmm0 Asm.rax;
          Asm.movq_x_r asm Asm.xmm1 Asm.rdx;
          (match op with
          | Mir.NSub -> Asm.subsd asm Asm.xmm0 Asm.xmm1
          | Mir.NMul -> Asm.mulsd asm Asm.xmm0 Asm.xmm1
          | _ -> Asm.divsd asm Asm.xmm0 Asm.xmm1);
          Asm.movq_r_x asm Asm.rax Asm.xmm0;
          store_dst i Asm.rax
        | Mir.NMod ->
          (* fmod and a 32-bit [div] agree on a dividend that is an
             exact int32 with a clear sign bit (so not -0) and a divisor
             that is an exact int32 of at least 1; the rest is
             [Float.rem] on the host *)
          let host = exit_label pc reason_hostop in
          load_number i.Lir.a Asm.rax host;
          Asm.mov_r_slot asm Asm.rdx i.Lir.b;
          check_number Asm.rdx host;
          Asm.test_rr asm Asm.rax Asm.rax;
          Asm.jcc asm Asm.cc_s host;
          to_int32_exact ~src:Asm.rax ~dst:Asm.r8 host;
          to_int32_exact ~src:Asm.rdx ~dst:Asm.rcx host;
          Asm.cmp_r_imm asm Asm.rcx 1;
          Asm.jcc asm Asm.cc_l host;
          Asm.mov_rr32 asm ~dst:Asm.rax ~src:Asm.r8;
          Asm.xor_rr32 asm Asm.rdx Asm.rdx;
          Asm.div_r32 asm Asm.rcx;
          (* the remainder in edx, zero-extended *)
          Asm.cvtsi2sd asm Asm.xmm0 Asm.rdx;
          Asm.movq_r_x asm Asm.rax Asm.xmm0;
          store_dst i Asm.rax
        | Mir.NBit_and | Mir.NBit_or | Mir.NBit_xor | Mir.NShl | Mir.NShr
        | Mir.NUshr ->
          (* int32 fast path only when both operands are exactly
             representable int32s; to_int32's modular wrap for large or
             fractional doubles is the host's job *)
          let host = exit_label pc reason_hostop in
          load_number i.Lir.a Asm.rax host;
          Asm.mov_r_slot asm Asm.rdx i.Lir.b;
          check_number Asm.rdx host;
          to_int32_exact ~src:Asm.rax ~dst:Asm.r8 host;
          to_int32_exact ~src:Asm.rdx ~dst:Asm.rcx host;
          (match op with
          | Mir.NBit_and -> Asm.and_rr32 asm Asm.r8 Asm.rcx
          | Mir.NBit_or -> Asm.or_rr32 asm Asm.r8 Asm.rcx
          | Mir.NBit_xor -> Asm.xor_rr32 asm Asm.r8 Asm.rcx
          | Mir.NShl -> Asm.shl_cl32 asm Asm.r8
          | Mir.NShr -> Asm.sar_cl32 asm Asm.r8  (* JS >> is arithmetic *)
          | _ -> Asm.shr_cl32 asm Asm.r8);
          (* 32-bit shifts mask the count to 5 bits in hardware, exactly
             JS's [count land 31] *)
          (match op with
          | Mir.NUshr ->
            (* the 32-bit result zero-extends: already an exact uint32 *)
            Asm.cvtsi2sd asm Asm.xmm0 Asm.r8
          | _ ->
            Asm.movsxd asm ~dst:Asm.rax ~src:Asm.r8;
            Asm.cvtsi2sd asm Asm.xmm0 Asm.rax);
          Asm.movq_r_x asm Asm.rax Asm.xmm0;
          store_dst i Asm.rax)
      | Lir.Kcompare cop ->
        let host = exit_label pc reason_hostop in
        load_number i.Lir.a Asm.rax host;
        Asm.mov_r_slot asm Asm.rdx i.Lir.b;
        check_number Asm.rdx host;
        Asm.movq_x_r asm Asm.xmm0 Asm.rax;
        Asm.movq_x_r asm Asm.xmm1 Asm.rdx;
        (* ucomisd only sets CF/ZF usefully for >/>=; flip operands for
           </<=.  NaN (unordered: ZF=PF=CF=1) must compare false except
           for != — hence the parity fixups on equality. *)
        (match cop with
        | Mir.CLt ->
          Asm.ucomisd asm Asm.xmm1 Asm.xmm0;
          Asm.setcc asm Asm.cc_a Asm.rax
        | Mir.CLe ->
          Asm.ucomisd asm Asm.xmm1 Asm.xmm0;
          Asm.setcc asm Asm.cc_ae Asm.rax
        | Mir.CGt ->
          Asm.ucomisd asm Asm.xmm0 Asm.xmm1;
          Asm.setcc asm Asm.cc_a Asm.rax
        | Mir.CGe ->
          Asm.ucomisd asm Asm.xmm0 Asm.xmm1;
          Asm.setcc asm Asm.cc_ae Asm.rax
        | Mir.CEq | Mir.CStrict_eq ->
          Asm.ucomisd asm Asm.xmm0 Asm.xmm1;
          Asm.setcc asm Asm.cc_e Asm.rax;
          Asm.setcc asm Asm.cc_np Asm.rcx;
          Asm.and_r8 asm Asm.rax Asm.rcx
        | Mir.CNeq | Mir.CStrict_neq ->
          Asm.ucomisd asm Asm.xmm0 Asm.xmm1;
          Asm.setcc asm Asm.cc_ne Asm.rax;
          Asm.setcc asm Asm.cc_p Asm.rcx;
          Asm.or_r8 asm Asm.rax Asm.rcx);
        box_bool i
      | Lir.Knegate ->
        let host = exit_label pc reason_hostop in
        load_number i.Lir.a Asm.rax host;
        (* IEEE negation flips the sign bit, NaNs included *)
        Asm.movabs asm Asm.rcx Int64.min_int;
        Asm.xor_rr asm Asm.rax Asm.rcx;
        store_dst i Asm.rax
      | Lir.Knot ->
        let host = exit_label pc reason_hostop in
        truthiness i.Lir.a host;
        Asm.xor_al_imm asm 1;
        box_bool i
      | Lir.Ktest ->
        let xl = exit_label pc reason_test in
        truthiness i.Lir.a xl;
        Asm.test_al_al asm;
        Asm.jcc asm Asm.cc_ne pc_labels.(i.Lir.imm);
        Asm.jmp asm pc_labels.(i.Lir.b)
      | Lir.Kload_element ->
        (* a number index, truncated as [int_of_float] does; the host
           takes a cell the mirror cannot carry and every address
           outside the heap (and raises the executor's error there) *)
        let host = exit_label pc reason_hostop in
        load_array i.Lir.a host;
        array_base host;
        load_number i.Lir.b Asm.rax host;
        Asm.movq_x_r asm Asm.xmm0 Asm.rax;
        Asm.cvttsd2si asm Asm.rax Asm.xmm0;
        Asm.add_rr asm Asm.r8 Asm.rax;
        Asm.add_r_imm asm Asm.r8 2;
        read_cell host;
        Asm.cmp_r_imm asm Asm.rax (Int64.to_int Nanbox.bits_host);
        Asm.jcc asm Asm.cc_e host;
        store_dst i Asm.rax
      | Lir.Kinit_length | Lir.Karray_length ->
        (* [Heap.length] bit for bit: a header that is not a number
           reads 0; a number goes through [int_of_float]'s cvttsd2si and
           its 63-bit tagging (shl, sar), which also sends NaN to 0 *)
        let host = exit_label pc reason_hostop in
        let zero = Asm.new_label asm and done_l = Asm.new_label asm in
        load_array i.Lir.a host;
        array_base host;
        read_cell host;
        Asm.movabs asm Asm.r11 Nanbox.bits_min_tag;
        Asm.cmp_rr asm Asm.rax Asm.r11;
        Asm.jcc asm Asm.cc_ae zero;
        Asm.movq_x_r asm Asm.xmm0 Asm.rax;
        Asm.cvttsd2si asm Asm.rax Asm.xmm0;
        Asm.shl_r_imm asm Asm.rax 1;
        Asm.sar_r_imm asm Asm.rax 1;
        Asm.cvtsi2sd asm Asm.xmm0 Asm.rax;
        Asm.movq_r_x asm Asm.rax Asm.xmm0;
        Asm.jmp asm done_l;
        Asm.bind asm zero;
        Asm.xor_rr asm Asm.rax Asm.rax;
        Asm.bind asm done_l;
        store_dst i Asm.rax
      | Lir.Kgoto -> Asm.jmp asm pc_labels.(i.Lir.imm)
      | Lir.Kreturn -> exit_now pc reason_return
      | Lir.Kbitnot | Lir.Ktypeof | Lir.Ktonumber | Lir.Knew_array
      | Lir.Knew_object | Lir.Kstore_element | Lir.Kset_array_length | Lir.Karray_push | Lir.Karray_pop
      | Lir.Kget_prop | Lir.Kset_prop | Lir.Kget_index_gen
      | Lir.Kset_index_gen | Lir.Kload_global | Lir.Kstore_global
      | Lir.Kdeclare_global | Lir.Kcall | Lir.Kcall_method ->
        exit_now pc reason_hostop)
    insts;
  List.iter
    (fun ((pc, reason), l) ->
      Asm.bind asm l;
      exit_now pc reason)
    (List.rev !exit_order);
  (Asm.finalize asm, offsets, n_slots, Array.of_list (List.rev !preload))

let emit f =
  let bytes, _, _, _ = assemble f in
  bytes

(* Code that became unreachable while still mapped: its region and
   profiler slot, pushed by the code's finaliser and reclaimed by the
   next [compile]. A finaliser runs at any allocation point, possibly
   while this domain holds a lock, so it only pushes, without a lock. *)
let unreachable : (Exec_mem.region * int) list Atomic.t = Atomic.make []

let rec push_unreachable x =
  let l = Atomic.get unreachable in
  if not (Atomic.compare_and_set unreachable l (x :: l)) then push_unreachable x

(* Hand every region pushed since the last call to {!Exec_mem.recycle},
   after dropping its profiler slot, so a tick can never land in a page
   being refilled under a new name. *)
let reclaim () =
  List.iter
    (fun (region, slot) ->
      Profile.drop_page slot;
      Exec_mem.recycle region)
    (Atomic.exchange unreachable [])

let compile (f : Lir.func) : code =
  let bytes, offsets, n_slots, const_preload = assemble f in
  reclaim ();
  let region = Exec_mem.install bytes in
  let code =
    {
      func = f;
      region;
      offsets;
      n_slots;
      const_preload;
      counters = { c_return = 0; c_hostop = 0; c_bailout = 0; c_test = 0 };
      prof_slot =
        Profile.register_page ~addr:region.Exec_mem.addr
          ~size:region.Exec_mem.code_size
          ("native;" ^ f.Lir.name);
      pool = [];
      active = 0;
      dead = false;
    }
  in
  (* a released code has unmapped its region already; an unreachable one
     has no activation left. The finaliser holds the region, not the
     code, so the code's memory goes in the same collection. *)
  let slot = code.prof_slot in
  Gc.finalise_last
    (fun () -> if region.Exec_mem.mapped then push_unreachable (region, slot))
    code;
  code

(* ---- activation pool & code-page lifecycle ---- *)

let acquire code =
  code.active <- code.active + 1;
  match code.pool with
  | act :: rest ->
    code.pool <- rest;
    Nanbox.side_reset act.side ~preload:(Array.length code.const_preload);
    act
  | [] ->
    let preload = Array.length code.const_preload in
    let side = Nanbox.side_create ~size:(preload + code.n_slots) () in
    Array.iter (fun v -> ignore (Nanbox.side_push side v)) code.const_preload;
    Nanbox.side_reset side ~preload;
    { regs = Exec_mem.make_regfile code.n_slots; side }

(* Unmap the page.  Drop the profiler slot FIRST so a tick can never
   land in an address range that is being recycled under a new name. *)
let unmap code =
  Profile.drop_page code.prof_slot;
  Exec_mem.release code.region

let release_activation code act =
  code.pool <- act :: code.pool;
  code.active <- code.active - 1;
  if code.dead && code.active = 0 then unmap code

(* Mark dead; the unmap is deferred until recursive activations drain so
   we never pull an executing page.  Idempotent. *)
let release code =
  code.dead <- true;
  if code.active = 0 then unmap code

(* ---- exit-to-host operations ---- *)

(* Register-file access for the exits.  No NaN-box bits are boxed: a
   number or array register is read from its bits, and anything else (a
   type-confused register behind a removed guard) is decoded and
   reinterpreted as the executor does. *)
let[@inline] get act r = Nanbox.load act.side act.regs r
let[@inline] set act d v = if d >= 0 then Nanbox.store act.side act.regs d v
let[@inline] tag act r =
  Int64.to_int (Int64.shift_right_logical act.regs.{r} Nanbox.tag_shift)
let[@inline] is_array act r = tag act r = Nanbox.tag_array
let[@inline] handle act r = Int64.to_int (Int64.logand act.regs.{r} Nanbox.payload_mask)

let[@inline] num realm act r =
  if tag act r < Nanbox.tag_singleton then Int64.float_of_bits act.regs.{r}
  else Executor.raw_number realm (get act r)

let[@inline] set_number act d x =
  let bits = if Float.is_nan x then Nanbox.canonical_nan else Int64.bits_of_float x in
  if d >= 0 then act.regs.{d} <- bits

let bailout fmt = Format.kasprintf (fun s -> raise (Lir.Bailout s)) fmt

(* Guard-failure exits: decode the offending register and raise with the
   message the executor would have produced. *)
let host_bailout (realm : Realm.t) act (i : Lir.inst) =
  match i.Lir.kind with
  | Lir.Kunbox_number -> bailout "unbox_number: %s" (Value.type_name (get act i.Lir.a))
  | Lir.Kunbox_int32 -> bailout "unbox_int32: %s" (Value.to_display (get act i.Lir.a))
  | Lir.Kguard_array -> bailout "guard_array: %s" (Value.type_name (get act i.Lir.a))
  | Lir.Kbounds_check ->
    bailout "bounds_check: %g >= %g" (num realm act i.Lir.a) (num realm act i.Lir.b)
  | k -> bailout "native guard: %s" (Lir.kind_name k)

(* One host-performed LIR instruction, mirroring the executor case for
   case — including the unchecked element accesses and raw_number
   reinterpretation that model the vulnerable configurations.  The array
   operations read the receiver's handle from its bits. *)
let host_op code act (realm : Realm.t) (cb : Executor.callbacks) pc =
  let f = code.func in
  let i = f.Lir.code.(pc) in
  let heap = realm.Realm.heap in
  let a = i.Lir.a and b = i.Lir.b and d = i.Lir.dst in
  match i.Lir.kind with
  | Lir.Kbounds_check ->
    let idx = num realm act a in
    let len = num realm act b in
    if idx < 0.0 || idx >= len then bailout "bounds_check: %g >= %g" idx len
    else set act d (get act a)
  | Lir.Kadd -> set act d (Value_ops.binary Ast.Add (get act a) (get act b))
  | Lir.Kbin Mir.NMod -> set_number act d (Float.rem (num realm act a) (num realm act b))
  | Lir.Kbin nop ->
    let x = num realm act a in
    let y = num realm act b in
    set act d
      (Value_ops.binary (Executor.ast_of_num_binop nop) (Value.Number x) (Value.Number y))
  | Lir.Kcompare cop ->
    set act d (Value_ops.binary (Executor.ast_of_compare cop) (get act a) (get act b))
  | Lir.Knegate -> set act d (Value.Number (-.num realm act a))
  | Lir.Kbitnot ->
    set act d (Value_ops.unary Ast.Bit_not (Value.Number (num realm act a)))
  | Lir.Knot -> set act d (Value.Bool (not (Value_ops.to_boolean (get act a))))
  | Lir.Ktypeof -> set act d (Value.String (Value.type_name (get act a)))
  | Lir.Ktonumber -> set act d (Value.Number (Value_ops.to_number (get act a)))
  | Lir.Knew_array -> set act d (Value.Array (Heap.alloc_array heap ~length:i.Lir.imm))
  | Lir.Knew_object -> set act d (Value.Object (Hashtbl.create 8))
  | Lir.Kelements -> set act d (Value.Array (int_of_float (num realm act a)))
  | ( Lir.Kinit_length | Lir.Karray_length | Lir.Kload_element | Lir.Kstore_element
    | Lir.Kset_array_length | Lir.Karray_push | Lir.Karray_pop ) as k
    when not (is_array act a) ->
    bailout "%s: %s" (Lir.kind_name k) (Value.type_name (get act a))
  | Lir.Kinit_length | Lir.Karray_length ->
    set_number act d (float_of_int (Heap.length heap (handle act a)))
  | Lir.Kload_element ->
    let idx = int_of_float (num realm act b) in
    set act d (Heap.get_unchecked heap (handle act a) idx)
  | Lir.Kstore_element ->
    let idx = int_of_float (num realm act b) in
    Heap.set_unchecked heap (handle act a) idx (get act i.Lir.c)
  | Lir.Kset_array_length ->
    Heap.set_length heap (handle act a) (int_of_float (num realm act b))
  | Lir.Karray_push ->
    let h = handle act a in
    Heap.push heap h (get act b);
    set_number act d (float_of_int (Heap.length heap h))
  | Lir.Karray_pop -> set act d (Heap.pop heap (handle act a))
  | Lir.Kget_prop ->
    set act d (Builtins.get_member realm (get act a) f.Lir.names.(i.Lir.imm))
  | Lir.Kset_prop ->
    Builtins.set_member realm (get act a) f.Lir.names.(i.Lir.imm) (get act b)
  | Lir.Kget_index_gen -> (
    let recv = get act a in
    let idx = get act b in
    match (recv, Value_ops.to_index idx) with
    | Value.Array h, Some k -> set act d (Heap.get heap h k)
    | Value.Object tbl, _ ->
      set act d
        (match Hashtbl.find_opt tbl (Value_ops.to_string idx) with
        | Some v -> v
        | None -> Value.Undefined)
    | Value.String s, Some k ->
      set act d
        (if k < String.length s then Value.String (String.make 1 s.[k])
         else Value.Undefined)
    | Value.Array _, None -> set act d Value.Undefined
    | v, _ -> Errors.type_error "cannot index %s" (Value.type_name v))
  | Lir.Kset_index_gen -> (
    let recv = get act a in
    let idx = get act b in
    let v = get act i.Lir.c in
    match (recv, Value_ops.to_index idx) with
    | Value.Array h, Some k -> Heap.set heap h k v
    | Value.Object tbl, _ -> Hashtbl.replace tbl (Value_ops.to_string idx) v
    | Value.Array _, None ->
      Errors.type_error "invalid array index %s" (Value.to_display idx)
    | recv, _ -> Errors.type_error "cannot index %s" (Value.type_name recv))
  | Lir.Kload_global -> set act d (cb.Executor.lookup_global f.Lir.names.(i.Lir.imm))
  | Lir.Kstore_global -> cb.Executor.store_global f.Lir.names.(i.Lir.imm) (get act a)
  | Lir.Kdeclare_global -> cb.Executor.declare_global f.Lir.names.(i.Lir.imm)
  | Lir.Kcall -> (
    let callee = get act a in
    let vargs =
      Array.fold_right (fun r acc -> get act r :: acc) f.Lir.call_args.(i.Lir.imm) []
    in
    match callee with
    | Value.Function idx -> set act d (cb.Executor.call_function idx vargs)
    | Value.Builtin name -> set act d (Builtins.call_builtin realm name vargs)
    | v -> Errors.type_error "%s is not a function" (Value.type_name v))
  | Lir.Kcall_method -> (
    let recv = get act a in
    let name = f.Lir.names.(i.Lir.imm2) in
    let vargs =
      Array.fold_right (fun r acc -> get act r :: acc) f.Lir.call_args.(i.Lir.imm) []
    in
    match Builtins.call_method realm recv name vargs with
    | `Value v -> set act d v
    | `User_function (idx, vargs) -> set act d (cb.Executor.call_function idx vargs))
  | Lir.Kconst | Lir.Kparam | Lir.Kmove | Lir.Kunbox_number | Lir.Kunbox_int32
  | Lir.Kguard_array | Lir.Kgoto | Lir.Ktest | Lir.Kreturn ->
    (* never exit with a hostop reason *)
    assert false

(* ---- entry ---- *)

(* The exit loop: run from byte offset [off] until the code returns or
   bails out.  A host exit allocates no closure of its own — the
   profiler tag is only set while profiling runs. *)
let rec loop code act realm cb heap off =
  let packed = Exec_mem.call code.region off act.regs heap in
  let pc = packed lsr 4 in
  let reason = packed land 0xF in
  let c = code.counters in
  let i = code.func.Lir.code.(pc) in
  if reason = reason_return then begin
    c.c_return <- c.c_return + 1;
    if i.Lir.a >= 0 then get act i.Lir.a else Value.Undefined
  end
  else if reason = reason_hostop then begin
    c.c_hostop <- c.c_hostop + 1;
    if Profile.running () then
      Profile.with_tag prof_host (fun () -> host_op code act realm cb pc)
    else host_op code act realm cb pc;
    loop code act realm cb heap code.offsets.(pc + 1)
  end
  else if reason = reason_test then begin
    c.c_test <- c.c_test + 1;
    let truthy = Value_ops.to_boolean (get act i.Lir.a) in
    loop code act realm cb heap code.offsets.(if truthy then i.Lir.imm else i.Lir.b)
  end
  else begin
    c.c_bailout <- c.c_bailout + 1;
    host_bailout realm act i
  end

let rec stage act slot last = function
  | v :: rest when slot < last ->
    Nanbox.store act.side act.regs slot v;
    stage act (slot + 1) last rest
  | _ -> ()

let run code (realm : Realm.t) (cb : Executor.callbacks) (args : Value.t list) :
    Value.t =
  let heap = Heap.mirror realm.Realm.heap in
  let act = acquire code in
  match
    Bigarray.Array1.fill act.regs Nanbox.bits_undefined;
    stage act (code.n_slots - code.func.Lir.arity) code.n_slots args;
    loop code act realm cb heap code.offsets.(0)
  with
  | v -> release_activation code act; v
  | exception e -> release_activation code act; raise e
