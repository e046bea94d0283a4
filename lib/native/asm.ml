(* A small x86-64 encoder: exactly the instruction forms the LIR
   lowering needs, emitted in two passes.  Pass 1 appends bytes to a
   growable buffer, recording a fixup for every rel32 branch whose label
   is not yet bound; pass 2 ({!finalize}) patches the displacements once
   every label has a position.

   Generated code addresses every LIR register slot as
   [%rdi + 8*slot], with a disp8 when the displacement fits in a signed
   byte (the first 16 slots) and a disp32 otherwise; slot counts never
   approach the 2^31/8 disp32 ceiling.  Heap reads address [base + disp]
   (same rule) and [base + 8*index] off the heap descriptor in %rsi and
   the tables it points to.  Only caller-saved registers are used, so
   functions need no prologue: the emitter never touches rsp, rbp, rbx
   or r12-r15. *)

(* GPR numbers in ModRM encoding order. *)
let rax = 0
let rcx = 1
let rdx = 2
let rsi = 6
let rdi = 7
let r8 = 8
let r11 = 11

(* XMM register numbers. *)
let xmm0 = 0
let xmm1 = 1

(* Condition codes (the low nibble of 0F 8x / 0F 9x). *)
let cc_b = 0x2
let cc_ae = 0x3
let cc_e = 0x4
let cc_ne = 0x5
let cc_a = 0x7
let cc_s = 0x8
let cc_p = 0xA
let cc_np = 0xB
let cc_l = 0xC
let cc_g = 0xF

type label = {
  mutable target : int;  (* byte position, -1 while unbound *)
  mutable holes : int list;  (* positions of rel32 placeholders *)
}

(* The code so far is [buf]'s first [len] bytes; [buf] doubles when
   full, so an emitted byte costs a store and a length check. *)
type t = {
  mutable buf : Bytes.t;
  mutable len : int;
  mutable labels : label list;
}

let create () = { buf = Bytes.create 256; len = 0; labels = [] }
let pos t = t.len

let new_label t =
  let l = { target = -1; holes = [] } in
  t.labels <- l :: t.labels;
  l

let bind t l = l.target <- pos t

let reserve t n =
  if t.len + n > Bytes.length t.buf then begin
    let bigger = Bytes.create (max (2 * Bytes.length t.buf) (t.len + n)) in
    Bytes.blit t.buf 0 bigger 0 t.len;
    t.buf <- bigger
  end

let byte t b =
  reserve t 1;
  Bytes.unsafe_set t.buf t.len (Char.unsafe_chr (b land 0xFF));
  t.len <- t.len + 1

(* the low 32 bits of [n], little-endian *)
let le32 t n =
  reserve t 4;
  Bytes.set_int32_le t.buf t.len (Int32.of_int n);
  t.len <- t.len + 4

let le64 t (n : int64) =
  reserve t 8;
  Bytes.set_int64_le t.buf t.len n;
  t.len <- t.len + 8

(* REX prefix; [reg] extends the ModRM reg field, [rm] the r/m field. *)
let rex t ~w ~reg ~rm =
  let v =
    0x40
    lor (if w then 0x8 else 0)
    lor ((reg lsr 3) lsl 2)
    lor (rm lsr 3)
  in
  if v <> 0x40 || w then byte t v

let rex_w t ~reg ~rm = rex t ~w:true ~reg ~rm

(* Optional REX for 32-bit / 8-bit forms: only when a high register
   needs the extension bits. *)
let rex_opt t ~reg ~rm = if reg >= 8 || rm >= 8 then rex t ~w:false ~reg ~rm

let modrm_direct t ~reg ~rm =
  byte t (0xC0 lor ((reg land 7) lsl 3) lor (rm land 7))

(* ModRM for [base + disp]: mod 01 with a disp8 when [disp] fits in a
   signed byte, mod 10 with a disp32 otherwise. A base of rsp or r12
   would need a SIB byte; rbp and r13 are fine with either mod. *)
let modrm_disp t ~reg ~base ~disp =
  assert (base land 7 <> 4);
  let fields = ((reg land 7) lsl 3) lor (base land 7) in
  if disp >= -128 && disp <= 127 then begin
    byte t (0x40 lor fields);
    byte t disp
  end
  else begin
    byte t (0x80 lor fields);
    le32 t disp
  end

(* ---- moves ---- *)

(* mov r64, [rdi + 8*slot] *)
let mov_r_slot t r slot =
  rex_w t ~reg:r ~rm:rdi;
  byte t 0x8B;
  modrm_disp t ~reg:r ~base:rdi ~disp:(8 * slot)

(* mov [rdi + 8*slot], r64 *)
let mov_slot_r t slot r =
  rex_w t ~reg:r ~rm:rdi;
  byte t 0x89;
  modrm_disp t ~reg:r ~base:rdi ~disp:(8 * slot)

(* mov r64, [base + disp]; any base but rsp and r12 *)
let mov_r_mem t r ~base ~disp =
  rex_w t ~reg:r ~rm:base;
  byte t 0x8B;
  modrm_disp t ~reg:r ~base ~disp

(* mov r64, [base + 8*index]; a base of rbp or r13 would mean no base,
   and an index of rsp no index *)
let mov_r_index t r ~base ~index =
  assert (base land 7 <> 5 && index <> 4);
  byte t (0x48 lor ((r lsr 3) lsl 2) lor ((index lsr 3) lsl 1) lor (base lsr 3));
  byte t 0x8B;
  byte t (0x04 lor ((r land 7) lsl 3));
  byte t (0xC0 lor ((index land 7) lsl 3) lor (base land 7))

(* mov r32, r32 (zero-extends into the 64-bit register) *)
let mov_rr32 t ~dst ~src =
  rex_opt t ~reg:src ~rm:dst;
  byte t 0x89;
  modrm_direct t ~reg:src ~rm:dst

(* mov r64, r64 *)
let mov_rr t ~dst ~src =
  rex_w t ~reg:src ~rm:dst;
  byte t 0x89;
  modrm_direct t ~reg:src ~rm:dst

(* movabs r64, imm64 *)
let movabs t r (imm : int64) =
  rex_w t ~reg:0 ~rm:r;
  byte t (0xB8 lor (r land 7));
  le64 t imm

(* mov eax, imm32 (zero-extends into rax — the exit-code load) *)
let mov_eax_imm t imm =
  byte t 0xB8;
  le32 t imm

(* mov r8(low byte), imm8 — al/cl/dl/bl only *)
let mov_r8_imm t r imm =
  assert (r < 4);
  byte t (0xB0 lor r);
  byte t imm

let ret t = byte t 0xC3

(* ---- integer ALU ---- *)

(* cmp a, b (64-bit) *)
let cmp_rr t a b =
  rex_w t ~reg:b ~rm:a;
  byte t 0x39;
  modrm_direct t ~reg:b ~rm:a

(* add a, b (64-bit) *)
let add_rr t a b =
  rex_w t ~reg:b ~rm:a;
  byte t 0x01;
  modrm_direct t ~reg:b ~rm:a

(* xor a, b (64-bit) *)
let xor_rr t a b =
  rex_w t ~reg:b ~rm:a;
  byte t 0x31;
  modrm_direct t ~reg:b ~rm:a

(* 32-bit ALU ops, opcode per operation: and=0x21 or=0x09 xor=0x31 *)
let alu32 t ~opcode a b =
  rex_opt t ~reg:b ~rm:a;
  byte t opcode;
  modrm_direct t ~reg:b ~rm:a

let and_rr32 t a b = alu32 t ~opcode:0x21 a b
let or_rr32 t a b = alu32 t ~opcode:0x09 a b
let xor_rr32 t a b = alu32 t ~opcode:0x31 a b

(* 64-bit ALU with a sign-extended imm32: /0 add, /4 and, /7 cmp *)
let alu_imm t ~ext r imm =
  rex_w t ~reg:0 ~rm:r;
  byte t 0x81;
  modrm_direct t ~reg:ext ~rm:r;
  le32 t imm

let add_r_imm t r imm = alu_imm t ~ext:0 r imm
let and_r_imm t r imm = alu_imm t ~ext:4 r imm
let cmp_r_imm t r imm = alu_imm t ~ext:7 r imm

(* test a, b (64-bit) *)
let test_rr t a b =
  rex_w t ~reg:b ~rm:a;
  byte t 0x85;
  modrm_direct t ~reg:b ~rm:a

(* div r32: edx:eax / r32, quotient to eax, remainder to edx *)
let div_r32 t r =
  rex_opt t ~reg:0 ~rm:r;
  byte t 0xF7;
  modrm_direct t ~reg:6 ~rm:r

(* cmp r32, imm32 *)
let cmp_r32_imm t r imm =
  rex_opt t ~reg:0 ~rm:r;
  byte t 0x81;
  modrm_direct t ~reg:7 ~rm:r;
  le32 t imm

(* 64-bit shifts by imm8: /4 shl, /5 shr, /7 sar *)
let shift_imm t ~ext r imm =
  rex_w t ~reg:0 ~rm:r;
  byte t 0xC1;
  modrm_direct t ~reg:ext ~rm:r;
  byte t imm

let shl_r_imm t r imm = shift_imm t ~ext:4 r imm
let shr_r_imm t r imm = shift_imm t ~ext:5 r imm
let sar_r_imm t r imm = shift_imm t ~ext:7 r imm

(* 32-bit shifts by %cl: /4 shl, /5 shr, /7 sar *)
let shift_cl32 t ~ext r =
  rex_opt t ~reg:0 ~rm:r;
  byte t 0xD3;
  modrm_direct t ~reg:ext ~rm:r

let shl_cl32 t r = shift_cl32 t ~ext:4 r
let shr_cl32 t r = shift_cl32 t ~ext:5 r
let sar_cl32 t r = shift_cl32 t ~ext:7 r

(* movsxd r64, r32 *)
let movsxd t ~dst ~src =
  rex_w t ~reg:dst ~rm:src;
  byte t 0x63;
  modrm_direct t ~reg:dst ~rm:src

(* movzx eax, al *)
let movzx_eax_al t =
  byte t 0x0F;
  byte t 0xB6;
  byte t 0xC0

(* setcc r8 — al/cl/dl/bl only *)
let setcc t cc r =
  assert (r < 4);
  byte t 0x0F;
  byte t (0x90 lor cc);
  modrm_direct t ~reg:0 ~rm:r

(* and a8, b8 / or a8, b8 — low-byte registers *)
let and_r8 t a b =
  assert (a < 4 && b < 4);
  byte t 0x20;
  modrm_direct t ~reg:b ~rm:a

let or_r8 t a b =
  assert (a < 4 && b < 4);
  byte t 0x08;
  modrm_direct t ~reg:b ~rm:a

(* xor al, imm8 *)
let xor_al_imm t imm =
  byte t 0x34;
  byte t imm

(* test al, al *)
let test_al_al t =
  byte t 0x84;
  modrm_direct t ~reg:rax ~rm:rax

(* ---- SSE2 scalar double ---- *)

(* movq xmm, r64 *)
let movq_x_r t x r =
  byte t 0x66;
  rex_w t ~reg:x ~rm:r;
  byte t 0x0F;
  byte t 0x6E;
  modrm_direct t ~reg:x ~rm:r

(* movq r64, xmm *)
let movq_r_x t r x =
  byte t 0x66;
  rex_w t ~reg:x ~rm:r;
  byte t 0x0F;
  byte t 0x7E;
  modrm_direct t ~reg:x ~rm:r

(* addsd/subsd/mulsd/divsd x1, x2 *)
let sse_arith t ~opcode x1 x2 =
  byte t 0xF2;
  rex_opt t ~reg:x1 ~rm:x2;
  byte t 0x0F;
  byte t opcode;
  modrm_direct t ~reg:x1 ~rm:x2

let addsd t x1 x2 = sse_arith t ~opcode:0x58 x1 x2
let subsd t x1 x2 = sse_arith t ~opcode:0x5C x1 x2
let mulsd t x1 x2 = sse_arith t ~opcode:0x59 x1 x2
let divsd t x1 x2 = sse_arith t ~opcode:0x5E x1 x2

(* ucomisd x1, x2 *)
let ucomisd t x1 x2 =
  byte t 0x66;
  rex_opt t ~reg:x1 ~rm:x2;
  byte t 0x0F;
  byte t 0x2E;
  modrm_direct t ~reg:x1 ~rm:x2

(* xorpd x1, x2 *)
let xorpd t x1 x2 =
  byte t 0x66;
  rex_opt t ~reg:x1 ~rm:x2;
  byte t 0x0F;
  byte t 0x57;
  modrm_direct t ~reg:x1 ~rm:x2

(* cvttsd2si r64, xmm *)
let cvttsd2si t r x =
  byte t 0xF2;
  rex_w t ~reg:r ~rm:x;
  byte t 0x0F;
  byte t 0x2C;
  modrm_direct t ~reg:r ~rm:x

(* cvtsi2sd xmm, r64 *)
let cvtsi2sd t x r =
  byte t 0xF2;
  rex_w t ~reg:x ~rm:r;
  byte t 0x0F;
  byte t 0x2A;
  modrm_direct t ~reg:x ~rm:r

(* ---- branches (pass-1 holes, pass-2 patches) ---- *)

let hole t l =
  l.holes <- pos t :: l.holes;
  le32 t 0

(* jcc rel32 *)
let jcc t cc l =
  byte t 0x0F;
  byte t (0x80 lor cc);
  hole t l

(* jmp rel32 *)
let jmp t l =
  byte t 0xE9;
  hole t l

let finalize t =
  let code = Bytes.sub t.buf 0 t.len in
  List.iter
    (fun l ->
      if l.holes <> [] then begin
        if l.target < 0 then failwith "Asm.finalize: unbound label";
        List.iter
          (fun h ->
            let rel = l.target - (h + 4) in
            Bytes.set_int32_le code h (Int32.of_int rel))
          l.holes
      end)
    t.labels;
  code
