(** x86-64 instruction encoder for the native Ion tier: two-pass
    emit-and-patch.  Pass 1 ({!jcc}/{!jmp} on unbound labels) records a
    rel32 hole; pass 2 ({!finalize}) patches every hole from the bound
    label positions and returns the finished code bytes.

    Only the forms the LIR lowering needs are provided, all with fixed,
    golden-byte-testable encodings: slot loads/stores address
    [\[%rdi + disp\]], heap reads [\[base + disp\]] and
    [\[base + 8*index\]], a displacement taking a disp8 when it fits
    in [-128, 127] and a disp32 otherwise; every instruction clobbers
    caller-saved registers only. *)

(* GPR / XMM numbers in hardware encoding order. *)
val rax : int
val rcx : int
val rdx : int
val rsi : int
val rdi : int
val r8 : int
val r11 : int
val xmm0 : int
val xmm1 : int

(* Condition codes for {!jcc} / {!setcc}. *)
val cc_b : int
val cc_ae : int
val cc_e : int
val cc_ne : int
val cc_a : int
val cc_s : int
val cc_p : int
val cc_np : int
val cc_l : int
val cc_g : int

type label
type t

val create : unit -> t

(** Current byte position (the offset recorded per LIR pc). *)
val pos : t -> int

val new_label : t -> label
val bind : t -> label -> unit

(** moves *)

val mov_r_slot : t -> int -> int -> unit  (** mov r64, [rdi+8*slot] *)

val mov_slot_r : t -> int -> int -> unit  (** mov [rdi+8*slot], r64 *)

val mov_r_mem : t -> int -> base:int -> disp:int -> unit  (** mov r64, [base+disp] *)

val mov_r_index : t -> int -> base:int -> index:int -> unit  (** mov r64, [base+8*index] *)

val mov_rr : t -> dst:int -> src:int -> unit
val mov_rr32 : t -> dst:int -> src:int -> unit
val movabs : t -> int -> int64 -> unit
val mov_eax_imm : t -> int -> unit
val mov_r8_imm : t -> int -> int -> unit
val ret : t -> unit

(** integer ALU *)

val cmp_rr : t -> int -> int -> unit
val add_rr : t -> int -> int -> unit
val xor_rr : t -> int -> int -> unit
val and_rr32 : t -> int -> int -> unit
val or_rr32 : t -> int -> int -> unit
val xor_rr32 : t -> int -> int -> unit
val cmp_r32_imm : t -> int -> int -> unit

(** 64-bit forms with a sign-extended imm32 *)

val add_r_imm : t -> int -> int -> unit
val and_r_imm : t -> int -> int -> unit
val cmp_r_imm : t -> int -> int -> unit
val test_rr : t -> int -> int -> unit
val div_r32 : t -> int -> unit
val shl_r_imm : t -> int -> int -> unit
val shr_r_imm : t -> int -> int -> unit
val sar_r_imm : t -> int -> int -> unit
val shl_cl32 : t -> int -> unit
val shr_cl32 : t -> int -> unit
val sar_cl32 : t -> int -> unit
val movsxd : t -> dst:int -> src:int -> unit
val movzx_eax_al : t -> unit
val setcc : t -> int -> int -> unit
val and_r8 : t -> int -> int -> unit
val or_r8 : t -> int -> int -> unit
val xor_al_imm : t -> int -> unit
val test_al_al : t -> unit

(** SSE2 scalar double *)

val movq_x_r : t -> int -> int -> unit
val movq_r_x : t -> int -> int -> unit
val addsd : t -> int -> int -> unit
val subsd : t -> int -> int -> unit
val mulsd : t -> int -> int -> unit
val divsd : t -> int -> int -> unit
val ucomisd : t -> int -> int -> unit
val xorpd : t -> int -> int -> unit
val cvttsd2si : t -> int -> int -> unit
val cvtsi2sd : t -> int -> int -> unit

(** branches *)

val jcc : t -> int -> label -> unit
val jmp : t -> label -> unit

(** Patch every recorded rel32 hole and return the code. *)
val finalize : t -> bytes
