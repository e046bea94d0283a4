(** Linear-scan register allocation (Poletto–Sarkar) over the linearized
    LIR.

    Live intervals are derived from a backward liveness dataflow over the
    LIR's basic blocks (so values live around loop back edges get
    intervals covering the whole loop). Virtual registers are assigned
    to the {!Lir.machine_registers} machine registers, spilling — in
    interval order — to slot numbers at and above the boundary. The
    executor addresses registers and slots uniformly, so no reload
    instructions are required; [spill_count] reports allocation pressure
    for the engine statistics. All register fields in the code are
    rewritten in place. The cost is linear in the code size times the
    bitset words per block, plus the liveness iterations. *)

val intervals : Lir.func -> int array * int array
(** [(start, stop)] per virtual register of an unallocated function: the
    hull of the pcs where it is defined, used or live on entry to the
    instruction; [max_int] and [-1] for a register the code never
    mentions. *)

val allocate : Lir.func -> unit
