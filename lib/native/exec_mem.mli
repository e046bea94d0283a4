(** Executable memory for the native Ion tier, with strict W^X: code is
    emitted into an ordinary OCaml [bytes] buffer, copied into an RW
    anonymous mapping, and the mapping is flipped to RX before
    {!install} returns.  The mapping is fresh, or a {!recycle}d region
    of the same size flipped RX -> RW for the copy.  No path ever yields
    a writable+executable page, and an installed region is immutable
    until {!release} unmaps it or {!recycle} takes it back. *)

(** The unboxed register file generated code runs over: NaN-boxed 64-bit
    values in C-allocated (GC-stable) memory, addressed as
    [\[%rdi + 8*slot\]]. *)
type regfile = Jitbull_runtime.Nanbox.words

(** Whether the backend can run here: compiled for x86-64 on a POSIX
    host.  When [false], {!install} fails and callers must keep using
    the LIR executor. *)
val available : bool

val page_size : int

type region = private {
  addr : nativeint;
  size : int;  (** mapped size, page-rounded *)
  code_size : int;  (** emitted machine-code bytes *)
  mutable mapped : bool;
}

(** Map (or take a recycled region of the same page count), fill, and
    seal (RX) a region holding [code]. *)
val install : bytes -> region

(** Unmap.  Idempotent. *)
val release : region -> unit

(** Stop counting [r] as live and keep its pages, RX, for a later
    {!install} of the same size; beyond 64 kept regions, unmap instead.
    No code may run in [r] any more.  Idempotent, and a no-op on a
    released region.  Takes a lock: not for a finaliser. *)
val recycle : region -> unit

(** [call r off regs heap] enters the generated code at byte offset
    [off] with [regs] in the first argument register and the heap
    mirror's descriptor ({!Jitbull_runtime.Heap.mirror}) in the second,
    returning the packed [(lir_pc lsl 4) lor reason] exit code.
    Allocation-free. *)
val call : region -> int -> regfile -> Jitbull_runtime.Nanbox.words -> int

val make_regfile : int -> regfile

(** Process-global cumulative mapping counters (atomic; shared across
    domains).  [s_maps_total] counts installs, a recycled region's
    included, and only ever grows — tests assert a forbidden compile
    leaves it unchanged.  A recycled region counts neither as live nor
    as unmapped; [s_free_regions] holds it until an install takes it. *)
type stats = {
  s_maps_total : int;
  s_unmaps_total : int;
  s_live_regions : int;
  s_live_bytes : int;
  s_free_regions : int;
}

val stats : unit -> stats
