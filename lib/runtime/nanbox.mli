(** NaN-boxing codec between {!Value.t} and the int64
    register file.  Doubles are raw bits (NaNs canonicalized on encode);
    non-numbers occupy the tag space at unsigned-≥ {!bits_min_tag},
    which no arithmetic result can reach.  Heap-shaped values (strings,
    objects, builtins) are boxed through a per-activation [side] table
    that keeps them rooted for the OCaml GC.  The heap's mirror uses
    the same bits for its cells, with {!bits_host} for those three. *)

(** NaN-boxed words in C memory (GC-stable): the register file
    generated code runs over, and the heap mirror's pages and tables. *)
type words = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

val tag_shift : int
val tag_singleton : int
val tag_array : int
val tag_function : int
val tag_side : int

val bits_min_tag : int64
val bits_undefined : int64
val bits_null : int64
val bits_false : int64
val bits_true : int64
val canonical_nan : int64
val payload_mask : int64

(** The mirror's bits for a string, object or builtin cell: a side ref
    no side table holds, so generated code that reads it exits to the
    host. *)
val bits_host : int64

type side

val side_create : ?size:int -> unit -> side

(** Append a value, returning its slot. *)
val side_push : side -> Value.t -> int

(** Drop every slot at or past [preload] (the constant prefix stays). *)
val side_reset : side -> preload:int -> unit

val tagged : int -> int -> int64
val is_number : int64 -> bool
val encode : side -> Value.t -> int64
val decode : side -> int64 -> Value.t

(** [encode] for a heap cell: the same bits, except {!bits_host} for a
    string, object or builtin. *)
val cell_bits : Value.t -> int64

(** [load side regs r] decodes register [r]. *)
val load : side -> words -> int -> Value.t

(** [store side regs r v] encodes [v] into register [r], boxing no bits.
    A full table is first compacted to the preload and the slots the
    other registers reference: one of [preload + dim regs] never grows. *)
val store : side -> words -> int -> Value.t -> unit
