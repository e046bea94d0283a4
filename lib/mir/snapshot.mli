(** Immutable snapshot of a MIR graph, taken between optimization passes.

    This is the value the paper calls [IRᵢ]: JITBULL's Δ extractor works
    on pairs of consecutive snapshots, never on the live (mutable) graph.
    Entry [k] (in block order) carries the instruction's display number,
    its opcode as a dense opcode id (chains compare across functions by
    opcode name, so renumbering and renaming are invisible), and its
    operand numbers, dangling ones included.

    The entries are stored as a struct of arrays: a snapshot is four
    flat [int array]s, and taking one allocates nothing per instruction.
    Dense opcode ids come from one process-wide index seeded with
    {!Mir.opcode_names}, so a MIR opcode's id is its {!Mir.opcode_tag}
    and {!take} never hashes a string; only {!make} with a name outside
    MIR extends the index. *)

type t = private {
  func_name : string;
  n_blocks : int;  (** block count at snapshot time, for the IR-diff layer *)
  nums : int array;  (** entry → instruction display number *)
  ops : int array;  (** entry → dense opcode id, see {!opcode_name} *)
  operand_start : int array;
  operands : int array;
      (** the operand numbers of entry [k], in operand order, are
          [operands.(operand_start.(k)) .. operands.(operand_start.(k + 1) - 1)] *)
}

(** [take g] snapshots [g] in block order, phis before body. A trace of
    snapshots may hold one snapshot several times over: the pipeline
    keeps the previous snapshot, physically, for a pass after which
    {!matches} holds. *)
val take : Mir.t -> t

(** [matches t g] — [take g] would equal [t]: the same function name,
    entries (numbers, opcodes and operand numbers, in block order) and
    block count. It walks [g] once and allocates nothing, so a caller
    can keep [t] in place of a snapshot it would take. *)
val matches : t -> Mir.t -> bool

(** [make ~func_name ~n_blocks entries] builds a snapshot from
    [(num, opcode name, operand numbers)] triples, in order (tests and
    tools). A name outside MIR extends the dense opcode index (below
    [2{^20} - 1] distinct names). *)
val make : func_name:string -> n_blocks:int -> (int * string * int list) list -> t

(** [opcode_name i] — the name of dense opcode id [i]. *)
val opcode_name : int -> string

(** [opcode_index name] — the dense opcode id of [name], extending the
    index with a name outside MIR as {!make} does. *)
val opcode_index : string -> int

val entry_count : t -> int

(** [entries t] — the [(num, opcode name, operand numbers)] triples
    {!make} takes, in order. *)
val entries : t -> (int * string * int list) list

(** [same_entries a b] — [a] and [b] have the same entries (numbers,
    opcodes and operands, in order), whatever their function name and
    block count. *)
val same_entries : t -> t -> bool

val to_string : t -> string
