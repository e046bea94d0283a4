(** Instruction dependency graph (Algorithm 1's BUILDGRAPH).

    Built from an IR {!Jitbull_mir.Snapshot}: every instruction that has
    operands enters the graph; an instruction used as an operand of
    another becomes a dependency of it and stops being a root. Roots are
    therefore the instructions no other instruction uses.

    Vertices are snapshot positions; they carry the snapshot's dense
    opcode ids, not instruction numbers — chains must compare across
    different functions and across renumbering. Building a graph hashes
    nothing: operand numbers map to positions through a per-domain
    scratch array indexed by number, reused across builds and grown to
    the largest snapshot number seen. *)

type t = private {
  ops : int array;  (** position → dense opcode id (the snapshot's own array) *)
  operand_start : int array;
      (** the snapshot's operand offsets: position [v] has operands,
          dangling ones included, iff
          [operand_start.(v + 1) > operand_start.(v)] *)
  used : bool array;  (** some entry has the position as an operand *)
  dep_start : int array;
  deps : int array;
      (** the dependencies (= operands present in the snapshot, in operand
          order) of position [v] are
          [deps.(dep_start.(v)) .. deps.(dep_start.(v + 1) - 1)] *)
}

(** [build snapshot] runs Algorithm 1's BUILDGRAPH. Snapshot numbers are
    unique and non-negative, as {!Jitbull_mir.Snapshot.take} makes them
    (a negative one raises [Invalid_argument]); operand numbers missing
    from the snapshot are ignored. *)
val build : Jitbull_mir.Snapshot.t -> t

val size : t -> int
val opcode : t -> int -> string
val is_root : t -> int -> bool
val roots : t -> int list
val node_count : t -> int
val edge_count : t -> int
