(** Instruction dependency graph (Algorithm 1's BUILDGRAPH).

    Built from an IR {!Jitbull_mir.Snapshot}: every instruction that has
    operands enters the graph; an instruction used as an operand of
    another becomes a dependency of it and stops being a root. Roots are
    therefore the instructions no other instruction uses.

    Vertices are snapshot positions; they carry dense opcode indices, not
    instruction numbers — chains must compare across different functions
    and across renumbering. *)

module Ints : Hashtbl.S with type key = int

type t = private {
  ops : int array;  (** position → dense opcode index *)
  has_operands : bool array;
  used : bool array;  (** some entry has the position as an operand *)
  dep_start : int array;
  deps : int array;
      (** the dependencies (= operands, in operand order) of position [v]
          are [deps.(dep_start.(v)) .. deps.(dep_start.(v + 1) - 1)] *)
}

(** [build snapshot] runs Algorithm 1's BUILDGRAPH. Snapshot numbers are
    unique, as {!Jitbull_mir.Snapshot.take} makes them; operand numbers
    missing from the snapshot are ignored. Each opcode string is hashed
    once, without a lock, against a process-wide dense opcode index. *)
val build : Jitbull_mir.Snapshot.t -> t

(** [opcode_id i] — the {!Jitbull_util.Intern} id of the opcode with
    dense index [i] (below [2{^21} - 1]). *)
val opcode_id : int -> Jitbull_util.Intern.id

val size : t -> int
val opcode : t -> int -> string
val is_root : t -> int -> bool
val roots : t -> int list
val node_count : t -> int
val edge_count : t -> int
