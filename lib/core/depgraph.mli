(** Instruction dependency graph (Algorithm 1's BUILDGRAPH).

    Built from an IR {!Jitbull_mir.Snapshot}: every instruction that has
    operands enters the graph; an instruction used as an operand of
    another becomes a dependency of it and stops being a root. Roots are
    therefore the instructions no other instruction uses.

    Vertices are snapshot positions; they carry the snapshot's dense
    opcode ids, not instruction numbers — chains must compare across
    different functions and across renumbering. A graph is a reusable
    buffer: {!load} refills it from another snapshot, growing its arrays
    only past their largest size so far, and hashes nothing. Operand
    numbers map to positions through an array indexed by number. *)

type t = private {
  mutable size : int;  (** number of positions (snapshot entries) *)
  mutable nums : int array;  (** position → display number (the snapshot's own array) *)
  mutable ops : int array;  (** position → dense opcode id (the snapshot's own array) *)
  mutable operand_start : int array;
      (** the snapshot's operand offsets: position [v] has operands,
          dangling ones included, iff
          [operand_start.(v + 1) > operand_start.(v)] *)
  mutable pos : int array;  (** number → position, read through {!position} *)
  mutable used : bool array;  (** some entry has the position as an operand *)
  mutable dep_start : int array;
  mutable deps : int array;
      (** the dependencies (= operands present in the snapshot, in operand
          order) of position [v] are
          [deps.(dep_start.(v)) .. deps.(dep_start.(v + 1) - 1)] *)
  mutable repeated : bool;  (** some number names two entries *)
}

(** [create ()] — an empty graph to {!load} into. *)
val create : unit -> t

(** [load g snapshot] runs Algorithm 1's BUILDGRAPH into [g]. Snapshot
    numbers are non-negative, as {!Jitbull_mir.Snapshot.take} makes them
    (a negative one raises [Invalid_argument]); operand numbers missing
    from the snapshot are ignored, and a repeated number resolves to its
    last entry. *)
val load : t -> Jitbull_mir.Snapshot.t -> unit

(** [build snapshot] — a fresh graph of [snapshot]. *)
val build : Jitbull_mir.Snapshot.t -> t

(** [position g num] — the position of the entry numbered [num], or -1
    when the snapshot has none. *)
val position : t -> int -> int

(** [is_root g v] — [v] has operands and no entry uses it. *)
val is_root : t -> int -> bool
