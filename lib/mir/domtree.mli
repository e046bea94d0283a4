(** Dominator tree (Cooper–Harvey–Kennedy iterative algorithm).

    Used by GVN (dominance-based value numbering), LICM (hoist targets),
    the bounds-check eliminator and the verifier. Compute once per pass
    that needs it; the tree is invalidated by any CFG edit. Its tables
    are arrays indexed by block id, so queries allocate nothing. *)

type t

val compute : Mir.t -> t

(** [dominates t a b] — does [a] dominate [b]? (Reflexive: a block
    dominates itself.) *)
val dominates : t -> Mir.block -> Mir.block -> bool

(** [instr_dominates t def use_block ~use_instr] — is the definition
    available at the program point just before [use_instr] in
    [use_block]? Within a block this is instruction order (phis first);
    across blocks it is block dominance. *)
val instr_dominates : t -> Mir.instr -> Mir.block -> use_instr:Mir.instr -> bool

(** [loop_body t header] — membership of the natural loop of every back
    edge into [header] (header included), indexed by block id: [true] at
    [b.bid] iff [b] is in the loop. *)
val loop_body : t -> Mir.block -> bool array
