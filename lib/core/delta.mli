(** Δᵢ — the modifications one optimization pass made to the IR,
    represented as the multiset of {e removed} and {e added} dependency
    sub-chains (the paper's δ⁻/δ⁺).

    Sub-chains are opcode n-grams of the root→leaf dependency chains
    ([n] is 2 or 3); with [n = 2] they coincide with dependency
    {e edges}, which is exactly what the paper's worked example
    computes ([A→B→C→D] vs [B→C→E] ⇒ δ⁻ = \{A→B, C→D\}, δ⁺ = \{C→E\}). We count multiplicity so
    the comparator's [Thr] threshold counts sub-chain instances as the
    pairwise chain loop of Algorithm 1 does. The default is [n = 3]:
    measured against the corpus it keeps variant detection at 100%% while
    dropping the single-VDC false-positive rate to the paper's 0-5%% band
    (see DESIGN.md §4 and EXPERIMENTS.md). *)

(** A sub-chain key: the extractor's own packed int, three 21-bit slots
    of dense opcode ids ({!Jitbull_mir.Snapshot.opcode_index}). It stays
    an int from the snapshot to the verdict — sides, the DB index and the
    comparator's evidence hold keys — and becomes a string only at the
    file, wire and audit edge ({!key_of_string}, {!key_to_string}). *)
type key = int

(** [key_of_string s] — the key of [s]. The rule is canonical: a
    chain-shaped [s] (["a->b"], ["^a->b"] or ["a->b->c"], each name
    non-empty and not starting with ["^"]) packs through the snapshot
    opcode index, registering names it has not seen; any other string
    takes a negative key from {!Jitbull_util.Intern}. So a string has one
    key whichever of a DB file or a snapshot saw its names first. *)
val key_of_string : string -> key

(** [key_to_string k] — the string [k] was made from;
    [key_to_string (key_of_string s) = s] for every [s]. *)
val key_to_string : key -> string

type side = (key, int) Hashtbl.t
(** sub-chain key → multiplicity (≥ 1). *)

type t = {
  removed : side;
  added : side;
}

(** The windowed recount. A sub-chain instance's window is the
    positions it passes through: [u, d] for an edge u→d or a
    root-boundary pair ^u→d, [u, m, d] for a walk u→m→d.
    [count_window ~n counts g dirty sign] adds [sign] to [counts] under
    the packed key of every instance of [g] whose window holds a
    position with [dirty.(v)], once per instance, and hashes no other.
    [n] is 2 (dependency edges) or 3 (length-2 walks plus root-boundary
    pairs); any other [n] raises [Invalid_argument]. Exact while no
    opcode name contains ["->"] or starts with ["^"] (no MIR opcode
    does), which could alias two key shapes. *)
val count_window : n:int -> Jitbull_util.Inttbl.t -> Depgraph.t -> bool array -> int -> unit

(** [of_counts counts] — the Δ of signed counts: keys above 0 are
    removed sub-chains, keys below 0 added ones. It empties [counts]. *)
val of_counts : Jitbull_util.Inttbl.t -> t

(** [empty ()] — a fresh Δ of a pass that changed nothing. *)
val empty : unit -> t

(** [is_empty t] — the pass changed nothing (or was disabled). *)
val is_empty : t -> bool

(** [size side] — total multiplicity (the paper's |δ|). *)
val total : side -> int

(** [side_of_list entries] — build a side from string keys (tests, bench
    synthesis). *)
val side_of_list : (string * int) list -> side

(** Serialization for the on-disk DNA database. [of_sexpr] raises
    [Sexpr.Decode_error] on a malformed entry or a multiplicity below 1
    (extraction never produces one). *)

val to_sexpr : t -> Jitbull_util.Sexpr.t
val of_sexpr : Jitbull_util.Sexpr.t -> t

val to_string : t -> string
