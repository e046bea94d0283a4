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

type side = (Jitbull_util.Intern.id, int) Hashtbl.t
(** interned sub-chain key → multiplicity. Keys are {!Jitbull_util.Intern}
    ids of ["a->b"] / ["a->b->c"] strings: the comparator's inner loop
    hashes machine words, never strings (the on-disk format is still
    string-keyed; see {!to_sexpr}). *)

type t = {
  removed : side;
  added : side;
}

(** A graph's sub-chain n-gram multiset under packed integer keys, in one
    flat open-addressing table of int keys and int counts;
    [of_multisets] diffs two built with the same [n] and interns only the
    keys that differ. Exact while no opcode name contains ["->"] or starts
    with ["^"] (no MIR opcode does), which could alias two key shapes. *)
type multiset

(** [multiset ~n g] — [n] is 2 (dependency edges) or 3 (length-2 walks
    plus root-boundary pairs); any other [n] raises [Invalid_argument]. *)
val multiset : n:int -> Depgraph.t -> multiset

val of_multisets : before:multiset -> after:multiset -> t

(** [empty ()] — a fresh Δ of a pass that changed nothing. *)
val empty : unit -> t

(** [is_empty t] — the pass changed nothing (or was disabled). *)
val is_empty : t -> bool

(** [size side] — total multiplicity (the paper's |δ|). *)
val total : side -> int

(** [side_of_list entries] — build a side from string keys (tests, bench
    synthesis); [mem_key] looks a string key up in a side. *)
val side_of_list : (string * int) list -> side

val mem_key : side -> string -> bool

(** Serialization for the on-disk DNA database. [of_sexpr] raises
    [Sexpr.Decode_error] on a malformed entry or a multiplicity below 1
    (extraction never produces one). *)

val to_sexpr : t -> Jitbull_util.Sexpr.t
val of_sexpr : Jitbull_util.Sexpr.t -> t

val to_string : t -> string
