(** The JIT DNA of a function: the vector (Δ₁ … Δₙ) of per-pass IR
    modifications — the Δ extractor's output (paper §IV-D).

    The go/no-go analyzer extracts only the passes the DNA database has
    postings for ([?only] on {!extract}); harvesting, the fuzz oracle and
    the verdict-service client extract every pass. *)

type t = {
  func_name : string;
  deltas : (string * Delta.t) list;  (** pass name → Δᵢ, in pipeline order *)
}

(** [extract ?n ?only trace] consumes the pipeline's snapshot trace
    (IR₀ … IRₙ with pass names) and computes Δᵢ between consecutive
    snapshots. The trace may repeat one physically shared snapshot
    ({!Jitbull_passes.Pipeline.run} does for a pass that changed
    nothing): a snapshot that is, or has the same entries as, the one
    before it gets an empty Δ without building a graph. [n] is the
    sub-chain n-gram size: 3 (the default) or 2, see {!Delta}; any other
    [n] raises [Invalid_argument].

    Δᵢ costs what pass i changed. Entries are matched by display number,
    and an entry is dirty when the other side has none of its number or
    its opcode, root status or resolved dependency numbers differ. Only
    the sub-chains whose window holds a dirty entry are recounted on
    each side ({!Delta.count_window}); every other sub-chain is on both
    sides with one key, so the difference of the two recounts is the
    difference of the whole-function multisets. A renumbering pass makes
    most entries dirty and costs one whole recount. Graphs, marks and
    counts live in per-domain scratch, so concurrent extractions on
    several domains stay apart.

    [only] (default: every pass) restricts extraction to the passes it
    accepts: any other pass gets an empty Δ and costs nothing. The Δ of
    every accepted pass equals the one full extraction computes. The
    analyzer passes the set of passes the DNA database has postings for
    ({!Db.posted}), since Algorithm 2 compares Δᵢ only with the same
    pass of a DB entry. *)
val extract :
  ?n:int -> ?only:(string -> bool) -> (string * Jitbull_mir.Snapshot.t) list -> t

(** [nonempty_passes t] — passes that modified the IR. *)
val nonempty_passes : t -> string list

val to_sexpr : t -> Jitbull_util.Sexpr.t
val of_sexpr : Jitbull_util.Sexpr.t -> t
val to_string : t -> string
