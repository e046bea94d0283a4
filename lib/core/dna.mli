(** The JIT DNA of a function: the vector (Δ₁ … Δₙ) of per-pass IR
    modifications — the Δ extractor's output (paper §IV-D). *)

type t = {
  func_name : string;
  deltas : (string * Delta.t) list;  (** pass name → Δᵢ, in pipeline order *)
}

(** [extract ?n trace] consumes the pipeline's snapshot trace
    (IR₀ … IRₙ with pass names) and computes Δᵢ between consecutive
    snapshots through the dependency graphs. A snapshot with the same
    entries as the one before it gets an empty Δ without building a
    graph. [n] is the sub-chain n-gram size (default 3, see {!Delta}). *)
val extract : ?n:int -> (string * Jitbull_mir.Snapshot.t) list -> t

(** [nonempty_passes t] — passes that modified the IR. *)
val nonempty_passes : t -> string list

val to_sexpr : t -> Jitbull_util.Sexpr.t
val of_sexpr : Jitbull_util.Sexpr.t -> t
val to_string : t -> string
