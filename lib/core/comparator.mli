(** The Δ comparator (paper §IV-E, Algorithm 2).

    Two per-pass deltas are similar when either their removed or their
    added sub-chain multisets are: the number of sub-chains in common
    ([EqChains], counting multiplicity) reaches both the absolute
    threshold [Thr] and the fraction [Ratio] of the maximum possible
    ([MaxEqChains = min(|δ|, |δ'|)]). The paper sets [Thr = 3] and
    [Ratio = 0.5], tuned for detection rate over false positives. Sides
    and a match's evidence hold packed sub-chain keys ({!Delta.key}). *)

(** [thr] must be ≥ 1 for a DB query: {!Db.matching_detailed} raises
    [Invalid_argument] below that, since a non-positive threshold matches
    key-disjoint (even empty) sides, which its overlap index cannot see.
    The naive folds below accept any value. *)
type params = {
  thr : int;
  ratio : float;
}

(** The repo default: Thr = 2, Ratio = 0.5. The paper's Thr = 3 counts
    sub-chains per chain pair; this repo's edge multiset yields about two
    sub-chain instances per eliminated bounds check, so Thr scales to 2
    (DESIGN.md §2). *)
val default_params : params

(** [compare_sides ?params d d'] — the COMPARECHAINS function on one side
    (removed or added). Sides are packed-key multisets ({!Delta.side});
    the fold hashes ints only. *)
val compare_sides : ?params:params -> Delta.side -> Delta.side -> bool

(** [similar ?params delta delta'] — Δᵢ ≈ Δ'ᵢ (either side matches). *)
val similar : ?params:params -> Delta.t -> Delta.t -> bool

(** Evidence for one matching pass: which side satisfied the Thr/Ratio
    test ([`Removed] is tried first, as in {!similar}), its scores, and
    the common sub-chains themselves ([md_common], key → min
    multiplicity, sorted by key; multiplicities sum to [md_eq_chains]) —
    the explanation layer's "matching sub-chains", which
    [Jitbull.audit_matches] renders to strings. [md_common] is computed
    only when forced: a verdict needs the pass names alone, and only an
    audit record reads the chains. Force it on the domain that made the
    query. *)
type match_detail = {
  md_pass : string;
  md_side : [ `Removed | `Added ];
  md_eq_chains : int;
  md_max_eq_chains : int;
  md_common : (Delta.key * int) list Lazy.t;
}

(** [side_common d d'] — the multiset intersection behind
    {!side_score}'s EqChains, sorted by key. Called once per {e matching}
    pass, not during scoring. *)
val side_common : Delta.side -> Delta.side -> (Delta.key * int) list

(** [matching_passes_detailed ?params ?obs dna dna'] — one
    {!match_detail} per pass [i] with Δᵢ ≈ Δ'ᵢ, in [dna]'s pass order.
    With [obs]: [comparator.pairs]/[comparator.matches] counters and a
    [comparator.seconds] latency histogram (no trace events — this is the
    policy's hot path). *)
val matching_passes_detailed :
  ?params:params -> ?obs:Jitbull_obs.Obs.t -> Dna.t -> Dna.t -> match_detail list

(** [matching_passes ?params ?obs dna dna'] — pass names [i] with
    Δᵢ ≈ Δ'ᵢ (Algorithm 2's DisPass contribution of one DB entry);
    [matching_passes_detailed] with the evidence dropped. *)
val matching_passes :
  ?params:params -> ?obs:Jitbull_obs.Obs.t -> Dna.t -> Dna.t -> string list
