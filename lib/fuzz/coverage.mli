(** Coverage map for the coverage-guided fuzzer.

    "Coverage" here is deliberately cheap: no per-edge instrumentation of
    the engine, just features derived from artifacts the pipeline already
    produces —

    - bytecode opcode {e bigrams} (adjacent opcode-kind pairs per
      function), a proxy for which VM/compiler shapes an input reaches;
    - per-pass Δ sub-chain keys from the DNA the go/no-go machinery
      extracts anyway (pass name × removed/added side × sub-chain
      string), a proxy for which optimizer rewrites fired;
    - engine events (bailout/deopt/blacklist observed, go/no-go verdict
      kinds, per-pass "changed the graph" bits), read from the
      [Obs]-pattern counters the engine and pipeline publish.

    Each feature is hashed to an [int]; the map is the set of feature
    hashes ever seen. An input is "interesting" (kept in the corpus) iff
    it contributes at least one unseen feature — the classic AFL-style
    keep rule, over compiler-level rather than branch-level signals. *)

type t

val create : unit -> t

(** Distinct features seen so far. *)
val count : t -> int

(** [add_features t fs] marks every feature in [fs] as seen and returns
    how many of them were new. *)
val add_features : t -> int list -> int

val seen : t -> int -> bool

(** Every feature hash in the map, sorted — the payload of a
    master/worker coverage sync ({!Sync}). *)
val features : t -> int list

(** {2 Feature extraction} *)

(** Opcode-kind bigrams over every function (and main) of a compiled
    program. Operand-insensitive apart from binop/unop operators, so two
    programs differing only in constants map to the same features. *)
val features_of_bytecode : Jitbull_bytecode.Op.program -> int list

(** One feature per (pass, side, sub-chain key) present in a DNA — the
    same Δ sub-chains the go/no-go comparator matches on. *)
val features_of_dna : Jitbull_core.Dna.t -> int list

(** Hash an engine-event flag (e.g. ["bailout"], ["verdict:forbid"],
    ["pass-changed:gvn"]) into feature space. *)
val feature_of_flag : string -> int

(** All features of one instrumented oracle run: bytecode bigrams, DNA
    sub-chains, engine-event flags, and the oracle verdict kind. *)
val features_of_run : Oracle.instrumented -> int list
