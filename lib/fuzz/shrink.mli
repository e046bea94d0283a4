(** Delta-debugging shrinker: minimize a program while a predicate holds.

    Works on the AST (candidates always re-parse): propagates literals
    (a variable bound once to a literal and never reassigned is replaced
    by it — lowered {!Il} programs bind every constant to its own [var]),
    drops whole functions, removes statement chunks ddmin-style (halves,
    quarters, then singles — recursing into [if]/[for]/block bodies),
    simplifies compound statements ([if] → one branch, loop → its body
    once), and shrinks numeric literals. Greedy with restart: whenever a
    smaller candidate keeps the predicate it becomes the new best and the
    candidate generation starts over from it.

    The predicate evaluation budget ([max_checks]) bounds total work;
    each check typically runs the full differential oracle, so the
    default keeps shrinking under a few seconds. *)

(** [shrink ?max_checks ?seed ?errors ~keep source] — smallest found
    source (by printed length) with [keep] still true. [keep] must hold
    on [source]'s parse-and-reprint normalization, else [source] is
    returned unchanged.

    The shrinker is deterministic: for fixed inputs it always explores
    candidates in the same order and returns the same result. [seed]
    varies that order (a deterministic shuffle per greedy restart) —
    two seeds may find different local minima, but each seed is fully
    reproducible.

    An exception raised by [keep] counts as [false] (the candidate is
    not kept), but it is {e not} silent: each one increments [errors]
    when provided. A predicate that evaluates the differential oracle
    only raises when the infrastructure itself breaks, so callers (the
    [--minimize] CLI path) fail the run when the counter is nonzero
    instead of reporting a "successful" minimization. *)
val shrink :
  ?max_checks:int ->
  ?seed:int ->
  ?errors:int ref ->
  keep:(string -> bool) ->
  string ->
  string

(** [shrink_signal ?config ?max_checks ?seed ?errors ~verdict source] —
    specialize [keep] to "the oracle still classifies the program as
    {!Oracle.verdict_kind}[ verdict] under [config]": minimize a crash to
    a crash, a mismatch to a mismatch, etc. *)
val shrink_signal :
  ?config:Jitbull_jit.Engine.config ->
  ?max_checks:int ->
  ?seed:int ->
  ?errors:int ref ->
  verdict:Oracle.verdict ->
  string ->
  string
