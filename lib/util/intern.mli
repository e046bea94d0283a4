(** Global string interner for the Δ machinery.

    Sub-chain keys ("a->b->c"), opcodes and pass names are compared and
    hashed millions of times per benchmark run by the comparator and the
    DB index; interning maps each distinct string to a small integer id
    exactly once, so Δ sides become [(int, int) Hashtbl.t] and every
    lookup hashes a machine word instead of the string. The Δ extractor
    itself counts sub-chains under its own packed keys over a lock-free
    dense opcode index ([Jitbull_mir.Snapshot]) and calls in here only
    for the keys of a non-empty δ⁻/δ⁺.

    Composite entry points ([pair]/[triple]/[rooted]) intern a sub-chain
    from the ids of its constituent opcodes without building the
    ["a->b->c"] string at all on the hit path — the string is only
    materialized the first time a given composite is seen (and is then
    registered, so [intern "a->b->c"] later returns the same id; ids are
    canonical per logical key however they were produced).

    The table is global and append-only: ids are stable for the lifetime
    of the process, which is exactly the scope of the in-memory DNA
    database (the on-disk format stays string-keyed). Every entry point is
    guarded by one internal mutex, so helper domains running background Δ
    extraction may intern concurrently with the main thread. *)

type id = int

(** [intern s] — the canonical id of [s], allocating one on first use. *)
val intern : string -> id

(** [to_string id] — the string [id] was interned from. Raises
    [Invalid_argument] on an id never returned by this module. *)
val to_string : id -> string

(** [pair a b] — id of ["<a>-><b>"] given opcode ids [a], [b]. *)
val pair : id -> id -> id

(** [triple a b c] — id of ["<a>-><b>-><c>"]. *)
val triple : id -> id -> id -> id

(** [rooted a] — id of ["^<a>"], the root-boundary marker opcode. *)
val rooted : id -> id

(** Number of distinct interned strings (diagnostics / tests). *)
val size : unit -> int
