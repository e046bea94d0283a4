(** Global string interner: each distinct string gets a small integer id
    once. [Jitbull_core.Delta.key_of_string] takes a negative key from
    here for a string with no packed sub-chain form, at the file and wire
    edge only. Append-only (ids are process-stable) and guarded by one
    mutex. *)

type id = int

(** [intern s] — the canonical id of [s], allocating one on first use. *)
val intern : string -> id

(** [to_string id] — the string [id] was interned from. Raises
    [Invalid_argument] on an id never returned by this module. *)
val to_string : id -> string

(** Number of distinct interned strings (diagnostics / tests). *)
val size : unit -> int
