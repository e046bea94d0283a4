(** A small many-readers / one-writer lock for structures that are read
    from several domains while one occasionally mutates them: the DNA
    database, which jitbulld's handler domains read ([/delta],
    [/subscribe]) while [/install] and [/remove] write it, and which a
    client's engine queries while its subscriber thread applies pushed
    entries.

    Writers make progress: a reader is admitted only when no writer
    holds the lock {e and none is waiting for it}, so a DB-generation
    bump is never starved by a continuous stream of queries —
    the writer waits for at most the readers that were already inside
    when it queued up (a property [test/test_util.ml] stress-tests
    across domains).

    The price of that fairness is that read acquisition is {e not}
    reentrant: a thread that already holds the read side and takes it
    again can deadlock against a writer that queued in between. Callers
    keep a strict no-nesting discipline — [Db] runs its whole query
    under one read section and uses [_unlocked] internals inside. *)

type t

val create : unit -> t

val read_lock : t -> unit
val read_unlock : t -> unit
val write_lock : t -> unit
val write_unlock : t -> unit

(** Bracketed forms; the lock is released on exceptions. *)

val with_read : t -> (unit -> 'a) -> 'a
val with_write : t -> (unit -> 'a) -> 'a
