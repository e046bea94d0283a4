(** The JSON-lines file sink behind {!Tracer.set_file_sink} and
    {!Audit.set_file_sink}: one line per write, flushed at once, with
    optional size-based rotation.

    Unsynchronized: the owner calls it under the same mutex that guards
    its ring. After {!create} it never raises. A write or reopen error
    (a full disk, a removed directory) closes and detaches the sink and
    is reported once as a [Logs] warning; later writes are dropped, and
    the owner's in-memory ring keeps recording. *)

type t

(** [create ?max_bytes ~what path] opens (truncates) [path]; raises
    [Sys_error] if it cannot. [what] names the stream in the failure
    report. With [max_bytes], once the file reaches that size it moves
    to [path ^ ".1"] (one level of history, clobbered on the next
    rotation) and [path] reopens fresh, so a long-lived daemon's log
    stays bounded at ~2×[max_bytes]. *)
val create : ?max_bytes:int -> what:string -> string -> t

(** Append [line] and a newline, flush, then rotate if due. *)
val write : t -> string -> unit

(** Rotations performed so far. *)
val rotations : t -> int

(** Close the file; later writes are dropped. *)
val close : t -> unit
