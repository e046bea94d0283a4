(** A bounded ring: the last [capacity] values pushed, oldest evicted
    first, plus a count of everything ever pushed.

    Unsynchronized. The tracer, the audit trail and the IR-diff store
    each guard their ring with their own mutex, because that mutex also
    covers their file sink and cumulative aggregates. *)

type 'a t

(** [create ~capacity] — holds at most [max 1 capacity] values. *)
val create : capacity:int -> 'a t

val capacity : 'a t -> int

(** Append [x], evicting the oldest value when full. *)
val push : 'a t -> 'a -> unit

(** Retained values, oldest first. *)
val to_list : 'a t -> 'a list

(** Values ever pushed (≥ [List.length (to_list t)]). *)
val total : 'a t -> int
