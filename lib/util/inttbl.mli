(** Table from nonzero [int] keys to [int] values in two flat arrays
    (open addressing, linear probing, at most half full): a lookup hashes
    one machine word and allocates nothing. An absent key reads as 0. *)

type t

(** [create n] — an empty table sized for [n] keys without growing. *)
val create : int -> t

(** [find t k] — [k]'s value, 0 when absent. *)
val find : t -> int -> int

(** [add t k d] adds [d] to [k]'s value, inserting [k] if absent. *)
val add : t -> int -> int -> unit

(** [replace t k v] sets [k]'s value, inserting [k] if absent. *)
val replace : t -> int -> int -> unit

(** [iter f t] — [f k v] on every key, in table order. *)
val iter : (int -> int -> unit) -> t -> unit

(** [drain f t] — [iter f t], removing each key after [f] has seen it;
    [t] keeps its capacity. *)
val drain : (int -> int -> unit) -> t -> unit

(** [capacity t] — the slots [t] holds (twice the keys it takes before
    growing); {!iter} and {!drain} visit every slot. *)
val capacity : t -> int
