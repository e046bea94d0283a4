(** Corpus of coverage-increasing inputs.

    The harness adds an input only when it contributed new coverage
    features; {!pick} draws a mutation parent, weighted by how much
    coverage the entry gained when admitted, so inputs that opened new
    engine behavior are mutated more often.

    With a [dir], entries persist as [NNNNNN.js] files; {!create} reloads
    whatever a previous campaign left there (the nightly CI job keeps the
    directory as a cached artifact), and {!add} writes through. Entries
    born from the typed mutation IL additionally carry their serialized
    {!Il} program (persisted as an [NNNNNN.il] sidecar): only those are
    mutation parents — source-only entries are kept for their coverage
    and never mutated. *)

type entry = {
  id : int;
  source : string;
  gain : int;  (** new coverage features when admitted (≥ 1) *)
  il : string option;  (** serialized {!Il.prog} this entry lowers from *)
}

type t

(** [create ?dir ()] — an empty corpus, or one reloaded from [dir]
    (created if missing; reloaded entries get [gain = 1]). *)
val create : ?dir:string -> unit -> t

val length : t -> int
val entries : t -> entry list
val dir : t -> string option

(** [add t ?il ~gain source] — admit, persist when backed by a
    directory ([?il] is the serialized IL form, if the input has one). *)
val add : t -> ?il:string -> gain:int -> string -> entry

(** Gain-weighted random draw of a mutation parent among the entries
    carrying an IL form; [None] when there are none. *)
val pick : Jitbull_util.Prng.t -> t -> entry option
