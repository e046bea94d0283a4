(** Minimal s-expression reader/writer.

    Used as the on-disk format for the JITBULL DNA-vector database and for
    golden-file dumps, and as the DNA text on the verdict wire. Atoms are
    quoted only when they contain whitespace, parentheses, quotes,
    backslashes or [;], or are empty, so files stay human-readable. *)

type t =
  | Atom of string
  | List of t list

val atom : string -> t
val list : t list -> t

(** [int n], [float f], [bool b] build atoms from primitive values. *)

val int : int -> t
val float : float -> t
val bool : bool -> t

(** Accessors; all raise [Decode_error] on shape mismatch. *)

exception Decode_error of string

val to_atom : t -> string
val to_list : t -> t list
val to_int : t -> int
val to_float : t -> float
val to_bool : t -> bool

(** [field name sexp] finds the sub-list [(name v...)] inside a list sexp and
    returns its payload [v...]; raises [Decode_error] if absent. *)
val field : string -> t -> t list

(** [field_opt name sexp] is like {!field} but returns [None] if absent. *)
val field_opt : string -> t -> t list option

(** [to_string s] is the compact wire form: one line, elements
    separated by single spaces, written in one pass into a buffer. Atoms
    are quoted and escaped as {!pp} does them, so the text holds no raw
    newline. *)
val to_string : t -> string

(** [pp] is the human-readable file layout ([Format] boxes that break
    across lines); {!save} writes it. The DB file format is this
    layout. *)
val pp : Format.formatter -> t -> unit

(** [of_string s] parses one s-expression in either layout; raises
    [Decode_error] on syntax errors or trailing garbage. Atoms without
    escapes are cut out of [s] directly. *)
val of_string : string -> t

(** [load path] and [save path sexp] read/write a file holding one sexp
    ([save] in the {!pp} layout, with a final newline). *)

val load : string -> t
val save : string -> t -> unit
