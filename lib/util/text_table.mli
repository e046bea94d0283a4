(** Fixed-width text tables for the benchmark harness.

    Renders the paper's tables and figure data as aligned ASCII so that
    [bench/main.exe] output can be eyeballed against the paper. *)

type align =
  | Left
  | Right

(** [render ~headers ?aligns rows] lays out [rows] under [headers] with
    column widths fitted to content. [aligns] defaults to [Left] for every
    column; a shorter list is padded with [Left]. Rows shorter than the
    header are padded with empty cells. *)
val render : headers:string list -> ?aligns:align list -> string list list -> string

(** [print ~headers rows] renders to stdout with a trailing
    newline. *)
val print : headers:string list -> string list list -> unit

(** [bar ~width ~max_value value] draws a proportional '#' bar, used for the
    figure-style outputs. [max_value <= 0] yields an empty bar. *)
val bar : width:int -> max_value:float -> float -> string
