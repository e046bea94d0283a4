(** AST → JavaScript source.

    Two modes: [~compact:false] (default) emits indented, readable source;
    [~compact:true] emits minified source (no layout, minimal separators),
    which is what the Terser-style "minifying" variant generator prints.
    Output re-parses to an equal AST (round-trip property, tested). *)

(** Readable source; only whole programs have a compact form. *)
val expr_to_string : Ast.expr -> string
val program_to_string : ?compact:bool -> Ast.program -> string
