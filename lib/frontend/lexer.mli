(** Lexer for the mini-JS subset.

    Supports decimal and hexadecimal number literals (with fraction and
    exponent), single- and double-quoted strings with the usual escapes,
    [//] and [/* */] comments, and the full operator set of {!Token.t}.

    The scan is one pass over the source with a byte read that boxes
    nothing (NUL past the end, with an explicit bound test wherever a NUL
    byte in the source must be told apart from the end of input) and one
    [match] on up to three bytes per operator, longest first. It allocates
    nothing per byte read or per operator: only the token list, each
    token's position, the text of each word and number, and one buffer
    per string literal. *)

exception Lex_error of string * Token.position

(** [tokenize source] scans the whole input and returns the token stream
    terminated by [EOF]. Raises {!Lex_error} on an invalid character or an
    unterminated string/comment. *)
val tokenize : string -> Token.spanned list
