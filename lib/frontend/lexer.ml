exception Lex_error of string * Token.position

let lex_error pos fmt = Format.kasprintf (fun s -> raise (Lex_error (s, pos))) fmt

type state = {
  source : string;
  len : int;
  mutable pos : int;
  mutable line : int;
  mutable column : int;
}

let position st : Token.position = { line = st.line; column = st.column }

(* [at st k] is the byte at [k], or NUL past the end: a test against any
   other byte needs no bound check. Where a NUL in the source must be told
   apart from the end of input, the caller asks [has st k]. *)
let has st k = k < st.len
let at st k = if k < st.len then String.unsafe_get st.source k else '\000'

let advance st =
  if at st st.pos = '\n' then begin
    st.line <- st.line + 1;
    st.column <- 1
  end
  else st.column <- st.column + 1;
  st.pos <- st.pos + 1

let is_digit c = c >= '0' && c <= '9'
let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '$'
let is_ident_char c = is_ident_start c || is_digit c

(* Advances over the bytes satisfying [p] and returns how many there were. *)
let skip_while st p =
  let start = st.pos in
  while p (at st st.pos) do
    advance st
  done;
  st.pos - start

let rec skip_trivia st =
  match (at st st.pos, at st (st.pos + 1)) with
  | (' ' | '\t' | '\r' | '\n'), _ ->
    advance st;
    skip_trivia st
  | '/', '/' ->
    while has st st.pos && at st st.pos <> '\n' do
      advance st
    done;
    skip_trivia st
  | '/', '*' ->
    let start = position st in
    advance st;
    advance st;
    while not (at st st.pos = '*' && at st (st.pos + 1) = '/') do
      if not (has st st.pos) then lex_error start "unterminated block comment";
      advance st
    done;
    advance st;
    advance st;
    skip_trivia st
  | _ -> ()

(* [pos] is the token's start, where every error of a token is reported. *)
let scan_number st pos =
  let start = st.pos in
  (if at st start = '0' && (at st (start + 1) = 'x' || at st (start + 1) = 'X') then begin
     advance st;
     advance st;
     if skip_while st is_hex = 0 then lex_error pos "invalid hexadecimal literal"
   end
   else begin
     ignore (skip_while st is_digit);
     if at st st.pos = '.' && is_digit (at st (st.pos + 1)) then begin
       advance st;
       ignore (skip_while st is_digit)
     end;
     match at st st.pos with
     | 'e' | 'E' ->
       advance st;
       (match at st st.pos with
       | '+' | '-' -> advance st
       | _ -> ());
       if skip_while st is_digit = 0 then lex_error pos "invalid exponent"
     | _ -> ()
   end);
  let text = String.sub st.source start (st.pos - start) in
  match float_of_string text with
  | f -> Token.NUMBER f
  | exception Failure _ -> lex_error pos "invalid number literal %S" text

let rec string_body st pos quote buf =
  if not (has st st.pos) then lex_error pos "unterminated string";
  match at st st.pos with
  | c when c = quote ->
    advance st;
    Token.STRING (Buffer.contents buf)
  | '\\' ->
    advance st;
    if not (has st st.pos) then lex_error pos "dangling escape";
    Buffer.add_char buf
      (match at st st.pos with
      | 'n' -> '\n'
      | 't' -> '\t'
      | 'r' -> '\r'
      | '0' -> '\000'
      | c -> c);
    advance st;
    string_body st pos quote buf
  | '\n' -> lex_error pos "newline in string literal"
  | c ->
    Buffer.add_char buf c;
    advance st;
    string_body st pos quote buf

let scan_string st pos quote =
  advance st;
  string_body st pos quote (Buffer.create 16)

let scan_ident st =
  let start = st.pos in
  ignore (skip_while st is_ident_char);
  let text = String.sub st.source start (st.pos - start) in
  match Token.keyword_of_string text with
  | Some kw -> kw
  | None -> Token.IDENT text

(* No operator spans a newline, so taking one moves the column only. *)
let take st n tok =
  st.pos <- st.pos + n;
  st.column <- st.column + n;
  tok

(* Operators are matched longest-first. *)
let scan_operator st pos =
  let p = st.pos in
  match (at st p, at st (p + 1), at st (p + 2)) with
  | '>', '>', '>' -> take st 3 Token.USHR
  | '=', '=', '=' -> take st 3 Token.EQEQEQ
  | '!', '=', '=' -> take st 3 Token.BANGEQEQ
  | '<', '<', '=' -> take st 3 Token.SHL_ASSIGN
  | '>', '>', '=' -> take st 3 Token.SHR_ASSIGN
  | '=', '=', _ -> take st 2 Token.EQEQ
  | '!', '=', _ -> take st 2 Token.BANGEQ
  | '<', '=', _ -> take st 2 Token.LE
  | '>', '=', _ -> take st 2 Token.GE
  | '<', '<', _ -> take st 2 Token.SHL
  | '>', '>', _ -> take st 2 Token.SHR
  | '&', '&', _ -> take st 2 Token.AMPAMP
  | '|', '|', _ -> take st 2 Token.PIPEPIPE
  | '+', '+', _ -> take st 2 Token.PLUSPLUS
  | '-', '-', _ -> take st 2 Token.MINUSMINUS
  | '+', '=', _ -> take st 2 Token.PLUS_ASSIGN
  | '-', '=', _ -> take st 2 Token.MINUS_ASSIGN
  | '*', '=', _ -> take st 2 Token.STAR_ASSIGN
  | '/', '=', _ -> take st 2 Token.SLASH_ASSIGN
  | '%', '=', _ -> take st 2 Token.PERCENT_ASSIGN
  | '&', '=', _ -> take st 2 Token.AMP_ASSIGN
  | '|', '=', _ -> take st 2 Token.PIPE_ASSIGN
  | '^', '=', _ -> take st 2 Token.CARET_ASSIGN
  | '+', _, _ -> take st 1 Token.PLUS
  | '-', _, _ -> take st 1 Token.MINUS
  | '*', _, _ -> take st 1 Token.STAR
  | '/', _, _ -> take st 1 Token.SLASH
  | '%', _, _ -> take st 1 Token.PERCENT
  | '<', _, _ -> take st 1 Token.LT
  | '>', _, _ -> take st 1 Token.GT
  | '=', _, _ -> take st 1 Token.ASSIGN
  | '&', _, _ -> take st 1 Token.AMP
  | '|', _, _ -> take st 1 Token.PIPE
  | '^', _, _ -> take st 1 Token.CARET
  | '~', _, _ -> take st 1 Token.TILDE
  | '!', _, _ -> take st 1 Token.BANG
  | '(', _, _ -> take st 1 Token.LPAREN
  | ')', _, _ -> take st 1 Token.RPAREN
  | '{', _, _ -> take st 1 Token.LBRACE
  | '}', _, _ -> take st 1 Token.RBRACE
  | '[', _, _ -> take st 1 Token.LBRACKET
  | ']', _, _ -> take st 1 Token.RBRACKET
  | ';', _, _ -> take st 1 Token.SEMI
  | ',', _, _ -> take st 1 Token.COMMA
  | ':', _, _ -> take st 1 Token.COLON
  | '?', _, _ -> take st 1 Token.QUESTION
  | '.', _, _ -> take st 1 Token.DOT
  | c, _, _ ->
    if has st p then lex_error pos "unexpected character %C" c
    else lex_error pos "unexpected end of input"

let tokenize source =
  let st = { source; len = String.length source; pos = 0; line = 1; column = 1 } in
  let[@tail_mod_cons] rec loop () =
    skip_trivia st;
    let pos = position st in
    if not (has st st.pos) then [ { Token.token = Token.EOF; pos } ]
    else
      let c = at st st.pos in
      let token =
        if is_digit c || (c = '.' && is_digit (at st (st.pos + 1))) then scan_number st pos
        else if c = '"' || c = '\'' then scan_string st pos c
        else if is_ident_start c then scan_ident st
        else scan_operator st pos
      in
      { Token.token; pos } :: loop ()
  in
  loop ()
