(* Tests for the lexer, parser and printer. *)

open Helpers
module Lexer = Jitbull_frontend.Lexer
module Token = Jitbull_frontend.Token
module Parser = Jitbull_frontend.Parser
module Printer = Jitbull_frontend.Printer
module Ast = Jitbull_frontend.Ast

let tokens src = List.map (fun (s : Token.spanned) -> s.Token.token) (Lexer.tokenize src)

(* The lexer before the one-pass rewrite, kept as the oracle the current
   one must match token for token, position for position and error for
   error: [peek]/[peek2] box a [char option] per byte read, and
   [scan_operator] tries a list of 47 closures in order. *)
module Reference = struct
  exception Lex_error of string * Token.position

  let lex_error pos fmt = Format.kasprintf (fun s -> raise (Lex_error (s, pos))) fmt

  type state = {
    source : string;
    mutable pos : int;
    mutable line : int;
    mutable column : int;
  }

  let position st : Token.position = { line = st.line; column = st.column }

  let peek st = if st.pos < String.length st.source then Some st.source.[st.pos] else None

  let peek2 st =
    if st.pos + 1 < String.length st.source then Some st.source.[st.pos + 1] else None

  let advance st =
    (match peek st with
    | Some '\n' ->
      st.line <- st.line + 1;
      st.column <- 1
    | Some _ -> st.column <- st.column + 1
    | None -> ());
    st.pos <- st.pos + 1

  let is_digit c = c >= '0' && c <= '9'
  let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
  let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '$'
  let is_ident_char c = is_ident_start c || is_digit c

  let rec skip_trivia st =
    match peek st with
    | Some (' ' | '\t' | '\r' | '\n') ->
      advance st;
      skip_trivia st
    | Some '/' when peek2 st = Some '/' ->
      let rec to_eol () =
        match peek st with
        | Some '\n' | None -> ()
        | Some _ ->
          advance st;
          to_eol ()
      in
      to_eol ();
      skip_trivia st
    | Some '/' when peek2 st = Some '*' ->
      let start = position st in
      advance st;
      advance st;
      let rec to_close () =
        match (peek st, peek2 st) with
        | Some '*', Some '/' ->
          advance st;
          advance st
        | None, _ -> lex_error start "unterminated block comment"
        | Some _, _ ->
          advance st;
          to_close ()
      in
      to_close ();
      skip_trivia st
    | Some _ | None -> ()

  let scan_number st =
    let start = st.pos in
    let pos = position st in
    (if peek st = Some '0' && (peek2 st = Some 'x' || peek2 st = Some 'X') then begin
       advance st;
       advance st;
       let digits = ref 0 in
       while match peek st with Some c when is_hex c -> true | _ -> false do
         incr digits;
         advance st
       done;
       if !digits = 0 then lex_error pos "invalid hexadecimal literal"
     end
     else begin
       while match peek st with Some c when is_digit c -> true | _ -> false do
         advance st
       done;
       (match (peek st, peek2 st) with
       | Some '.', Some c when is_digit c ->
         advance st;
         while match peek st with Some c when is_digit c -> true | _ -> false do
           advance st
         done
       | _ -> ());
       match peek st with
       | Some ('e' | 'E') ->
         advance st;
         (match peek st with
         | Some ('+' | '-') -> advance st
         | _ -> ());
         let digits = ref 0 in
         while match peek st with Some c when is_digit c -> true | _ -> false do
           incr digits;
           advance st
         done;
         if !digits = 0 then lex_error pos "invalid exponent"
       | _ -> ()
     end);
    let text = String.sub st.source start (st.pos - start) in
    match float_of_string_opt text with
    | Some f -> Token.NUMBER f
    | None -> lex_error pos "invalid number literal %S" text

  let scan_string st quote =
    let pos = position st in
    advance st;
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek st with
      | None -> lex_error pos "unterminated string"
      | Some c when c = quote ->
        advance st;
        Token.STRING (Buffer.contents buf)
      | Some '\\' ->
        advance st;
        (match peek st with
        | Some 'n' -> Buffer.add_char buf '\n'
        | Some 't' -> Buffer.add_char buf '\t'
        | Some 'r' -> Buffer.add_char buf '\r'
        | Some '0' -> Buffer.add_char buf '\000'
        | Some c -> Buffer.add_char buf c
        | None -> lex_error pos "dangling escape");
        advance st;
        loop ()
      | Some '\n' -> lex_error pos "newline in string literal"
      | Some c ->
        Buffer.add_char buf c;
        advance st;
        loop ()
    in
    loop ()

  let scan_ident st =
    let start = st.pos in
    while match peek st with Some c when is_ident_char c -> true | _ -> false do
      advance st
    done;
    let text = String.sub st.source start (st.pos - start) in
    match Token.keyword_of_string text with
    | Some kw -> kw
    | None -> Token.IDENT text

  (* Operators are matched longest-first. *)
  let scan_operator st =
    let pos = position st in
    let try3 a b c tok =
      if peek st = Some a && peek2 st = Some b
         && st.pos + 2 < String.length st.source
         && st.source.[st.pos + 2] = c
      then begin
        advance st;
        advance st;
        advance st;
        Some tok
      end
      else None
    in
    let try2 a b tok =
      if peek st = Some a && peek2 st = Some b then begin
        advance st;
        advance st;
        Some tok
      end
      else None
    in
    let try1 a tok =
      if peek st = Some a then begin
        advance st;
        Some tok
      end
      else None
    in
    let candidates =
      [
        (fun () -> try3 '>' '>' '>' Token.USHR);
        (fun () -> try3 '=' '=' '=' Token.EQEQEQ);
        (fun () -> try3 '!' '=' '=' Token.BANGEQEQ);
        (fun () -> try3 '<' '<' '=' Token.SHL_ASSIGN);
        (fun () -> try3 '>' '>' '=' Token.SHR_ASSIGN);
        (fun () -> try2 '=' '=' Token.EQEQ);
        (fun () -> try2 '!' '=' Token.BANGEQ);
        (fun () -> try2 '<' '=' Token.LE);
        (fun () -> try2 '>' '=' Token.GE);
        (fun () -> try2 '<' '<' Token.SHL);
        (fun () -> try2 '>' '>' Token.SHR);
        (fun () -> try2 '&' '&' Token.AMPAMP);
        (fun () -> try2 '|' '|' Token.PIPEPIPE);
        (fun () -> try2 '+' '+' Token.PLUSPLUS);
        (fun () -> try2 '-' '-' Token.MINUSMINUS);
        (fun () -> try2 '+' '=' Token.PLUS_ASSIGN);
        (fun () -> try2 '-' '=' Token.MINUS_ASSIGN);
        (fun () -> try2 '*' '=' Token.STAR_ASSIGN);
        (fun () -> try2 '/' '=' Token.SLASH_ASSIGN);
        (fun () -> try2 '%' '=' Token.PERCENT_ASSIGN);
        (fun () -> try2 '&' '=' Token.AMP_ASSIGN);
        (fun () -> try2 '|' '=' Token.PIPE_ASSIGN);
        (fun () -> try2 '^' '=' Token.CARET_ASSIGN);
        (fun () -> try1 '+' Token.PLUS);
        (fun () -> try1 '-' Token.MINUS);
        (fun () -> try1 '*' Token.STAR);
        (fun () -> try1 '/' Token.SLASH);
        (fun () -> try1 '%' Token.PERCENT);
        (fun () -> try1 '<' Token.LT);
        (fun () -> try1 '>' Token.GT);
        (fun () -> try1 '=' Token.ASSIGN);
        (fun () -> try1 '&' Token.AMP);
        (fun () -> try1 '|' Token.PIPE);
        (fun () -> try1 '^' Token.CARET);
        (fun () -> try1 '~' Token.TILDE);
        (fun () -> try1 '!' Token.BANG);
        (fun () -> try1 '(' Token.LPAREN);
        (fun () -> try1 ')' Token.RPAREN);
        (fun () -> try1 '{' Token.LBRACE);
        (fun () -> try1 '}' Token.RBRACE);
        (fun () -> try1 '[' Token.LBRACKET);
        (fun () -> try1 ']' Token.RBRACKET);
        (fun () -> try1 ';' Token.SEMI);
        (fun () -> try1 ',' Token.COMMA);
        (fun () -> try1 ':' Token.COLON);
        (fun () -> try1 '?' Token.QUESTION);
        (fun () -> try1 '.' Token.DOT);
      ]
    in
    match List.find_map (fun f -> f ()) candidates with
    | Some tok -> tok
    | None ->
      (match peek st with
      | Some c -> lex_error pos "unexpected character %C" c
      | None -> lex_error pos "unexpected end of input")

  let tokenize source =
    let st = { source; pos = 0; line = 1; column = 1 } in
    let rec loop acc =
      skip_trivia st;
      let pos = position st in
      match peek st with
      | None -> List.rev ({ Token.token = Token.EOF; pos } :: acc)
      | Some c ->
        let token =
          if is_digit c then scan_number st
          else if c = '.' && (match peek2 st with Some d when is_digit d -> true | _ -> false)
          then scan_number st
          else if c = '"' || c = '\'' then scan_string st c
          else if is_ident_start c then scan_ident st
          else scan_operator st
        in
        loop ({ Token.token; pos } :: acc)
    in
    loop []
end

module Generator = Jitbull_fuzz.Generator
module Workloads = Jitbull_workloads.Workloads
module V = Jitbull_vdc.Demonstrators
module Variants = Jitbull_vdc.Variants

(* A lexer's whole answer on [src]: the token stream, or the error. *)
let lex_result src =
  match Lexer.tokenize src with
  | tokens -> Ok tokens
  | exception Lexer.Lex_error (msg, pos) -> Error (msg, pos)

let reference_result src =
  match Reference.tokenize src with
  | tokens -> Ok tokens
  | exception Reference.Lex_error (msg, pos) -> Error (msg, pos)

let show_result = function
  | Ok tokens ->
    String.concat " "
      (List.map
         (fun (s : Token.spanned) ->
           Printf.sprintf "%s@%d:%d" (Token.show s.Token.token) s.Token.pos.Token.line
             s.Token.pos.Token.column)
         tokens)
  | Error (msg, (pos : Token.position)) ->
    Printf.sprintf "error %S at %d:%d" msg pos.Token.line pos.Token.column

let agrees src = lex_result src = reference_result src

let check_agrees name src =
  if not (agrees src) then
    Alcotest.failf "%s: lexer and reference disagree\n  lexer:     %s\n  reference: %s" name
      (show_result (lex_result src))
      (show_result (reference_result src))

(* [src] lexes to [expected] (rendered by [show_result]), as the
   reference does. *)
let check_lexes src expected =
  check_agrees (Printf.sprintf "%S" src) src;
  check_string (Printf.sprintf "%S" src) expected (show_result (lex_result src))

let test_lex_edges () =
  check_lexes ">>>=" "Token.USHR@1:1 Token.ASSIGN@1:4 Token.EOF@1:5";
  check_lexes "a>>=b" {|(Token.IDENT "a")@1:1 Token.SHR_ASSIGN@1:2 (Token.IDENT "b")@1:5 Token.EOF@1:6|};
  check_lexes "a!==b" {|(Token.IDENT "a")@1:1 Token.BANGEQEQ@1:2 (Token.IDENT "b")@1:5 Token.EOF@1:6|};
  check_lexes "<<=" "Token.SHL_ASSIGN@1:1 Token.EOF@1:4";
  check_lexes ".5" "(Token.NUMBER 0.5)@1:1 Token.EOF@1:3";
  check_lexes "5." "(Token.NUMBER 5.)@1:1 Token.DOT@1:2 Token.EOF@1:3";
  check_lexes "1.e5" {|(Token.NUMBER 1.)@1:1 Token.DOT@1:2 (Token.IDENT "e5")@1:3 Token.EOF@1:5|};
  check_lexes "0x" {|error "invalid hexadecimal literal" at 1:1|};
  check_lexes "1e-5 2E+3" "(Token.NUMBER 1e-05)@1:1 (Token.NUMBER 2000.)@1:6 Token.EOF@1:10";
  check_lexes "x = 1e+" {|error "invalid exponent" at 1:5|};
  check_lexes "\"a\\" {|error "dangling escape" at 1:1|};
  check_lexes "1 /* x" {|error "unterminated block comment" at 1:3|};
  check_lexes {|'\t\r\0\q'|} {|(Token.STRING "\t\r\000q")@1:1 Token.EOF@1:11|};
  check_lexes "'a\000b'" {|(Token.STRING "a\000b")@1:1 Token.EOF@1:6|};
  check_lexes "a\n \000" {|error "unexpected character '\\000'" at 2:2|};
  check_lexes "a // b" {|(Token.IDENT "a")@1:1 Token.EOF@1:7|};
  check_lexes "a\n//" {|(Token.IDENT "a")@1:1 Token.EOF@2:3|}

let corpus_dir () =
  (* [dune runtest] runs in [_build/default/test]; [dune exec] in the root *)
  match List.find_opt Sys.file_exists [ "../corpus/distilled"; "corpus/distilled" ] with
  | Some dir -> dir
  | None -> Alcotest.fail "corpus/distilled not found"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_lexer_oracle_programs () =
  for seed = 0 to 199 do
    check_agrees (Printf.sprintf "benign %d" seed) (Generator.benign ~seed);
    check_agrees (Printf.sprintf "aggressive %d" seed) (Generator.aggressive ~seed)
  done;
  List.iter (fun (w : Workloads.t) -> check_agrees w.Workloads.name w.Workloads.source)
    Workloads.everything;
  List.iter
    (fun (d : V.t) ->
      check_agrees d.V.name d.V.source;
      List.iter
        (fun kind ->
          check_agrees (d.V.name ^ " " ^ Variants.kind_name kind) (Variants.apply kind d.V.source))
        Variants.all_kinds)
    V.all;
  let dir = corpus_dir () in
  let sources =
    List.filter (fun f -> Filename.check_suffix f ".js") (Array.to_list (Sys.readdir dir))
  in
  check_bool "distilled corpus has sources" true (sources <> []);
  List.iter (fun f -> check_agrees f (read_file (Filename.concat dir f))) sources

(* Strings over the bytes each lexer rule turns on: operator bytes,
   number bytes, quotes, escapes and the letters they take, comment
   openers, line ends, NUL, identifier bytes and one non-ASCII byte,
   mixed with fragments that reach a rule's later branches (an exponent
   sign, a hex prefix, escapes, the longest operators) more often than
   single bytes do. *)
let lexer_alphabet_gen =
  let open QCheck.Gen in
  let piece =
    frequency
      [
        (4, oneofl (List.of_seq (String.to_seq "+-*/%<>=&|^~!(){}[];,:?")));
        (3, oneofl [ '0'; '1'; '5'; '9'; '.'; 'e'; 'E'; 'x'; '+'; '-' ]);
        (2, oneofl [ '"'; '\''; '\\'; '/'; '*'; '\n'; '\r'; '\000'; ' ' ]);
        (2, oneofl [ 'a'; 'f'; 'n'; 'r'; 't'; 'z'; 'X'; '_'; '$'; '\xc3' ]);
      ]
    |> map (String.make 1)
  in
  let fragment =
    oneofl [ "1e-5"; "2E+"; "0x"; "0Xf"; {|"\r\t\0"|}; "/*"; "*/"; "//"; ">>>="; "!=="; "<<=" ]
  in
  map (String.concat "") (list_size (int_range 0 16) (frequency [ (6, piece); (1, fragment) ]))

let qcheck_lexer_oracle_alphabet =
  QCheck.Test.make ~count:(qcheck_count 2000) ~name:"lexer equals reference (lexer alphabet)"
    (QCheck.make ~print:(Printf.sprintf "%S") lexer_alphabet_gen)
    agrees

let qcheck_lexer_oracle_awkward =
  QCheck.Test.make ~count:(qcheck_count 500) ~name:"lexer equals reference (awkward strings)"
    (QCheck.make ~print:(Printf.sprintf "%S") awkward_string_gen)
    agrees

let test_lex_numbers () =
  check_bool "int" true (tokens "42" = [ Token.NUMBER 42.0; Token.EOF ]);
  check_bool "float" true (tokens "3.5" = [ Token.NUMBER 3.5; Token.EOF ]);
  check_bool "hex" true (tokens "0x10" = [ Token.NUMBER 16.0; Token.EOF ]);
  check_bool "exponent" true (tokens "1e3" = [ Token.NUMBER 1000.0; Token.EOF ]);
  check_bool "leading dot" true (tokens ".5" = [ Token.NUMBER 0.5; Token.EOF ])

let test_lex_strings () =
  check_bool "double quoted" true (tokens {|"ab"|} = [ Token.STRING "ab"; Token.EOF ]);
  check_bool "single quoted" true (tokens "'cd'" = [ Token.STRING "cd"; Token.EOF ]);
  check_bool "escapes" true (tokens {|"a\nb\"c"|} = [ Token.STRING "a\nb\"c"; Token.EOF ])

let test_lex_operators () =
  check_bool ">>> vs >>" true (tokens "a >>> b >> c" =
    [ Token.IDENT "a"; Token.USHR; Token.IDENT "b"; Token.SHR; Token.IDENT "c"; Token.EOF ]);
  check_bool "=== vs ==" true (tokens "a === b == c" =
    [ Token.IDENT "a"; Token.EQEQEQ; Token.IDENT "b"; Token.EQEQ; Token.IDENT "c"; Token.EOF ]);
  check_bool "++ vs + +" true (tokens "a++ + b" =
    [ Token.IDENT "a"; Token.PLUSPLUS; Token.PLUS; Token.IDENT "b"; Token.EOF ])

let test_lex_comments () =
  check_bool "line comment" true (tokens "1 // two\n3" = [ Token.NUMBER 1.0; Token.NUMBER 3.0; Token.EOF ]);
  check_bool "block comment" true (tokens "1 /* x\ny */ 2" = [ Token.NUMBER 1.0; Token.NUMBER 2.0; Token.EOF ])

let test_lex_keywords () =
  check_bool "let is var" true (tokens "let x" = [ Token.VAR; Token.IDENT "x"; Token.EOF ]);
  check_bool "const is var" true (tokens "const x" = [ Token.VAR; Token.IDENT "x"; Token.EOF ])

let test_lex_errors () =
  let fails s =
    match Lexer.tokenize s with
    | exception Lexer.Lex_error _ -> ()
    | _ -> Alcotest.fail ("should not lex: " ^ s)
  in
  fails "@";
  fails "\"unterminated";
  fails "/* unterminated"

let test_parse_precedence () =
  let e = Parser.parse_expression "1 + 2 * 3" in
  check_bool "mul binds tighter" true
    (e = Ast.Binary (Ast.Add, Ast.Number 1.0, Ast.Binary (Ast.Mul, Ast.Number 2.0, Ast.Number 3.0)));
  let e2 = Parser.parse_expression "1 < 2 && 3 < 4 || x" in
  (match e2 with
  | Ast.Logical (Ast.Or, Ast.Logical (Ast.And, _, _), Ast.Ident "x") -> ()
  | _ -> Alcotest.fail "|| / && precedence");
  let e3 = Parser.parse_expression "a = b = 1" in
  match e3 with
  | Ast.Assign (Ast.Lvar "a", Ast.Assign (Ast.Lvar "b", Ast.Number 1.0)) -> ()
  | _ -> Alcotest.fail "assignment right-assoc"

let test_parse_postfix_chain () =
  match Parser.parse_expression "a.b[1](2).c" with
  | Ast.Member (Ast.Call (Ast.Index (Ast.Member (Ast.Ident "a", "b"), Ast.Number 1.0), [ Ast.Number 2.0 ]), "c")
    -> ()
  | _ -> Alcotest.fail "postfix chain shape"

let test_parse_incr_desugar () =
  (* x++ keeps old-value semantics via (x = x + 1) - 1 *)
  check_string "postfix value" "3\n4\n" (interp_output "var x = 3; print(x++); print(x);");
  check_string "prefix value" "4\n4\n" (interp_output "var x = 3; print(++x); print(x);");
  check_string "compound" "10\n" (interp_output "var x = 7; x += 3; print(x);")

let test_parse_statements () =
  let p = Parser.parse "function f(a) { return a; } var x = 1; if (x) { x = 2; } else x = 3;" in
  check_int "one function" 1 (List.length p.Ast.functions);
  check_int "two main stmts" 2 (List.length p.Ast.main)

let test_parse_for_variants () =
  check_string "classic for" "10\n" (interp_output "var t = 0; for (var i = 0; i < 5; i++) t += i; print(t);");
  check_string "for no init" "3\n" (interp_output "var i = 0; for (; i < 3;) i += 1; print(i);");
  check_string "multi declarator" "7\n"
    (interp_output "for (var i = 0, j = 7; i < 1; i++) { print(j); }")

let test_parse_errors () =
  let fails s =
    match Parser.parse s with
    | exception Parser.Parse_error _ -> ()
    | _ -> Alcotest.fail ("should not parse: " ^ s)
  in
  fails "function f() { function g() {} }";
  fails "1 +";
  fails "if (x)";
  fails "var = 3;";
  fails "1 = 2;";
  fails "break;;;)"

let test_printer_basic () =
  let p = Parser.parse "function f(a,b){return a*b+1;} print(f(2,3));" in
  let printed = Printer.program_to_string p in
  check_bool "mentions function" true
    (String.length printed > 0 && String.sub printed 0 8 = "function");
  (* reparse gives the same AST *)
  check_bool "roundtrip equal" true (Ast.equal_program p (Parser.parse printed))

let test_printer_compact () =
  let p = Parser.parse "var x = 1 + 2; if (x > 2) { print(x); }" in
  let compact = Printer.program_to_string ~compact:true p in
  check_bool "no newlines" true (not (String.contains compact '\n'));
  check_bool "compact reparses" true (Ast.equal_program p (Parser.parse compact))

let test_printer_precedence_parens () =
  let cases =
    [ "(1 + 2) * 3"; "1 - (2 - 3)"; "-(1 + 2)"; "(a = 1) + 2"; "!(a && b)"; "1 < (2 < 3 ? 4 : 5)" ]
  in
  List.iter
    (fun src ->
      let e = Parser.parse_expression src in
      let printed = Printer.expr_to_string e in
      check_bool (src ^ " roundtrip") true (Ast.equal_expr e (Parser.parse_expression printed)))
    cases

(* Random AST generator for the printer/parser roundtrip property. *)
let gen_program : Ast.program QCheck.Gen.t =
  let open QCheck.Gen in
  let ident = oneofl [ "a"; "b"; "c"; "x"; "y" ] in
  let rec expr n =
    if n <= 0 then
      oneof
        [
          map (fun f -> Ast.Number (float_of_int f)) (int_range 0 100);
          map (fun s -> Ast.String s) (oneofl [ "s"; "hi"; "" ]);
          map (fun b -> Ast.Bool b) bool;
          return Ast.Null;
          return Ast.Undefined;
          map (fun v -> Ast.Ident v) ident;
        ]
    else
      frequency
        [
          (3, expr 0);
          ( 2,
            map3
              (fun op a b -> Ast.Binary (op, a, b))
              (oneofl [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Lt; Ast.Strict_eq; Ast.Bit_and; Ast.Shl ])
              (expr (n / 2)) (expr (n / 2)) );
          (1, map2 (fun a b -> Ast.Logical (Ast.And, a, b)) (expr (n / 2)) (expr (n / 2)));
          (1, map3 (fun c t e -> Ast.Conditional (c, t, e)) (expr (n / 3)) (expr (n / 3)) (expr (n / 3)));
          (1, map2 (fun v e -> Ast.Assign (Ast.Lvar v, e)) ident (expr (n - 1)));
          (1, map (fun es -> Ast.Array_lit es) (list_size (int_range 0 3) (expr (n / 2))));
          (1, map2 (fun o i -> Ast.Index (o, i)) (expr (n / 2)) (expr (n / 2)));
          (1, map (fun o -> Ast.Member (o, "p")) (expr (n / 2)));
          (1, map2 (fun f args -> Ast.Call (f, args)) (map (fun v -> Ast.Ident v) ident)
                (list_size (int_range 0 2) (expr (n / 2))));
        ]
  in
  let rec stmt n =
    if n <= 0 then
      oneof
        [
          map (fun e -> Ast.Expr_stmt e) (expr 2);
          map2 (fun v e -> Ast.Var (v, Some e)) ident (expr 2);
          return Ast.Break;
          return Ast.Continue;
          map (fun e -> Ast.Return (Some e)) (expr 2);
        ]
    else
      frequency
        [
          (3, stmt 0);
          ( 1,
            map3
              (fun c t e -> Ast.If (c, t, e))
              (expr 2)
              (list_size (int_range 0 2) (stmt (n / 2)))
              (list_size (int_range 0 2) (stmt (n / 2))) );
          (1, map2 (fun c b -> Ast.While (c, b)) (expr 2) (list_size (int_range 0 2) (stmt (n / 2))));
        ]
  in
  let func =
    map2
      (fun name body -> { Ast.name; params = [ "p"; "q" ]; body })
      (oneofl [ "f"; "g" ])
      (list_size (int_range 0 3) (stmt 2))
  in
  map2
    (fun functions main -> { Ast.functions; main })
    (list_size (int_range 0 2) func)
    (list_size (int_range 0 4) (stmt 2))

let qcheck_printer_roundtrip =
  QCheck.Test.make ~count:(qcheck_count 300) ~name:"printer/parser roundtrip (pretty)"
    (QCheck.make gen_program)
    (fun p -> Ast.equal_program p (Parser.parse (Printer.program_to_string p)))

let qcheck_printer_roundtrip_compact =
  QCheck.Test.make ~count:(qcheck_count 300) ~name:"printer/parser roundtrip (compact)"
    (QCheck.make gen_program)
    (fun p -> Ast.equal_program p (Parser.parse (Printer.program_to_string ~compact:true p)))

let test_declared_vars () =
  let p =
    Parser.parse
      "function f() { var a = 1; if (a) { var b = 2; } for (var c = 0; c < 1; c++) { var d; } var a; }"
  in
  let f = List.hd p.Ast.functions in
  check_bool "hoisting collects nested, deduped" true
    (Ast.declared_vars f.Ast.body = [ "a"; "b"; "c"; "d" ])

let suite =
  ( "frontend",
    [
      Alcotest.test_case "lex numbers" `Quick test_lex_numbers;
      Alcotest.test_case "lex strings" `Quick test_lex_strings;
      Alcotest.test_case "lex operators" `Quick test_lex_operators;
      Alcotest.test_case "lex comments" `Quick test_lex_comments;
      Alcotest.test_case "lex keywords" `Quick test_lex_keywords;
      Alcotest.test_case "lex errors" `Quick test_lex_errors;
      Alcotest.test_case "lex edges" `Quick test_lex_edges;
      Alcotest.test_case "lexer equals reference on programs" `Quick test_lexer_oracle_programs;
      qtest qcheck_lexer_oracle_alphabet;
      qtest qcheck_lexer_oracle_awkward;
      Alcotest.test_case "parse precedence" `Quick test_parse_precedence;
      Alcotest.test_case "parse postfix chain" `Quick test_parse_postfix_chain;
      Alcotest.test_case "incr/compound desugaring" `Quick test_parse_incr_desugar;
      Alcotest.test_case "parse statements" `Quick test_parse_statements;
      Alcotest.test_case "for variants" `Quick test_parse_for_variants;
      Alcotest.test_case "parse errors" `Quick test_parse_errors;
      Alcotest.test_case "printer basic" `Quick test_printer_basic;
      Alcotest.test_case "printer compact" `Quick test_printer_compact;
      Alcotest.test_case "printer parens" `Quick test_printer_precedence_parens;
      qtest qcheck_printer_roundtrip;
      qtest qcheck_printer_roundtrip_compact;
      Alcotest.test_case "declared_vars hoisting" `Quick test_declared_vars;
    ] )
