(* Precedence levels mirror Parser: larger binds tighter. Parentheses are
   emitted whenever a child's precedence is below its context's. *)

let prec_of_binop : Ast.binop -> int = function
  | Ast.Bit_or -> 5
  | Ast.Bit_xor -> 6
  | Ast.Bit_and -> 7
  | Ast.Eq | Ast.Neq | Ast.Strict_eq | Ast.Strict_neq -> 8
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> 9
  | Ast.Shl | Ast.Shr | Ast.Ushr -> 10
  | Ast.Add | Ast.Sub -> 11
  | Ast.Mul | Ast.Div | Ast.Mod -> 12

let binop_symbol : Ast.binop -> string = function
  | Ast.Add -> "+"
  | Ast.Sub -> "-"
  | Ast.Mul -> "*"
  | Ast.Div -> "/"
  | Ast.Mod -> "%"
  | Ast.Lt -> "<"
  | Ast.Le -> "<="
  | Ast.Gt -> ">"
  | Ast.Ge -> ">="
  | Ast.Eq -> "=="
  | Ast.Neq -> "!="
  | Ast.Strict_eq -> "==="
  | Ast.Strict_neq -> "!=="
  | Ast.Bit_and -> "&"
  | Ast.Bit_or -> "|"
  | Ast.Bit_xor -> "^"
  | Ast.Shl -> "<<"
  | Ast.Shr -> ">>"
  | Ast.Ushr -> ">>>"

let unop_symbol : Ast.unop -> string = function
  | Ast.Neg -> "-"
  | Ast.Not -> "!"
  | Ast.Bit_not -> "~"
  | Ast.Typeof -> "typeof "
  | Ast.To_number -> "+"

let number_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else
    (* %.17g guarantees float round-trip; shorten when %g suffices *)
    let short = Printf.sprintf "%g" f in
    if float_of_string short = f then short else Printf.sprintf "%.17g" f

let string_literal s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\000' -> Buffer.add_string buf "\\0"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

type ctx = {
  compact : bool;
  buf : Buffer.t;
}

let sp ctx = if ctx.compact then "" else " "

let add ctx s = Buffer.add_string ctx.buf s

let indent ctx depth = if not ctx.compact then add ctx (String.make (2 * depth) ' ')

let newline ctx = if not ctx.compact then add ctx "\n"

(* [prec] is the minimal precedence the context accepts without parens.
   Levels: 1 assignment, 2 conditional, 3 logical-or, 4 logical-and,
   5..12 binary, 13 unary, 14 postfix/primary. *)
let rec emit_expr ctx prec (e : Ast.expr) =
  let wrap needed body =
    if needed < prec then begin
      add ctx "(";
      body ();
      add ctx ")"
    end
    else body ()
  in
  match e with
  | Ast.Number f ->
    if f < 0.0 then wrap 13 (fun () -> add ctx (number_to_string f))
    else add ctx (number_to_string f)
  | Ast.String s -> add ctx (string_literal s)
  | Ast.Bool b -> add ctx (if b then "true" else "false")
  | Ast.Null -> add ctx "null"
  | Ast.Undefined -> add ctx "undefined"
  | Ast.Ident x -> add ctx x
  | Ast.Array_lit es ->
    add ctx "[";
    List.iteri
      (fun i e ->
        if i > 0 then add ctx ("," ^ sp ctx);
        emit_expr ctx 1 e)
      es;
    add ctx "]"
  | Ast.Object_lit fields ->
    add ctx "{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then add ctx ("," ^ sp ctx);
        add ctx k;
        add ctx (":" ^ sp ctx);
        emit_expr ctx 1 v)
      fields;
    add ctx "}"
  | Ast.Unary (op, inner) ->
    wrap 13 (fun () ->
        add ctx (unop_symbol op);
        (* avoid gluing "- -x" into "--x" *)
        (match (op, inner) with
        | Ast.Neg, Ast.Unary (Ast.Neg, _) | Ast.Neg, Ast.Number _ -> add ctx " "
        | _ -> ());
        emit_expr ctx 13 inner)
  | Ast.Binary (op, a, b) ->
    let p = prec_of_binop op in
    wrap p (fun () ->
        emit_expr ctx p a;
        add ctx (sp ctx ^ binop_symbol op ^ sp ctx);
        emit_expr ctx (p + 1) b)
  | Ast.Logical (Ast.And, a, b) ->
    wrap 4 (fun () ->
        emit_expr ctx 5 a;
        add ctx (sp ctx ^ "&&" ^ sp ctx);
        emit_expr ctx 4 b)
  | Ast.Logical (Ast.Or, a, b) ->
    wrap 3 (fun () ->
        emit_expr ctx 4 a;
        add ctx (sp ctx ^ "||" ^ sp ctx);
        emit_expr ctx 3 b)
  | Ast.Conditional (c, t, e) ->
    wrap 2 (fun () ->
        emit_expr ctx 3 c;
        add ctx (sp ctx ^ "?" ^ sp ctx);
        emit_expr ctx 1 t;
        add ctx (sp ctx ^ ":" ^ sp ctx);
        emit_expr ctx 1 e)
  | Ast.Assign (lv, rhs) ->
    wrap 1 (fun () ->
        emit_lvalue ctx lv;
        add ctx (sp ctx ^ "=" ^ sp ctx);
        emit_expr ctx 1 rhs)
  | Ast.Call (callee, args) ->
    emit_expr ctx 14 callee;
    add ctx "(";
    List.iteri
      (fun i a ->
        if i > 0 then add ctx ("," ^ sp ctx);
        emit_expr ctx 1 a)
      args;
    add ctx ")"
  | Ast.Member (o, p) ->
    emit_expr ctx 14 o;
    add ctx ".";
    add ctx p
  | Ast.Index (o, i) ->
    emit_expr ctx 14 o;
    add ctx "[";
    emit_expr ctx 1 i;
    add ctx "]"
  | Ast.Func_expr (params, body) ->
    (* only reachable when printing an un-lifted AST (tests); wrapped in
       parens so statement position never reads as a declaration *)
    add ctx "(function(";
    List.iteri
      (fun i p ->
        if i > 0 then add ctx ("," ^ sp ctx);
        add ctx p)
      params;
    add ctx (")" ^ sp ctx ^ "{");
    newline ctx;
    List.iter (emit_stmt ctx 1) body;
    add ctx "})"

and emit_lvalue ctx = function
  | Ast.Lvar x -> add ctx x
  | Ast.Lindex (o, i) ->
    emit_expr ctx 14 o;
    add ctx "[";
    emit_expr ctx 1 i;
    add ctx "]"
  | Ast.Lmember (o, p) ->
    emit_expr ctx 14 o;
    add ctx ".";
    add ctx p

and emit_stmt ctx depth (s : Ast.stmt) =
  match s with
  | Ast.Var (x, init) ->
    indent ctx depth;
    add ctx ("var " ^ x);
    (match init with
    | Some e ->
      add ctx (sp ctx ^ "=" ^ sp ctx);
      emit_expr ctx 1 e
    | None -> ());
    add ctx ";";
    newline ctx
  | Ast.Expr_stmt e ->
    indent ctx depth;
    emit_expr ctx 1 e;
    add ctx ";";
    newline ctx
  | Ast.If (c, t, e) ->
    indent ctx depth;
    add ctx ("if" ^ sp ctx ^ "(");
    emit_expr ctx 1 c;
    add ctx (")" ^ sp ctx ^ "{");
    newline ctx;
    List.iter (emit_stmt ctx (depth + 1)) t;
    indent ctx depth;
    add ctx "}";
    if e <> [] then begin
      add ctx (sp ctx ^ "else" ^ sp ctx ^ "{");
      newline ctx;
      List.iter (emit_stmt ctx (depth + 1)) e;
      indent ctx depth;
      add ctx "}"
    end;
    newline ctx
  | Ast.While (c, body) ->
    indent ctx depth;
    add ctx ("while" ^ sp ctx ^ "(");
    emit_expr ctx 1 c;
    add ctx (")" ^ sp ctx ^ "{");
    newline ctx;
    List.iter (emit_stmt ctx (depth + 1)) body;
    indent ctx depth;
    add ctx "}";
    newline ctx
  | Ast.For (init, cond, update, body) ->
    indent ctx depth;
    add ctx ("for" ^ sp ctx ^ "(");
    (match init with
    | Some (Ast.Var (x, e)) ->
      add ctx ("var " ^ x);
      (match e with
      | Some e ->
        add ctx (sp ctx ^ "=" ^ sp ctx);
        emit_expr ctx 1 e
      | None -> ())
    | Some (Ast.Expr_stmt e) -> emit_expr ctx 1 e
    | Some (Ast.Block decls) ->
      (* multiple declarators: var a = 1, b = 2 *)
      List.iteri
        (fun i d ->
          match d with
          | Ast.Var (x, e) ->
            if i = 0 then add ctx "var " else add ctx ("," ^ sp ctx);
            add ctx x;
            (match e with
            | Some e ->
              add ctx (sp ctx ^ "=" ^ sp ctx);
              emit_expr ctx 1 e
            | None -> ())
          | _ -> ())
        decls
    | Some _ | None -> ());
    add ctx ";";
    (match cond with
    | Some c ->
      if not ctx.compact then add ctx " ";
      emit_expr ctx 1 c
    | None -> ());
    add ctx ";";
    (match update with
    | Some u ->
      if not ctx.compact then add ctx " ";
      emit_expr ctx 1 u
    | None -> ());
    add ctx (")" ^ sp ctx ^ "{");
    newline ctx;
    List.iter (emit_stmt ctx (depth + 1)) body;
    indent ctx depth;
    add ctx "}";
    newline ctx
  | Ast.Return None ->
    indent ctx depth;
    add ctx "return;";
    newline ctx
  | Ast.Return (Some e) ->
    indent ctx depth;
    add ctx "return ";
    emit_expr ctx 1 e;
    add ctx ";";
    newline ctx
  | Ast.Break ->
    indent ctx depth;
    add ctx "break;";
    newline ctx
  | Ast.Continue ->
    indent ctx depth;
    add ctx "continue;";
    newline ctx
  | Ast.Block body ->
    indent ctx depth;
    add ctx "{";
    newline ctx;
    List.iter (emit_stmt ctx (depth + 1)) body;
    indent ctx depth;
    add ctx "}";
    newline ctx

let emit_func ctx (f : Ast.func) =
  add ctx ("function " ^ f.Ast.name ^ "(");
  List.iteri
    (fun i p ->
      if i > 0 then add ctx ("," ^ sp ctx);
      add ctx p)
    f.Ast.params;
  add ctx (")" ^ sp ctx ^ "{");
  newline ctx;
  List.iter (emit_stmt ctx 1) f.Ast.body;
  add ctx "}";
  newline ctx

let with_ctx compact f =
  let ctx = { compact; buf = Buffer.create 256 } in
  f ctx;
  Buffer.contents ctx.buf

let expr_to_string e = with_ctx false (fun ctx -> emit_expr ctx 1 e)

let program_to_string ?(compact = false) (p : Ast.program) =
  with_ctx compact (fun ctx ->
      List.iter
        (fun f ->
          emit_func ctx f;
          newline ctx)
        p.Ast.functions;
      List.iter (emit_stmt ctx 0) p.Ast.main)
