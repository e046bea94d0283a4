(* Typed mutation IL: see il.mli for the design rationale. *)

type ty =
  | Num
  | Bool
  | Str
  | Arr

type binop = Add | Sub | Mul | Div | Mod | BAnd | BOr | BXor | Shl | Shr | Ushr
type cmpop = Lt | Le | Gt | Ge | Eq | Neq

let binop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Mod -> "mod"
  | BAnd -> "and"
  | BOr -> "or"
  | BXor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"
  | Ushr -> "ushr"

let cmpop_name = function
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"
  | Eq -> "eq"
  | Neq -> "neq"

let all_binops = [ Add; Sub; Mul; Div; Mod; BAnd; BOr; BXor; Shl; Shr; Ushr ]
let all_cmpops = [ Lt; Le; Gt; Ge; Eq; Neq ]

let binop_of_name s = List.find_opt (fun o -> binop_name o = s) all_binops
let cmpop_of_name s = List.find_opt (fun o -> cmpop_name o = s) all_cmpops

let binop_js = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | BAnd -> "&"
  | BOr -> "|"
  | BXor -> "^"
  | Shl -> "<<"
  | Shr -> ">>"
  | Ushr -> ">>>"

let cmpop_js = function
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Eq -> "=="
  | Neq -> "!="

type var = int

type instr =
  | Const of var * float
  | Str_const of var * string
  | Bool_const of var * bool
  | Binop of var * binop * var * var
  | Cmp of var * cmpop * var * var
  | Not of var * var
  | Copy of var * var
  | Update of var * binop * var
  | Array_of of var * var list
  | Get_len of var * var
  | Set_len of var * int
  | Get_elem of var * var * var
  | Set_elem of var * var * var
  | Gnew of int * var list
  | Gget_len of var * int
  | Gset_len of int * int
  | Gget_elem of var * int * var
  | Gset_elem of int * var * var
  | Call of var * int * var list
  | Print of var
  | Print_tag of string * var
  | If of var * instr list * instr list
  | Loop of var * int * instr list
  | Loop_n of var * var * instr list

type func = { arity : int; body : instr list; ret : var option }
type prog = { globals : int; funcs : func list; main : instr list }

let max_loop_bound = 64
let max_set_len = 15
let max_globals = 8
let max_nesting = 4
let max_func_instrs = 2048
let max_funcs = 8
let max_arity = 3
let max_elems = 16

(* ------------------------------------------------------------------ *)
(* Static semantics                                                   *)
(* ------------------------------------------------------------------ *)

exception Type_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Type_error s)) fmt

let rec count_instrs body =
  List.fold_left
    (fun acc i ->
      acc + 1
      +
      match i with
      | If (_, a, b) -> count_instrs a + count_instrs b
      | Loop (_, _, b) | Loop_n (_, _, b) -> count_instrs b
      | _ -> 0)
    0 body

let string_ok s =
  String.length s <= 80
  && String.for_all (fun c -> c >= ' ' && c <= '~' && c <> '"' && c <> '\\') s

(* Environment entry for an in-scope variable. [tainted] marks a value
   obtained from [.length] — the only variables allowed as Loop_n
   bounds. [counter] marks a live loop counter (never writable). *)
type entry = { e_ty : ty; tainted : bool; counter : bool }

let check_func_body ~where ~in_main ~globals ~callable ~funcs ~arity body ret =
  let defined = Hashtbl.create 32 in
  let def v =
    if v < 0 then err "%s: negative variable id v%d" where v;
    if Hashtbl.mem defined v then err "%s: v%d defined twice" where v;
    Hashtbl.add defined v ()
  in
  let ty_name = function Num -> "num" | Bool -> "bool" | Str -> "str" | Arr -> "arr" in
  let lookup env v =
    match List.assoc_opt v env with
    | Some e -> e
    | None -> err "%s: v%d used out of scope" where v
  in
  let want env v t =
    let e = lookup env v in
    if e.e_ty <> t then
      err "%s: v%d has type %s, expected %s" where v (ty_name e.e_ty) (ty_name t)
  in
  let slot_ok k = if k < 0 || k >= globals then err "%s: global slot g%d out of range" where k in
  let bind env v t = (v, { e_ty = t; tainted = false; counter = false }) :: env in
  let rec walk depth env instrs = List.fold_left (step depth) env instrs
  and step depth env = function
    | Const (d, x) ->
      if not (Float.is_finite x) then err "%s: non-finite constant for v%d" where d;
      def d;
      bind env d Num
    | Str_const (d, s) ->
      if not (string_ok s) then err "%s: string for v%d has unsafe characters" where d;
      def d;
      bind env d Str
    | Bool_const (d, _) ->
      def d;
      bind env d Bool
    | Binop (d, _, a, b) ->
      want env a Num;
      want env b Num;
      def d;
      bind env d Num
    | Cmp (d, _, a, b) ->
      want env a Num;
      want env b Num;
      def d;
      bind env d Bool
    | Not (d, a) ->
      want env a Bool;
      def d;
      bind env d Bool
    | Copy (d, s) ->
      let e = lookup env d in
      if e.e_ty <> Num then err "%s: copy target v%d is not num" where d;
      if e.counter then err "%s: copy writes loop counter v%d" where d;
      if e.tainted then err "%s: copy writes length-tainted v%d" where d;
      want env s Num;
      env
    | Update (d, _, s) ->
      let e = lookup env d in
      if e.e_ty <> Num then err "%s: update target v%d is not num" where d;
      if e.counter then err "%s: update writes loop counter v%d" where d;
      if e.tainted then err "%s: update writes length-tainted v%d" where d;
      want env s Num;
      env
    | Array_of (d, elems) ->
      if List.length elems > max_elems then err "%s: array literal for v%d too long" where d;
      List.iter (fun v -> want env v Num) elems;
      def d;
      bind env d Arr
    | Get_len (d, a) ->
      want env a Arr;
      def d;
      (d, { e_ty = Num; tainted = true; counter = false }) :: env
    | Set_len (a, k) ->
      want env a Arr;
      if k < 0 || k > max_set_len then err "%s: set_len %d out of range" where k;
      env
    | Get_elem (d, a, i) ->
      want env a Arr;
      want env i Num;
      def d;
      bind env d Num
    | Set_elem (a, i, x) ->
      want env a Arr;
      want env i Num;
      want env x Num;
      env
    | Gnew (k, elems) ->
      slot_ok k;
      if List.length elems > max_elems then err "%s: global literal g%d too long" where k;
      List.iter (fun v -> want env v Num) elems;
      env
    | Gget_len (d, k) ->
      if not in_main then err "%s: global reads are main-only (bailout replay)" where;
      slot_ok k;
      def d;
      (d, { e_ty = Num; tainted = true; counter = false }) :: env
    | Gset_len (k, n) ->
      slot_ok k;
      if n < 0 || n > max_set_len then err "%s: gset_len %d out of range" where n;
      env
    | Gget_elem (d, k, i) ->
      if not in_main then err "%s: global reads are main-only (bailout replay)" where;
      slot_ok k;
      want env i Num;
      def d;
      bind env d Num
    | Gset_elem (k, i, x) ->
      slot_ok k;
      want env i Num;
      want env x Num;
      env
    | Call (d, k, args) ->
      if k < 0 || k >= callable then
        err "%s: call to f%d not allowed (only lower-indexed functions)" where k;
      let callee = List.nth funcs k in
      if List.length args <> callee.arity then
        err "%s: f%d expects %d args, got %d" where k callee.arity (List.length args);
      List.iter (fun v -> want env v Num) args;
      def d;
      bind env d Num
    | Print v ->
      if not in_main then err "%s: print is main-only (bailout replay)" where;
      ignore (lookup env v);
      env
    | Print_tag (tag, v) ->
      if not in_main then err "%s: print is main-only (bailout replay)" where;
      if not (string_ok tag) then err "%s: print tag has unsafe characters" where tag;
      ignore (lookup env v);
      env
    | If (c, a, b) ->
      want env c Bool;
      if depth + 1 > max_nesting then err "%s: nesting exceeds %d" where max_nesting;
      ignore (walk (depth + 1) env a);
      ignore (walk (depth + 1) env b);
      env
    | Loop (c, k, body) ->
      if k < 1 || k > max_loop_bound then err "%s: loop bound %d out of range" where k;
      if depth + 1 > max_nesting then err "%s: nesting exceeds %d" where max_nesting;
      def c;
      let inner = (c, { e_ty = Num; tainted = false; counter = true }) :: env in
      ignore (walk (depth + 1) inner body);
      env
    | Loop_n (c, n, body) ->
      let e = lookup env n in
      if e.e_ty <> Num || not e.tainted then
        err "%s: loop_n bound v%d must come from a .length read" where n;
      if depth + 1 > max_nesting then err "%s: nesting exceeds %d" where max_nesting;
      def c;
      let inner = (c, { e_ty = Num; tainted = false; counter = true }) :: env in
      ignore (walk (depth + 1) inner body);
      env
  in
  if arity < 0 || arity > max_arity then err "%s: arity %d out of range" where arity;
  let params = List.init arity (fun i -> i) in
  List.iter def params;
  let env0 = List.fold_left (fun env p -> bind env p Num) [] params in
  let env_end = walk 0 env0 body in
  match ret with
  | None -> ()
  | Some v ->
    let e =
      match List.assoc_opt v env_end with
      | Some e -> e
      | None -> err "%s: return variable v%d not in scope at end of body" where v
    in
    if e.e_ty <> Num then err "%s: return variable v%d is not num" where v

let max_work = 500_000
let max_cells = 1 lsl 17
let loop_n_work_bound = 96

(* Worst-case dynamic instruction count: structural loops multiply by
   their bound, [Loop_n] by [loop_n_work_bound] (arrays start ≤
   [max_elems] and only grow one element per OOB append, so observed
   lengths stay far below it), calls by the callee's precomputed work.
   Keeping this under [max_work] both guarantees campaign throughput and
   keeps typed mutants under the oracle's step limit, so a slow mutant
   cannot masquerade as low mutation yield. *)
let prog_work p =
  let func_work = Array.make (List.length p.funcs) 0 in
  let rec body_work body = List.fold_left (fun acc i -> acc + instr_work i) 0 body
  and instr_work = function
    | If (_, t, f) -> 1 + max (body_work t) (body_work f)
    | Loop (_, k, body) -> 1 + (k * (1 + body_work body))
    | Loop_n (_, _, body) -> 1 + (loop_n_work_bound * (1 + body_work body))
    | Call (_, k, _) -> 1 + (if k < Array.length func_work then func_work.(k) else 0)
    | _ -> 1
  in
  List.iteri (fun i (f : func) -> func_work.(i) <- body_work f.body) p.funcs;
  body_work p.main

(* Heap cells allocated. The model heap has no collector, and a freed
   region is reused only by an allocation that fits in it, so the sum of
   all allocations bounds the bump pointer. An array literal takes two
   header cells and its elements. A [Set_len] regrows to at most twice
   [max_set_len]. A store one past the end appends: within capacity in
   place, and at capacity [c] by regrowing to [2c], for [2 + 2c] cells.
   Since the last regrow at least [c/2] appends ran, so each append is
   charged [append_cells]; an array whose length was just set to [n] (a
   literal, a [Set_len], a global's initial [[0]]) can regrow after
   fewer, so that event is charged [reset_cells n] more if the program
   appends to its variable or slot anywhere (an array variable only
   ever holds its own literals).

   [Loop_n] runs as often as the length its bound was read from, so the
   estimate walks each body carrying an upper bound on every array's
   length and on every length-tainted variable; no instruction rewrites
   a tainted variable. A loop's bounds are the fixpoint of "entry bounds
   plus the iteration count times one iteration's growth", and its cells
   are the iteration count times one iteration's cells at the fixpoint.
   A loop whose growth feeds itself (a [.length] read bounding an inner
   loop that appends to the same array) has no fixpoint and saturates.

   Local arrays never leave their function, so each function is
   summarized once: its cells and its appends to each global slot per
   call. Global lengths are read only in [main], which carries them
   among its bounds: each starts at [max_elems] and grows by the appends
   of every store and call that [main] makes. *)
module Imap = Map.Make (Int)

let saturated = 1 lsl 40
let sat_add a b = min saturated (a + b)
let sat_mul a b =
  if a = 0 || b = 0 then 0 else if a > saturated / b then saturated else a * b

let append_cells = 6
let reset_cells n = 2 + (2 * max n 1)

let prog_cells p =
  let slots = max 1 p.globals in
  let global k = -1 - k in
  (* the variables and slots ([global k]) that some store appends to *)
  let rec appends acc = function
    | Set_elem (a, _, _) -> a :: acc
    | Gset_elem (k, _, _) -> global k :: acc
    | If (_, t, e) -> List.fold_left appends (List.fold_left appends acc t) e
    | Loop (_, _, body) | Loop_n (_, _, body) -> List.fold_left appends acc body
    | _ -> acc
  in
  let appended =
    List.fold_left (fun acc (f : func) -> List.fold_left appends acc f.body) [] p.funcs
  in
  let appended = List.fold_left appends appended p.main in
  let reset v n = if List.mem v appended then reset_cells n else 0 in
  let funcs = Array.make (List.length p.funcs) (0, Array.make slots 0) in
  (* [walk b body] is the cells and global appends of one run of [body]
     from the bounds [b], and the bounds after it *)
  let rec walk b body =
    List.fold_left
      (fun (c, g, b) i ->
        let c', g', b = instr b i in
        (sat_add c c', Array.map2 sat_add g g', b))
      (0, Array.make slots 0, b)
      body
  and instr b i =
    let none = Array.make slots 0 in
    let get v = Option.value ~default:0 (Imap.find_opt v b) in
    let grow b v n = Imap.add v (sat_add (Option.value ~default:0 (Imap.find_opt v b)) n) b in
    let literal v elems = 2 + max 1 (List.length elems) + reset v (List.length elems) in
    let set_len v = 2 + (2 * max_set_len) + reset v max_set_len in
    match i with
    | Array_of (d, elems) ->
      (literal d elems, none, Imap.add d (max max_set_len (List.length elems)) b)
    | Gnew (k, elems) -> (literal (global k) elems, none, b)
    | Set_len (a, _) -> (set_len a, none, b)
    | Gset_len (k, _) -> (set_len (global k), none, b)
    | Set_elem (a, _, _) -> (append_cells, none, grow b a 1)
    | Gset_elem (k, _, _) ->
      (append_cells, Array.init slots (fun j -> if j = k then 1 else 0), grow b (global k) 1)
    | Get_len (d, a) -> (0, none, Imap.add d (get a) b)
    | Gget_len (d, k) -> (0, none, Imap.add d (get (global k)) b)
    | Call (_, k, _) ->
      let c, g = funcs.(k) in
      (c, g, snd (Array.fold_left (fun (k, b) n -> (k + 1, grow b (global k) n)) (0, b) g))
    | If (_, t, e) ->
      let ct, gt, bt = walk b t and ce, ge, be = walk b e in
      (max ct ce, Array.map2 max gt ge, Imap.union (fun _ x y -> Some (max x y)) bt be)
    | Loop (_, k, body) -> loop b k body
    | Loop_n (_, n, body) -> loop b (get n) body
    | Const _ | Str_const _ | Bool_const _ | Binop _ | Cmp _ | Not _ | Copy _ | Update _
    | Get_elem _ | Gget_elem _ | Print _ | Print_tag _ ->
      (0, none, b)
  and loop b0 m body =
    let rec fix tries b =
      let c, g, b1 = walk b body in
      (* a walk only adds bounds, so [b1] has every key of [b] *)
      let grown v = Imap.find v b1 - Imap.find v b in
      let next = Imap.mapi (fun v x -> sat_add x (sat_mul m (grown v))) b0 in
      if Imap.equal ( = ) next b then (sat_mul m c, Array.map (sat_mul m) g, b)
      else if tries = 0 then (saturated, Array.make slots saturated, next)
      else fix (tries - 1) next
    in
    fix 8 b0
  in
  List.iteri
    (fun i (f : func) ->
      let c, g, _ = walk Imap.empty f.body in
      funcs.(i) <- (c, g))
    p.funcs;
  let globals = List.init p.globals (fun k -> (global k, max_elems)) in
  let c, _, _ = walk (Imap.of_list globals) p.main in
  List.fold_left (fun c (k, _) -> sat_add c (3 + reset k 1)) c globals

let typecheck p =
  try
    if p.globals < 0 || p.globals > max_globals then
      err "prog: %d global slots out of range" p.globals;
    if List.length p.funcs > max_funcs then err "prog: too many functions";
    List.iteri
      (fun i (f : func) ->
        let where = Printf.sprintf "f%d" i in
        if count_instrs f.body > max_func_instrs then err "%s: body too large" where;
        check_func_body ~where ~in_main:false ~globals:p.globals ~callable:i
          ~funcs:p.funcs ~arity:f.arity f.body f.ret)
      p.funcs;
    if count_instrs p.main > max_func_instrs then err "main: body too large";
    check_func_body ~where:"main" ~in_main:true ~globals:p.globals
      ~callable:(List.length p.funcs) ~funcs:p.funcs ~arity:0 p.main None;
    let work = prog_work p in
    if work > max_work then err "prog: work estimate %d exceeds budget" work;
    let cells = prog_cells p in
    if cells > max_cells then err "prog: heap estimate %d cells exceeds budget" cells;
    Ok ()
  with Type_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Lowering to mini-JS                                                *)
(* ------------------------------------------------------------------ *)

let num_lit x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

(* True exactly when [Value_ops.to_index] accepts [i]: [i | 0] is
   ToInt32, equal to [i] only for an integer in [-2^31, 2^31). Every tier
   raises on a store at any other index, so a lowered store runs only
   behind this test, and a write at an invalid index is absorbed. *)
let valid_index i = Printf.sprintf "(%s | 0) === %s && %s >= 0" i i i

let to_source p =
  let buf = Buffer.create 1024 in
  let line indent fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf (String.make (2 * indent) ' ');
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  (* Function-local variables get a per-function prefix so that a
     function's v0 never shadows (or collides with) main's global v0. *)
  let emit_body ~vname indent body =
    let v = vname in
    let rec emit indent i =
      match i with
      | Const (d, x) -> line indent "var %s = %s;" (v d) (num_lit x)
      | Str_const (d, s) -> line indent "var %s = \"%s\";" (v d) s
      | Bool_const (d, b) -> line indent "var %s = %b;" (v d) b
      | Binop (d, op, a, b) ->
        line indent "var %s = (%s %s %s);" (v d) (v a) (binop_js op) (v b)
      | Cmp (d, op, a, b) ->
        line indent "var %s = (%s %s %s);" (v d) (v a) (cmpop_js op) (v b)
      | Not (d, a) -> line indent "var %s = !%s;" (v d) (v a)
      | Copy (d, s) -> line indent "%s = %s;" (v d) (v s)
      | Update (d, op, s) ->
        line indent "%s = (%s %s %s);" (v d) (v d) (binop_js op) (v s)
      | Array_of (d, elems) ->
        line indent "var %s = [%s];" (v d) (String.concat ", " (List.map v elems))
      | Get_len (d, a) -> line indent "var %s = %s.length;" (v d) (v a)
      | Set_len (a, k) -> line indent "%s.length = %d;" (v a) k
      | Get_elem (d, a, i) -> line indent "var %s = %s[%s];" (v d) (v a) (v i)
      | Set_elem (a, i, x) ->
        line indent "if (%s) %s[%s] = %s;" (valid_index (v i)) (v a) (v i) (v x)
      | Gnew (k, elems) ->
        line indent "g%d = [%s];" k (String.concat ", " (List.map v elems))
      | Gget_len (d, k) -> line indent "var %s = g%d.length;" (v d) k
      | Gset_len (k, n) -> line indent "g%d.length = %d;" k n
      | Gget_elem (d, k, i) -> line indent "var %s = g%d[%s];" (v d) k (v i)
      | Gset_elem (k, i, x) ->
        line indent "if (%s) g%d[%s] = %s;" (valid_index (v i)) k (v i) (v x)
      | Call (d, k, args) ->
        line indent "var %s = f%d(%s);" (v d) k (String.concat ", " (List.map v args))
      | Print x -> line indent "print(%s);" (v x)
      | Print_tag (tag, x) -> line indent "print(\"%s\" + %s);" tag (v x)
      | If (c, a, []) ->
        line indent "if (%s) {" (v c);
        List.iter (emit (indent + 1)) a;
        line indent "}"
      | If (c, a, b) ->
        line indent "if (%s) {" (v c);
        List.iter (emit (indent + 1)) a;
        line indent "} else {";
        List.iter (emit (indent + 1)) b;
        line indent "}"
      | Loop (c, k, body) ->
        line indent "for (var %s = 0; %s < %d; %s = %s + 1) {" (v c) (v c) k (v c) (v c);
        List.iter (emit (indent + 1)) body;
        line indent "}"
      | Loop_n (c, n, body) ->
        line indent "for (var %s = 0; %s < %s; %s = %s + 1) {" (v c) (v c) (v n) (v c)
          (v c);
        List.iter (emit (indent + 1)) body;
        line indent "}"
    in
    List.iter (emit indent) body
  in
  List.iteri
    (fun i (f : func) ->
      let v n = Printf.sprintf "f%dv%d" i n in
      let params = List.init f.arity v in
      line 0 "function f%d(%s) {" i (String.concat ", " params);
      emit_body ~vname:v 1 f.body;
      (match f.ret with
      | Some r -> line 1 "return %s;" (v r)
      | None -> line 1 "return 0;");
      line 0 "}")
    p.funcs;
  for k = 0 to p.globals - 1 do
    line 0 "var g%d = [0];" k
  done;
  emit_body ~vname:(Printf.sprintf "v%d") 0 p.main;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Wire format                                                        *)
(* ------------------------------------------------------------------ *)

let serialize p =
  let buf = Buffer.create 1024 in
  let line indent fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf (String.make (2 * indent) ' ');
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  let v n = Printf.sprintf "v%d" n in
  let vars vs = String.concat " " (List.map v vs) in
  let rec emit indent = function
    | Const (d, x) -> line indent "num %s %.17g" (v d) x
    | Str_const (d, s) -> line indent "str %s %S" (v d) s
    | Bool_const (d, b) -> line indent "bool %s %b" (v d) b
    | Binop (d, op, a, b) -> line indent "bin %s %s %s %s" (v d) (binop_name op) (v a) (v b)
    | Cmp (d, op, a, b) -> line indent "cmp %s %s %s %s" (v d) (cmpop_name op) (v a) (v b)
    | Not (d, a) -> line indent "not %s %s" (v d) (v a)
    | Copy (d, s) -> line indent "copy %s %s" (v d) (v s)
    | Update (d, op, s) -> line indent "upd %s %s %s" (v d) (binop_name op) (v s)
    | Array_of (d, elems) ->
      line indent "arr %s%s" (v d) (if elems = [] then "" else " " ^ vars elems)
    | Get_len (d, a) -> line indent "len %s %s" (v d) (v a)
    | Set_len (a, k) -> line indent "setlen %s %d" (v a) k
    | Get_elem (d, a, i) -> line indent "get %s %s %s" (v d) (v a) (v i)
    | Set_elem (a, i, x) -> line indent "set %s %s %s" (v a) (v i) (v x)
    | Gnew (k, elems) ->
      line indent "gnew %d%s" k (if elems = [] then "" else " " ^ vars elems)
    | Gget_len (d, k) -> line indent "glen %s %d" (v d) k
    | Gset_len (k, n) -> line indent "gsetlen %d %d" k n
    | Gget_elem (d, k, i) -> line indent "gget %s %d %s" (v d) k (v i)
    | Gset_elem (k, i, x) -> line indent "gset %d %s %s" k (v i) (v x)
    | Call (d, k, args) ->
      line indent "call %s %d%s" (v d) k (if args = [] then "" else " " ^ vars args)
    | Print x -> line indent "print %s" (v x)
    | Print_tag (tag, x) -> line indent "ptag %s %S" (v x) tag
    | If (c, a, b) ->
      line indent "if %s" (v c);
      List.iter (emit (indent + 1)) a;
      if b <> [] then begin
        line indent "else";
        List.iter (emit (indent + 1)) b
      end;
      line indent "endif"
    | Loop (c, k, body) ->
      line indent "loop %s %d" (v c) k;
      List.iter (emit (indent + 1)) body;
      line indent "endloop"
    | Loop_n (c, n, body) ->
      line indent "loopn %s %s" (v c) (v n);
      List.iter (emit (indent + 1)) body;
      line indent "endloop"
  in
  line 0 "il v1";
  line 0 "globals %d" p.globals;
  List.iter
    (fun (f : func) ->
      line 0 "func %d" f.arity;
      List.iter (emit 1) f.body;
      (match f.ret with
      | Some r -> line 0 "ret %s" (v r)
      | None -> line 0 "ret -");
      line 0 "endfunc")
    p.funcs;
  line 0 "main";
  List.iter (emit 1) p.main;
  line 0 "endmain";
  Buffer.contents buf

exception Parse_error of string

let perr fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let parse text =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
    |> Array.of_list
  in
  let pos = ref 0 in
  let peek () = if !pos < Array.length lines then Some lines.(!pos) else None in
  let next () =
    match peek () with
    | Some l ->
      incr pos;
      l
    | None -> perr "unexpected end of input"
  in
  let toks l = String.split_on_char ' ' l |> List.filter (fun t -> t <> "") in
  let var tok =
    match Scanf.sscanf_opt tok "v%d%!" (fun n -> n) with
    | Some n when n >= 0 -> n
    | _ -> perr "bad variable token %S" tok
  in
  let int tok =
    match int_of_string_opt tok with Some n -> n | None -> perr "bad integer %S" tok
  in
  (* Quoted payloads (str / ptag) may contain spaces: re-split the raw
     line so the %S field is parsed as one token. *)
  let quoted l n_prefix =
    let rec skip i k =
      if k = 0 then i
      else
        let i = ref i in
        while !i < String.length l && l.[!i] = ' ' do incr i done;
        while !i < String.length l && l.[!i] <> ' ' do incr i done;
        skip !i (k - 1)
    in
    let start = skip 0 n_prefix in
    let s = String.trim (String.sub l start (String.length l - start)) in
    match Scanf.sscanf_opt s "%S%!" (fun x -> x) with
    | Some x -> x
    | None -> perr "bad quoted string in %S" l
  in
  let rec block_until stop_pred =
    let acc = ref [] in
    let result = ref None in
    while !result = None do
      let l = next () in
      if stop_pred l then result := Some l
      else acc := instr l :: !acc
    done;
    ( List.rev !acc,
      match !result with Some s -> s | None -> assert false )
  and block stop = block_until (fun l -> List.mem l stop)
  and instr l =
    match toks l with
    | [ "num"; d; _x ] -> Const (var d, float_of_string (List.nth (toks l) 2))
    | "str" :: d :: _ -> Str_const (var d, quoted l 2)
    | [ "bool"; d; b ] -> Bool_const (var d, bool_of_string b)
    | [ "bin"; d; op; a; b ] -> (
      match binop_of_name op with
      | Some op -> Binop (var d, op, var a, var b)
      | None -> perr "unknown binop %S" op)
    | [ "cmp"; d; op; a; b ] -> (
      match cmpop_of_name op with
      | Some op -> Cmp (var d, op, var a, var b)
      | None -> perr "unknown cmpop %S" op)
    | [ "not"; d; a ] -> Not (var d, var a)
    | [ "copy"; d; s ] -> Copy (var d, var s)
    | [ "upd"; d; op; s ] -> (
      match binop_of_name op with
      | Some op -> Update (var d, op, var s)
      | None -> perr "unknown binop %S" op)
    | "arr" :: d :: elems -> Array_of (var d, List.map var elems)
    | [ "len"; d; a ] -> Get_len (var d, var a)
    | [ "setlen"; a; k ] -> Set_len (var a, int k)
    | [ "get"; d; a; i ] -> Get_elem (var d, var a, var i)
    | [ "set"; a; i; x ] -> Set_elem (var a, var i, var x)
    | "gnew" :: k :: elems -> Gnew (int k, List.map var elems)
    | [ "glen"; d; k ] -> Gget_len (var d, int k)
    | [ "gsetlen"; k; n ] -> Gset_len (int k, int n)
    | [ "gget"; d; k; i ] -> Gget_elem (var d, int k, var i)
    | [ "gset"; k; i; x ] -> Gset_elem (int k, var i, var x)
    | "call" :: d :: k :: args -> Call (var d, int k, List.map var args)
    | [ "print"; x ] -> Print (var x)
    | "ptag" :: x :: _ -> Print_tag (quoted l 2, var x)
    | [ "if"; c ] ->
      let then_, stop = block [ "else"; "endif" ] in
      if stop = "endif" then If (var c, then_, [])
      else
        let else_, stop = block [ "endif" ] in
        ignore stop;
        If (var c, then_, else_)
    | [ "loop"; c; k ] ->
      let body, _ = block [ "endloop" ] in
      Loop (var c, int k, body)
    | [ "loopn"; c; n ] ->
      let body, _ = block [ "endloop" ] in
      Loop_n (var c, var n, body)
    | _ -> perr "unrecognized instruction %S" l
  in
  try
    (match peek () with
    | Some "il v1" -> ignore (next ())
    | _ -> perr "missing 'il v1' header");
    let globals =
      match toks (next ()) with
      | [ "globals"; n ] -> int n
      | _ -> perr "expected 'globals <n>'"
    in
    let funcs = ref [] in
    let in_funcs = ref true in
    while !in_funcs do
      match toks (next ()) with
      | [ "func"; a ] ->
        let is_ret l = match toks l with "ret" :: _ -> true | _ -> false in
        let body, ret_line = block_until is_ret in
        let ret =
          match toks ret_line with
          | [ "ret"; "-" ] -> None
          | [ "ret"; r ] -> Some (var r)
          | _ -> perr "bad ret line %S" ret_line
        in
        (match next () with
        | "endfunc" -> ()
        | l -> perr "expected endfunc, got %S" l);
        funcs := { arity = int a; body; ret } :: !funcs
      | [ "main" ] -> in_funcs := false
      | _ :: _ as t -> perr "expected 'func <arity>' or 'main', got %S" (String.concat " " t)
      | [] -> perr "expected 'func <arity>' or 'main'"
    done;
    let main, _ = block [ "endmain" ] in
    let p = { globals; funcs = List.rev !funcs; main } in
    match typecheck p with
    | Ok () -> Ok p
    | Error msg -> Error (Printf.sprintf "ill-typed program: %s" msg)
  with
  | Parse_error msg -> Error msg
  | Failure msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Seeds                                                              *)
(* ------------------------------------------------------------------ *)

let big = 1073741824.

(* Shared driver for the gadget seeds: warm the function at late=0 for
   60 calls (past every tier-up threshold), trigger once with late=1,
   then check whether the victim array in g0 was corrupted. *)
let gadget_main =
  [
    Const (0, 0.);
    Gnew (0, [ 0 ]);
    Loop (1, 60, [ Call (2, 0, [ 1; 0 ]) ]);
    Const (3, 7.);
    Const (4, 1.);
    Call (5, 0, [ 3; 4 ]);
    Gget_len (6, 0);
    Const (7, 100000.);
    Cmp (8, Gt, 6, 7);
    If (8, [ Print_tag ("PWNED corrupted victim ", 6) ], []);
  ]

let gadget f = { globals = 1; funcs = [ f ]; main = gadget_main }

(* Gadget 1: shrink the array between two stores to the same index. *)
let seed_shrink_between_accesses =
  gadget
    {
      arity = 2;
      body =
        [
          Const (2, 7.);
          Array_of (3, [ 2; 2; 2; 2; 2; 2; 2; 2 ]);
          Const (4, 1.);
          Set_elem (3, 4, 0);
          Const (5, 1.);
          Cmp (6, Eq, 1, 5);
          If (6, [ Set_len (3, 1); Const (7, 9.); Gnew (0, [ 7; 7; 7; 7 ]) ], []);
          Const (8, big);
          Set_elem (3, 4, 8);
          Const (9, 0.);
          Get_elem (10, 3, 9);
        ];
      ret = Some 10;
    }

(* Gadget 2: loop bounded by a stale .length read, shrink at i = 0. *)
let seed_stale_length_loop =
  gadget
    {
      arity = 2;
      body =
        [
          Const (2, 5.);
          Array_of (3, [ 2; 2; 2; 2; 2; 2; 2; 2 ]);
          Get_len (4, 3);
          Const (5, 1.);
          Const (6, 0.);
          Const (7, big);
          Const (8, 9.);
          Loop_n
            ( 9,
              4,
              [
                Cmp (10, Eq, 1, 5);
                If
                  ( 10,
                    [
                      Cmp (11, Eq, 9, 6);
                      If (11, [ Set_len (3, 1); Gnew (0, [ 8; 8; 8; 8 ]) ], []);
                    ],
                    [] );
                Set_elem (3, 9, 7);
              ] );
        ];
      ret = None;
    }

(* Gadget 3: constant-index store proven in-bounds, then invalidated. *)
let seed_constant_index =
  gadget
    {
      arity = 2;
      body =
        [
          Const (2, 6.);
          Array_of (3, [ 2; 2; 2; 2; 2; 2; 2; 2 ]);
          Const (4, 1.);
          Set_elem (3, 4, 0);
          Const (5, 1.);
          Cmp (6, Eq, 1, 5);
          If (6, [ Set_len (3, 1); Const (7, 9.); Gnew (0, [ 7; 7; 7; 7 ]) ], []);
          Const (8, big);
          Set_elem (3, 4, 8);
          Get_elem (9, 3, 4);
        ];
      ret = Some 9;
    }

(* Gadget 4: index variable rewritten to a wild value on the late path. *)
let seed_wild_store =
  gadget
    {
      arity = 2;
      body =
        [
          Const (2, 1.);
          Array_of (3, [ 2; 2; 2; 2; 2; 2; 2; 2 ]);
          Const (4, 1.);
          Const (5, 5000000.);
          Const (6, 1.);
          Cmp (7, Eq, 1, 6);
          If
            ( 7,
              [ Set_len (3, 1); Const (8, 9.); Gnew (0, [ 8; 8; 8; 8 ]); Copy (4, 5) ],
              [] );
          Const (9, big);
          Set_elem (3, 4, 9);
        ];
      ret = None;
    }

(* Benign hot arithmetic — keeps the population from being all-exploit
   and gives splice a source of harmless material. *)
let seed_benign =
  {
    globals = 0;
    funcs =
      [
        {
          arity = 1;
          body =
            [
              Const (1, 0.);
              Loop (2, 16, [ Binop (3, Mul, 2, 0); Update (1, Add, 3) ]);
            ];
          ret = Some 1;
        };
      ];
    main =
      [
        Const (0, 0.);
        Loop (1, 50, [ Call (2, 0, [ 1 ]); Update (0, Add, 2) ]);
        Print 0;
      ];
  }

let seeds () =
  [
    seed_shrink_between_accesses;
    seed_stale_length_loop;
    seed_constant_index;
    seed_wild_store;
    seed_benign;
  ]
