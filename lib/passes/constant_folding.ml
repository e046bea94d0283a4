(* Constant folding.

   Pure operations over constants are evaluated at compile time through
   the same {!Value_ops} the runtime uses, so folding can never disagree
   with execution.

   CVE-2019-9795 variant: additionally folds away a [boundscheck] whose
   index is a constant [k] when the checked array's allocation site
   ([newarray n]) is visible in the same graph and [k < n] — trusting the
   static allocation length and ignoring that the array may have been
   shrunk between allocation and access (the incorrect-assumption bug
   class of the real CVE). *)

module Mir = Jitbull_mir.Mir
module Value = Jitbull_runtime.Value
module Value_ops = Jitbull_runtime.Value_ops
module Ast = Jitbull_frontend.Ast

let ast_of_num_binop : Mir.num_binop -> Ast.binop = function
  | Mir.NSub -> Ast.Sub
  | Mir.NMul -> Ast.Mul
  | Mir.NDiv -> Ast.Div
  | Mir.NMod -> Ast.Mod
  | Mir.NBit_and -> Ast.Bit_and
  | Mir.NBit_or -> Ast.Bit_or
  | Mir.NBit_xor -> Ast.Bit_xor
  | Mir.NShl -> Ast.Shl
  | Mir.NShr -> Ast.Shr
  | Mir.NUshr -> Ast.Ushr

let ast_of_compare : Mir.compare_op -> Ast.binop = function
  | Mir.CLt -> Ast.Lt
  | Mir.CLe -> Ast.Le
  | Mir.CGt -> Ast.Gt
  | Mir.CGe -> Ast.Ge
  | Mir.CEq -> Ast.Eq
  | Mir.CNeq -> Ast.Neq
  | Mir.CStrict_eq -> Ast.Strict_eq
  | Mir.CStrict_neq -> Ast.Strict_neq

let const_of (i : Mir.instr) =
  match i.Mir.opcode with
  | Mir.Constant v -> Some v
  | _ -> None

(* Walk to the array definition behind guard/unbox wrappers. *)
let rec strip fw (i : Mir.instr) =
  match (i.Mir.opcode, i.Mir.operands) with
  | (Mir.Guard_array | Mir.Unbox_int32 | Mir.Unbox_number | Mir.To_number), [ x ] ->
    strip fw (Mir.resolve fw x)
  | _ -> i

let run (ctx : Pass.ctx) (g : Mir.t) =
  let vulnerable = Vuln_config.is_active ctx.Pass.vulns Vuln_config.CVE_2019_9795 in
  let fold_to (i : Mir.instr) (v : Value.t) =
    (* rewrite in place into a constant: keeps the definition point, so
       dominance is untouched *)
    i.Mir.opcode <- Mir.Constant v;
    i.Mir.operands <- []
  in
  let folded (i : Mir.instr) =
    match (i.Mir.opcode, i.Mir.operands) with
    | Mir.Bin_num op, [ { Mir.opcode = Mir.Constant a; _ }; { Mir.opcode = Mir.Constant b; _ } ]
      ->
      Some (Value_ops.binary (ast_of_num_binop op) a b)
    | Mir.Add, [ { Mir.opcode = Mir.Constant a; _ }; { Mir.opcode = Mir.Constant b; _ } ] ->
      Some (Value_ops.binary Ast.Add a b)
    | Mir.Compare op, [ { Mir.opcode = Mir.Constant a; _ }; { Mir.opcode = Mir.Constant b; _ } ]
      ->
      Some (Value_ops.binary (ast_of_compare op) a b)
    | Mir.Not, [ { Mir.opcode = Mir.Constant a; _ } ] -> Some (Value_ops.unary Ast.Not a)
    | Mir.Negate, [ { Mir.opcode = Mir.Constant a; _ } ] -> Some (Value_ops.unary Ast.Neg a)
    | Mir.Bit_not, [ { Mir.opcode = Mir.Constant a; _ } ] -> Some (Value_ops.unary Ast.Bit_not a)
    | Mir.Typeof, [ { Mir.opcode = Mir.Constant a; _ } ] ->
      Some (Value.String (Value.type_name a))
    | Mir.To_number, [ { Mir.opcode = Mir.Constant a; _ } ] ->
      Some (Value.Number (Value_ops.to_number a))
    | Mir.Unbox_number, [ { Mir.opcode = Mir.Constant (Value.Number f); _ } ] ->
      Some (Value.Number f)
    | Mir.Unbox_int32, [ { Mir.opcode = Mir.Constant (Value.Number f); _ } ]
      when Float.is_integer f && Float.abs f < 2147483648.0 ->
      Some (Value.Number f)
    | _ -> None
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Mir.iter_instructions
      (fun (i : Mir.instr) ->
        match folded i with
        | Some v ->
          fold_to i v;
          changed := true
        | None -> ())
      g
  done;
  if vulnerable then begin
    let fw = Mir.forwarding g in
    Mir.iter_instructions
      (fun (i : Mir.instr) ->
        match (i.Mir.opcode, Mir.resolved_operands fw i) with
        | Mir.Bounds_check, [ idx; len ] -> (
          match (const_of (strip fw idx), Bounds_check_elim.array_of_length_load fw len) with
          | Some (Value.Number k), Some arr -> (
            match (strip fw arr).Mir.opcode with
            | Mir.New_array n when k >= 0.0 && int_of_float k < n ->
              (* BUG: trusts the allocation-site length *)
              Mir.forward fw i idx
            | _ -> ())
          | _ -> ())
        | _ -> ())
      g;
    Mir.forward_uses g fw
  end

let pass : Pass.t = { Pass.name = "foldconstants"; can_disable = true; run }
