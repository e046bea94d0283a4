(* Instruction simplification / strength reduction.

   Only identities that hold for every JS number are applied ([Bin_num]
   operands are already unboxed or converted, so they are genuine numbers;
   NaN and -0 are checked case by case):
   - x * 1, x / 1, x - 0, x + 0 (numeric side) → x
   - negate(negate x) → x
   - tonumber(tonumber x) → inner (idempotent)
   - test(not x, t, f) → test(x, f, t) (branch inversion) *)

module Mir = Jitbull_mir.Mir
module Value = Jitbull_runtime.Value

let is_const_num (i : Mir.instr) f =
  match i.Mir.opcode with
  | Mir.Constant (Value.Number g) -> g = f
  | _ -> false

let run (_ctx : Pass.ctx) (g : Mir.t) =
  let fw = Mir.forwarding g in
  let replace_with (i : Mir.instr) (v : Mir.instr) = Mir.forward fw i v in
  Mir.iter_instructions
    (fun (i : Mir.instr) ->
      match (i.Mir.opcode, Mir.resolved_operands fw i) with
      (* x * 1 = x, 1 * x = x: exact for every float incl. NaN and ±0 *)
      | Mir.Bin_num Mir.NMul, [ x; one ] when is_const_num one 1.0 -> replace_with i x
      | Mir.Bin_num Mir.NMul, [ one; x ] when is_const_num one 1.0 -> replace_with i x
      (* x / 1 = x *)
      | Mir.Bin_num Mir.NDiv, [ x; one ] when is_const_num one 1.0 -> replace_with i x
      (* x - 0 = x (x - (-0) would also be x; x = -0 gives -0 - 0 = -0 ✓) *)
      | Mir.Bin_num Mir.NSub, [ x; zero ] when is_const_num zero 0.0 -> replace_with i x
      (* negate(negate x) = x: the inner operand is already a number *)
      | Mir.Negate, [ { Mir.opcode = Mir.Negate; operands = [ x ]; _ } ] ->
        replace_with i (Mir.resolve fw x)
      (* tonumber is idempotent *)
      | Mir.To_number, [ ({ Mir.opcode = Mir.To_number; _ } as inner) ] ->
        replace_with i inner
      | _ -> ())
    g;
  (* branch inversion: test(not x) swaps the targets *)
  List.iter
    (fun (b : Mir.block) ->
      match Mir.control_instr b with
      | Some ({ Mir.opcode = Mir.Test (t, f); operands = [ cond ]; _ } as ctrl) -> (
        match Mir.resolve fw cond with
        | { Mir.opcode = Mir.Not; operands = [ x ]; _ } ->
          ctrl.Mir.opcode <- Mir.Test (f, t);
          ctrl.Mir.operands <- [ Mir.resolve fw x ]
          (* [preds] of t/f are unchanged — only which edge is "true"
             flipped, and neither block can have phis keyed on edge
             direction (operands align with preds, which still contain
             exactly this block once) *)
        | _ -> ())
      | Some _ | None -> ())
    g.Mir.blocks;
  Mir.forward_uses g fw

let pass : Pass.t = { Pass.name = "simplify"; can_disable = true; run }
