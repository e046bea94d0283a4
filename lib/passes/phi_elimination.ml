(* Eliminate trivial phis: a phi whose operands (ignoring itself) are all
   the same definition is replaced by that definition. Loop-header phis
   created eagerly by the MIR builder are mostly of this kind. *)

module Mir = Jitbull_mir.Mir

(* The one definition [phi]'s operands name besides [phi] itself, if
   there is exactly one. *)
let rec single_operand fw phi v = function
  | [] -> v
  | o :: rest -> (
    match (Mir.resolve fw o, v) with
    | o, _ when o == phi -> single_operand fw phi v rest
    | o, None -> single_operand fw phi (Some o) rest
    | o, Some x -> if x == o then single_operand fw phi v rest else None)

let run (_ctx : Pass.ctx) (g : Mir.t) =
  let fw = Mir.forwarding g in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (b : Mir.block) ->
        List.iter
          (fun (phi : Mir.instr) ->
            if not (Mir.forwarded fw phi) then
              match single_operand fw phi None phi.Mir.operands with
              | Some v ->
                Mir.forward fw phi v;
                changed := true
              | None -> ())
          b.Mir.phis)
      g.Mir.blocks
  done;
  Mir.forward_uses g fw

let pass : Pass.t = { Pass.name = "eliminatephis"; can_disable = true; run }
