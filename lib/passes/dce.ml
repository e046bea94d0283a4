(* Dead code elimination.

   Roots: control instructions, instructions with side effects (writes),
   parameters, and guards — a guard's *check* is its purpose, so it must
   survive even when its pass-through value has no uses. Everything not
   reachable from a root through operand edges is deleted.

   CVE-2019-9813 variant: bounds checks are NOT roots, so a
   [boundscheck] whose value is unused — the store fast path, where the
   store indexes with the unboxed index directly — is deleted, leaving
   the store unguarded. This reproduces the "guard dropped because its
   result looked dead" logic-bug class. *)

module Mir = Jitbull_mir.Mir

let run (ctx : Pass.ctx) (g : Mir.t) =
  let vulnerable = Vuln_config.is_active ctx.Pass.vulns Vuln_config.CVE_2019_9813 in
  let live = Array.make g.Mir.next_iid false in
  let rec mark (i : Mir.instr) =
    if not live.(i.Mir.iid) then begin
      live.(i.Mir.iid) <- true;
      List.iter mark i.Mir.operands
    end
  in
  let is_root (i : Mir.instr) =
    let eff = Mir.effects i.Mir.opcode in
    eff.Mir.is_control
    || eff.Mir.writes <> []
    || (match i.Mir.opcode with
       | Mir.Parameter _ | Mir.Call _ | Mir.Call_method _ | Mir.Array_pop -> true
       | Mir.Bounds_check -> not vulnerable  (* BUG when vulnerable *)
       | Mir.Unbox_number | Mir.Unbox_int32 | Mir.Guard_array -> true
       | _ -> false)
  in
  Mir.iter_instructions (fun i -> if is_root i then mark i) g;
  List.iter
    (fun (b : Mir.block) ->
      let keep (i : Mir.instr) = live.(i.Mir.iid) in
      b.Mir.phis <- List.filter keep b.Mir.phis;
      b.Mir.body <- List.filter keep b.Mir.body)
    g.Mir.blocks

let pass : Pass.t = { Pass.name = "dce"; can_disable = true; run }
