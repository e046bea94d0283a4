(* Split critical edges: an edge A→B where A has several successors and B
   several predecessors gets an intermediate block. Mandatory — SSA
   destruction during LIR lowering places parallel copies on edges and is
   only correct on a graph without critical edges. *)

module Mir = Jitbull_mir.Mir

let run (_ctx : Pass.ctx) (g : Mir.t) =
  let blocks = g.Mir.blocks in
  List.iter
    (fun (b : Mir.block) ->
      match Mir.control_instr b with
      | Some ({ Mir.opcode = Mir.Test (t, f); _ } as ctrl) when t != f ->
        let split (target : Mir.block) =
          if List.length target.Mir.preds > 1 then begin
            let c = Mir.new_block g in
            c.Mir.body <- [ Mir.make_instr ~in_block:c.Mir.bid g (Mir.Goto target) [] ];
            (* replace [b] by [c] in the same predecessor slot so phi
               operands stay aligned *)
            target.Mir.preds <-
              List.map (fun p -> if p == b then c else p) target.Mir.preds;
            c.Mir.preds <- [ b ];
            c
          end
          else target
        in
        let t' = split t in
        let f' = split f in
        ctrl.Mir.opcode <- Mir.Test (t', f')
      | Some _ | None -> ())
    blocks;
  g.Mir.blocks <- Mir.compute_rpo g

let pass : Pass.t = { Pass.name = "splitcriticaledges"; can_disable = false; run }
