(* Fold tests on constant conditions into gotos, removing the untaken edge
   and any blocks that become unreachable (adjusting phis of surviving
   successors). *)

module Mir = Jitbull_mir.Mir
module Value_ops = Jitbull_runtime.Value_ops

(* Remove the edge [pred → b]: drop the pred and the corresponding phi
   operand (by position). *)
let remove_edge (pred : Mir.block) (b : Mir.block) =
  let position =
    let rec find k = function
      | [] -> None
      | p :: rest -> if p == pred then Some k else find (k + 1) rest
    in
    find 0 b.Mir.preds
  in
  match position with
  | None -> ()
  | Some k ->
    b.Mir.preds <- List.filteri (fun i _ -> i <> k) b.Mir.preds;
    List.iter
      (fun (phi : Mir.instr) ->
        phi.Mir.operands <- List.filteri (fun i _ -> i <> k) phi.Mir.operands)
      b.Mir.phis

let run (_ctx : Pass.ctx) (g : Mir.t) =
  List.iter
    (fun (b : Mir.block) ->
      match Mir.control_instr b with
      | Some ({ Mir.opcode = Mir.Test (t, f); operands = [ cond ]; _ } as ctrl) -> (
        match cond.Mir.opcode with
        | Mir.Constant v ->
          let taken, untaken = if Value_ops.to_boolean v then (t, f) else (f, t) in
          ctrl.Mir.opcode <- Mir.Goto taken;
          ctrl.Mir.operands <- [];
          if untaken != taken then remove_edge b untaken
        | _ -> ())
      | Some _ | None -> ())
    g.Mir.blocks;
  (* cascade unreachable-block removal *)
  let reachable = Array.make g.Mir.next_bid false in
  let rec mark (b : Mir.block) =
    if not reachable.(b.Mir.bid) then begin
      reachable.(b.Mir.bid) <- true;
      List.iter mark (Mir.successors b)
    end
  in
  mark g.Mir.entry;
  let dead = List.filter (fun (b : Mir.block) -> not reachable.(b.Mir.bid)) g.Mir.blocks in
  List.iter
    (fun (d : Mir.block) -> List.iter (fun s -> remove_edge d s) (Mir.successors d))
    dead;
  g.Mir.blocks <- List.filter (fun (b : Mir.block) -> reachable.(b.Mir.bid)) g.Mir.blocks;
  (* edge removal can leave single-operand (trivial) phis behind; fold them
     here so later CFG passes and lowering see a clean graph even when the
     phi-elimination pass has already run (or is disabled) *)
  let fw = Mir.forwarding g in
  List.iter
    (fun (b : Mir.block) ->
      List.iter
        (fun (phi : Mir.instr) ->
          match phi.Mir.operands with
          | [ v ] ->
            let v = Mir.resolve fw v in
            if v != phi then Mir.forward fw phi v
          | _ -> ())
        b.Mir.phis)
    g.Mir.blocks;
  Mir.forward_uses g fw

let pass : Pass.t = { Pass.name = "foldtests"; can_disable = true; run }
