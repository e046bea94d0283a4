exception Invalid of string

let fail fmt = Format.kasprintf (fun s -> raise (Invalid s)) fmt

let check (g : Mir.t) =
  let dom = Domtree.compute g in
  (* by iid: the block holding the instruction, if it is in the graph *)
  let in_graph = Array.make g.Mir.next_iid None in
  List.iter
    (fun (b : Mir.block) ->
      List.iter (fun (i : Mir.instr) -> in_graph.(i.Mir.iid) <- Some b) (Mir.instructions b))
    g.Mir.blocks;
  List.iter
    (fun (b : Mir.block) ->
      (* control structure *)
      (match List.rev b.Mir.body with
      | last :: earlier ->
        if not (Mir.is_control last.Mir.opcode) then
          fail "block%d does not end in a control instruction" b.Mir.bid;
        List.iter
          (fun (i : Mir.instr) ->
            if Mir.is_control i.Mir.opcode then
              fail "block%d has a control instruction %d before the end" b.Mir.bid i.Mir.num)
          earlier
      | [] -> fail "block%d has an empty body" b.Mir.bid);
      (* phi arity *)
      List.iter
        (fun (phi : Mir.instr) ->
          if phi.Mir.opcode <> Mir.Phi then
            fail "non-phi %d in phi section of block%d" phi.Mir.num b.Mir.bid;
          if List.length phi.Mir.operands <> List.length b.Mir.preds then
            fail "phi %d of block%d has %d operands for %d predecessors" phi.Mir.num b.Mir.bid
              (List.length phi.Mir.operands)
              (List.length b.Mir.preds))
        b.Mir.phis;
      List.iter
        (fun (i : Mir.instr) ->
          if i.Mir.opcode = Mir.Phi then
            fail "phi %d of block%d is in the body section" i.Mir.num b.Mir.bid)
        b.Mir.body;
      (* membership *)
      List.iter
        (fun (i : Mir.instr) ->
          if i.Mir.in_block <> b.Mir.bid then
            fail "instruction %d claims block%d but lives in block%d" i.Mir.num i.Mir.in_block
              b.Mir.bid)
        (Mir.instructions b);
      (* pred/succ consistency *)
      List.iter
        (fun (s : Mir.block) ->
          if not (List.memq b s.Mir.preds) then
            fail "edge block%d→block%d missing from preds" b.Mir.bid s.Mir.bid)
        (Mir.successors b);
      List.iter
        (fun (p : Mir.block) ->
          if not (List.memq b (Mir.successors p)) then
            fail "pred block%d of block%d has no such successor" p.Mir.bid b.Mir.bid)
        b.Mir.preds;
      (* dominance of operands *)
      List.iter
        (fun (i : Mir.instr) ->
          List.iter
            (fun (op : Mir.instr) ->
              let def_block =
                if op.Mir.iid < Array.length in_graph then in_graph.(op.Mir.iid) else None
              in
              match (def_block, i.Mir.opcode) with
              | None, _ ->
                fail "instruction %d of block%d uses dead operand %d" i.Mir.num b.Mir.bid
                  op.Mir.num
              | Some def_block, Mir.Phi -> (
                (* the k-th operand must be available at the exit of the
                   k-th predecessor *)
                let rec nth_pred ops preds =
                  match (ops, preds) with
                  | o :: _, (p : Mir.block) :: _ when o == op -> Some p
                  | _ :: ops, _ :: preds -> nth_pred ops preds
                  | _ -> None
                in
                (* find first position of this operand; duplicates are
                   fine because we only need existence of a valid slot *)
                match nth_pred i.Mir.operands b.Mir.preds with
                | Some p ->
                  if not (Domtree.dominates dom def_block p) then
                    fail "phi %d operand %d does not dominate pred block%d" i.Mir.num
                      op.Mir.num p.Mir.bid
                | None -> ())
              | Some _, _ ->
                if not (Domtree.instr_dominates dom op b ~use_instr:i) then
                  fail "operand %d does not dominate its use %d in block%d" op.Mir.num i.Mir.num
                    b.Mir.bid)
            i.Mir.operands)
        (Mir.instructions b))
    g.Mir.blocks

let check_bool g =
  match check g with
  | () -> true
  | exception Invalid _ -> false
