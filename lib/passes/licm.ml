(* Loop-invariant code motion.

   An instruction is hoisted to the loop preheader when it is movable (or
   a guard), all operands are defined outside the loop (or already
   hoisted), and — for loads — no instruction in the loop writes any alias
   class it reads. Hoisted guards that fail at runtime merely bail out to
   the interpreter, which is always safe.

   CVE-2019-9792 variant: the in-loop store check is skipped for element
   and length loads, so e.g. [initializedlength] is hoisted out of a loop
   whose body shrinks the array — every later iteration then bounds-checks
   against the stale pre-shrink length, exactly an incorrect-alias LICM
   bug. *)

module Mir = Jitbull_mir.Mir
module Domtree = Jitbull_mir.Domtree

let run (ctx : Pass.ctx) (g : Mir.t) =
  let vulnerable = Vuln_config.is_active ctx.Pass.vulns Vuln_config.CVE_2019_9792 in
  let dom = Domtree.compute g in
  let headers =
    List.filter
      (fun (h : Mir.block) -> List.exists (fun p -> Domtree.dominates dom h p) h.Mir.preds)
      g.Mir.blocks
  in
  (* alias classes each block writes, once (phis write nothing) *)
  let writes = Array.make g.Mir.next_bid 0 in
  List.iter
    (fun (b : Mir.block) ->
      let add m (i : Mir.instr) = m lor Mir_util.default_clobbers i.Mir.opcode in
      writes.(b.Mir.bid) <- List.fold_left add 0 b.Mir.body)
    g.Mir.blocks;
  (* by iid: the header bid of the loop that hoisted it, -1 = none *)
  let hoisted = Array.make g.Mir.next_iid (-1) in
  List.iter
    (fun (header : Mir.block) ->
      let hoisted_here (i : Mir.instr) = hoisted.(i.Mir.iid) = header.Mir.bid in
      let body = Domtree.loop_body dom header in
      let preheaders =
        List.filter (fun (p : Mir.block) -> not body.(p.Mir.bid)) header.Mir.preds
      in
      match preheaders with
      | [ pre ] ->
        (* alias classes written anywhere in the loop *)
        let stored =
          List.fold_left
            (fun m (b : Mir.block) -> if body.(b.Mir.bid) then m lor writes.(b.Mir.bid) else m)
            0 g.Mir.blocks
        in
        let defined_outside (o : Mir.instr) =
          o.Mir.in_block < 0 || (not body.(o.Mir.in_block)) || hoisted_here o
        in
        let loads_safe (i : Mir.instr) =
          if vulnerable then true  (* BUG: in-loop stores ignored *)
          else Mir_util.class_mask (Mir.effects i.Mir.opcode).Mir.reads land stored = 0
        in
        let changed = ref true in
        while !changed do
          changed := false;
          List.iter
            (fun (b : Mir.block) ->
              if body.(b.Mir.bid) then
                List.iter
                  (fun (i : Mir.instr) ->
                    if
                      (not (hoisted_here i))
                      && (match i.Mir.opcode with
                         | Mir.Phi -> false
                         | op -> (Mir.effects op).Mir.is_movable)
                      && List.for_all defined_outside i.Mir.operands
                      && loads_safe i
                    then begin
                      (* move to the preheader, before its control instr *)
                      b.Mir.body <- List.filter (fun x -> x != i) b.Mir.body;
                      Mir_util.insert_before_control pre i;
                      hoisted.(i.Mir.iid) <- header.Mir.bid;
                      changed := true
                    end)
                  b.Mir.body)
            g.Mir.blocks
        done
      | _ -> ())
    headers

let pass : Pass.t = { Pass.name = "licm"; can_disable = true; run }
