(* Function inlining (IonMonkey inlines small hot callees during graph
   building; we model it as an early pass).

   A call site is inlined when:
   - the callee operand is a [loadglobal f] for a name the engine resolved
     (bound to a function and never reassigned anywhere in the program);
   - the callee's MIR is small enough ([max_callee_size]);
   - the caller has not grown past [max_caller_size];
   - argument count handling: missing arguments become [undefined],
     extra arguments are evaluated (they already were) and ignored.

   Splicing: the call block is split at the call; the callee's blocks are
   cloned into the caller (fresh instructions, parameters replaced by the
   argument values), the callee entry is jumped to, and every cloned
   [return] becomes a goto to the continuation block, where a phi merges
   the return values and replaces the call instruction. Bailouts inside
   inlined code replay the whole caller in the interpreter, which is
   always safe. *)

module Mir = Jitbull_mir.Mir
module Value = Jitbull_runtime.Value

let max_callee_size = 40
let max_caller_size = 400
let max_inlines_per_run = 4

(* Clone [callee] into [g]. Returns (entry block clone, list of
   (return_block_clone, return_value_clone)). [arg_for i] supplies the
   caller-side value for parameter [i]. *)
let splice_clone (g : Mir.t) (callee : Mir.t) ~arg_for =
  (* callee ids → their clones *)
  let block_map = Array.make callee.Mir.next_bid g.Mir.entry in
  let instr_map = Array.make callee.Mir.next_iid Mir.no_instr in
  (* first create empty target blocks *)
  List.iter (fun (b : Mir.block) -> block_map.(b.Mir.bid) <- Mir.new_block g) callee.Mir.blocks;
  let clone_block (b : Mir.block) = block_map.(b.Mir.bid) in
  let returns = ref [] in
  (* clone instructions (two phases: create, then wire operands); each
     block's lists are consed up in reverse and turned round once *)
  List.iter
    (fun (b : Mir.block) ->
      let nb = clone_block b in
      nb.Mir.preds <- List.map clone_block b.Mir.preds;
      let phis = ref [] and body = ref [] in
      let add acc op = Mir.push_instr acc g nb op [] in
      List.iter
        (fun (i : Mir.instr) ->
          let cloned =
            match i.Mir.opcode with
            | Mir.Parameter n -> arg_for n  (* no new instruction *)
            | Mir.Phi -> add phis Mir.Phi
            | Mir.Goto t -> add body (Mir.Goto (clone_block t))
            | Mir.Test (t, f) -> add body (Mir.Test (clone_block t, clone_block f))
            | Mir.Return ->
              (* becomes a goto to the continuation; target patched by the
                 caller of [splice_clone] *)
              let goto = add body (Mir.Goto nb) in
              returns := (nb, i, goto) :: !returns;
              goto
            | op -> add body op
          in
          instr_map.(i.Mir.iid) <- cloned)
        (Mir.instructions b);
      nb.Mir.phis <- List.rev !phis;
      nb.Mir.body <- List.rev !body)
    callee.Mir.blocks;
  (* wire operands *)
  List.iter
    (fun (b : Mir.block) ->
      List.iter
        (fun (i : Mir.instr) ->
          match i.Mir.opcode with
          | Mir.Parameter _ | Mir.Return -> ()
          | _ ->
            let cloned = instr_map.(i.Mir.iid) in
            cloned.Mir.operands <-
              List.map (fun (o : Mir.instr) -> instr_map.(o.Mir.iid)) i.Mir.operands)
        (Mir.instructions b))
    callee.Mir.blocks;
  let return_sites =
    List.rev_map
      (fun ((nb : Mir.block), (ret : Mir.instr), (goto : Mir.instr)) ->
        let v =
          match ret.Mir.operands with
          | [ v ] -> instr_map.(v.Mir.iid)
          | _ ->
            let u = Mir.make_instr ~in_block:nb.Mir.bid g (Mir.Constant Value.Undefined) [] in
            nb.Mir.body <- nb.Mir.body @ [ u ];
            u
        in
        (nb, v, goto))
      !returns
  in
  (clone_block callee.Mir.entry, return_sites)

(* Inline [call] (in [b]) with [callee]; the call's uses are forwarded to
   the result through [fw]. [args] are the call's arguments, resolved. *)
let inline_call (g : Mir.t) fw (b : Mir.block) (call : Mir.instr) (callee : Mir.t) ~args =
  let args = Array.of_list args in
  (* undefined filler for missing arguments, defined before the call *)
  let undef = lazy (Mir.make_instr g (Mir.Constant Value.Undefined) []) in
  let arg_for n = if n < Array.length args then args.(n) else Lazy.force undef in
  (* split b at the call *)
  let rec split before = function
    | [] -> (List.rev before, [])
    | i :: rest when i == call -> (List.rev before, rest)
    | i :: rest -> split (i :: before) rest
  in
  let before, after = split [] b.Mir.body in
  let cont = Mir.new_block g in
  cont.Mir.body <- after;
  List.iter (fun (i : Mir.instr) -> i.Mir.in_block <- cont.Mir.bid) after;
  (* successors of the old control now have cont as the pred where b was *)
  List.iter
    (fun (s : Mir.block) ->
      s.Mir.preds <- List.map (fun p -> if p == b then cont else p) s.Mir.preds)
    (Mir.successors cont);
  let entry_clone, return_sites = splice_clone g callee ~arg_for in
  (* materialize the undefined filler at the end of [before] if used *)
  let before =
    if Lazy.is_val undef then begin
      let u = Lazy.force undef in
      u.Mir.in_block <- b.Mir.bid;
      before @ [ u ]
    end
    else before
  in
  let goto_entry = Mir.make_instr ~in_block:b.Mir.bid g (Mir.Goto entry_clone) [] in
  b.Mir.body <- before @ [ goto_entry ];
  entry_clone.Mir.preds <- [ b ];
  (* retarget cloned returns to cont and build the result phi *)
  List.iter
    (fun ((_ : Mir.block), (_ : Mir.instr), (goto : Mir.instr)) ->
      goto.Mir.opcode <- Mir.Goto cont)
    return_sites;
  cont.Mir.preds <- List.map (fun (nb, _, _) -> nb) return_sites;
  let result =
    match return_sites with
    | [ (_, v, _) ] -> v
    | _ :: _ ->
      let phi =
        Mir.make_instr ~in_block:cont.Mir.bid g Mir.Phi (List.map (fun (_, v, _) -> v) return_sites)
      in
      cont.Mir.phis <- [ phi ];
      phi
    | [] ->
      (* callee never returns (infinite loop): cont is unreachable; keep a
         dummy undefined value for uses *)
      let u = Mir.make_instr ~in_block:cont.Mir.bid g (Mir.Constant Value.Undefined) [] in
      cont.Mir.body <- u :: cont.Mir.body;
      u
  in
  Mir.forward fw call result;
  g.Mir.blocks <- Mir.compute_rpo g;
  Mir.renumber g

let run (ctx : Pass.ctx) (g : Mir.t) =
  let budget = ref max_inlines_per_run in
  let fw = Mir.forwarding g in
  (* names already judged non-inlinable: don't re-resolve them each scan *)
  let rejected : (string, unit) Hashtbl.t = Hashtbl.create 4 in
  let find_site () =
    List.find_map
      (fun (b : Mir.block) ->
        List.find_map
          (fun (i : Mir.instr) ->
            match i.Mir.opcode with
            | Mir.Call _ -> (
              match Mir.resolved_operands fw i with
              | { Mir.opcode = Mir.Load_global f; _ } :: args when not (Hashtbl.mem rejected f) ->
                Some (b, i, f, args)
              | _ -> None)
            | _ -> None)
          b.Mir.body)
      g.Mir.blocks
  in
  let continue_ = ref true in
  while !continue_ && !budget > 0 do
    match find_site () with
    | None -> continue_ := false
    | Some (b, call, fname, args) -> (
      match ctx.Pass.inline_resolver fname with
      | Some callee
        when Mir.instruction_count callee <= max_callee_size
             && Mir.instruction_count g + Mir.instruction_count callee <= max_caller_size
             && not (String.equal callee.Mir.name g.Mir.name) ->
        inline_call g fw b call callee ~args;
        decr budget
      | Some _ | None -> Hashtbl.replace rejected fname ())
  done;
  Mir.forward_uses g fw

let pass : Pass.t = { Pass.name = "inlining"; can_disable = true; run }
