(* Instruction scheduling: sink a movable, effect-free instruction with a
   single user in the same block to just before that user, shortening live
   ranges before register allocation. Dependency edges are unchanged, so
   this pass's Δ is empty — it exists because IonMonkey reorders too, and
   JITBULL must be insensitive to pure reordering. *)

module Mir = Jitbull_mir.Mir

let run (_ctx : Pass.ctx) (g : Mir.t) =
  (* users of every instruction, by iid *)
  let users = Array.make g.Mir.next_iid [] in
  let add_use (i : Mir.instr) (o : Mir.instr) = users.(o.Mir.iid) <- i :: users.(o.Mir.iid) in
  Mir.iter_instructions (fun i -> List.iter (add_use i) i.Mir.operands) g;
  List.iter
    (fun (b : Mir.block) ->
      let moved = ref [] in
      (* collect candidates: movable, no reads (hoisting a load past a
         store would be wrong), single user later in the same block *)
      List.iter
        (fun (i : Mir.instr) ->
          let eff = Mir.effects i.Mir.opcode in
          if eff.Mir.is_movable && (not eff.Mir.is_guard) && eff.Mir.reads = [] then
            match users.(i.Mir.iid) with
            | [ ({ Mir.opcode = Mir.Phi; _ } : Mir.instr) ] -> ()
            | [ user ] when user.Mir.in_block = b.Mir.bid -> moved := (i, user) :: !moved
            | _ -> ())
        b.Mir.body;
      List.iter
        (fun ((i : Mir.instr), (user : Mir.instr)) ->
          if List.memq i b.Mir.body && List.memq user b.Mir.body then begin
            let without = List.filter (fun x -> x != i) b.Mir.body in
            (* only move forward: i must currently precede user *)
            let rec insert = function
              | [] -> [ i ]
              | x :: rest when x == user -> i :: x :: rest
              | x :: rest -> x :: insert rest
            in
            b.Mir.body <- insert without
          end)
        !moved)
    g.Mir.blocks

let pass : Pass.t = { Pass.name = "reordering"; can_disable = true; run }
