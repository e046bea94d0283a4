(* Instruction scheduling: sink a movable, effect-free instruction with a
   single user in the same block to just before that user, shortening live
   ranges before register allocation. Dependency edges are unchanged, so
   this pass's Δ is empty — it exists because IonMonkey reorders too, and
   JITBULL must be insensitive to pure reordering. *)

module Mir = Jitbull_mir.Mir

(* [user.(iid)] names the instruction's one operand occurrence: its
   user's iid and the block whose body holds that user, packed as
   [iid * next_bid + bid]. [no_user] before any occurrence; [many] after
   a second one, a phi's, or one by an instruction whose [in_block]
   disagrees with its block (never a sinking target); [sunk] once the
   instruction is attached to its user. *)
let no_user = -1
let many = -2
let sunk = -3

let rec count_uses user code = function
  | [] -> ()
  | (o : Mir.instr) :: rest ->
    let k = o.Mir.iid in
    user.(k) <- (if user.(k) = no_user then code else many);
    count_uses user code rest

(* Each sunk instruction is attached to its user, and each block with a
   sinking is rebuilt once. The instructions sunk to one user come just
   before it in reverse block order, each preceded by those sunk to it;
   the pass output goldens pin this order. *)
let run (_ctx : Pass.ctx) (g : Mir.t) =
  let n = g.Mir.next_iid and nb = g.Mir.next_bid in
  let user = Array.make n no_user in
  List.iter
    (fun (b : Mir.block) ->
      List.iter (fun (p : Mir.instr) -> count_uses user many p.Mir.operands) b.Mir.phis;
      List.iter
        (fun (i : Mir.instr) ->
          let code =
            match i.Mir.opcode with
            | Mir.Phi -> many
            | _ when i.Mir.in_block <> b.Mir.bid -> many
            | _ -> (i.Mir.iid * nb) + b.Mir.bid
          in
          count_uses user code i.Mir.operands)
        b.Mir.body)
    g.Mir.blocks;
  let attached = Array.make n [] in
  let rec place (x : Mir.instr) acc = List.fold_right place attached.(x.Mir.iid) (x :: acc) in
  List.iter
    (fun (b : Mir.block) ->
      let any = ref false in
      (* candidates: movable, no reads (hoisting a load past a store would
         be wrong), single user later in the same block *)
      List.iter
        (fun (i : Mir.instr) ->
          let code = user.(i.Mir.iid) in
          if code >= 0 && code mod nb = b.Mir.bid then begin
            let eff = Mir.effects i.Mir.opcode in
            if eff.Mir.is_movable && (not eff.Mir.is_guard) && eff.Mir.reads = [] then begin
              let u = code / nb in
              attached.(u) <- i :: attached.(u);
              user.(i.Mir.iid) <- sunk;
              any := true
            end
          end)
        b.Mir.body;
      if !any then
        b.Mir.body <-
          List.fold_right
            (fun (x : Mir.instr) acc -> if user.(x.Mir.iid) = sunk then acc else place x acc)
            b.Mir.body [])
    g.Mir.blocks

let pass : Pass.t = { Pass.name = "reordering"; can_disable = true; run }
