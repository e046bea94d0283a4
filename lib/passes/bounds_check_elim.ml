(* Bounds-check elimination.

   A [boundscheck(i, len)] is removed when
   (a) range analysis proves [i >= 0], and
   (b) a dominating [test] took the true branch of [compare_lt(i, len)]
       with {e the same} index and length definitions, so the check cannot
       fail (the length definition being the same SSA instruction means no
       intervening mutation was possible).

   CVE-2019-11707 variant: condition (b) accepts {e any} length load of
   the same array — ignoring that the length may have been mutated
   (pop / shrink) between the compare and the access, the incorrect
   range/bounds reasoning class of the real CVE. *)

module Mir = Jitbull_mir.Mir
module Domtree = Jitbull_mir.Domtree

(* The array instruction a length load observes: initializedlength goes
   through elements. Operands are read through the forwarding table. *)
let array_of_length_load fw (len : Mir.instr) =
  match (len.Mir.opcode, len.Mir.operands) with
  | Mir.Array_length, [ arr ] -> Some (Mir.resolve fw arr)
  | Mir.Initialized_length, [ el ] -> (
    let el = Mir.resolve fw el in
    match (el.Mir.opcode, el.Mir.operands) with
    | Mir.Elements, [ arr ] -> Some (Mir.resolve fw arr)
    | _ -> None)
  | _ -> None

let run (ctx : Pass.ctx) (g : Mir.t) =
  let vulnerable = Vuln_config.is_active ctx.Pass.vulns Vuln_config.CVE_2019_11707 in
  let nonneg (i : Mir.instr) =
    match ctx.Pass.nonneg with
    | Some proven -> i.Mir.iid < Array.length proven && proven.(i.Mir.iid)
    | None -> false
  in
  let dom = Domtree.compute g in
  let fw = Mir.forwarding g in
  (* (condition instr, true successor) of every test *)
  let guards =
    List.filter_map
      (fun (b : Mir.block) ->
        match Mir.control_instr b with
        | Some { Mir.opcode = Mir.Test (t, _); operands = [ cond ]; _ } -> Some (cond, t)
        | _ -> None)
      g.Mir.blocks
  in
  (* strip unbox/tonumber wrappers when matching index operands *)
  let rec strip (i : Mir.instr) =
    match (i.Mir.opcode, i.Mir.operands) with
    | (Mir.Unbox_int32 | Mir.Unbox_number | Mir.To_number | Mir.Bounds_check), x :: _ ->
      strip (Mir.resolve fw x)
    | _ -> i
  in
  let proves_in_bounds (chk_block : Mir.block) (idx : Mir.instr) (len : Mir.instr) =
    List.exists
      (fun ((cond : Mir.instr), (true_succ : Mir.block)) ->
        match (cond.Mir.opcode, Mir.resolved_operands fw cond) with
        | Mir.Compare Mir.CLt, [ ci; cl ] ->
          let idx_matches = strip ci == strip idx in
          let len_matches =
            if vulnerable then
              (* BUG: any length load of the same array counts as proof *)
              match (array_of_length_load fw cl, array_of_length_load fw len) with
              | Some a1, Some a2 -> strip a1 == strip a2
              | _ -> cl == len
            else cl == len
          in
          idx_matches && len_matches && Domtree.dominates dom true_succ chk_block
        | _ -> false)
      guards
  in
  List.iter
    (fun (b : Mir.block) ->
      List.iter
        (fun (i : Mir.instr) ->
          match (i.Mir.opcode, Mir.resolved_operands fw i) with
          | Mir.Bounds_check, [ idx; len ] when nonneg idx && proves_in_bounds b idx len ->
            Mir.forward fw i idx
          | _ -> ())
        b.Mir.body)
    g.Mir.blocks;
  Mir.forward_uses g fw

let pass : Pass.t = { Pass.name = "boundscheckelim"; can_disable = true; run }
