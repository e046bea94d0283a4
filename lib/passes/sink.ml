(* Sinking / store-to-load forwarding.

   Within a basic block, a [loadelement] of an (array, index) pair whose
   value was just stored is replaced by the stored value. Accesses are
   keyed by the underlying array definition (looking through
   [elements]/[guardarray]) and the index definition. Any other write to
   array state — or a call, which may reach arbitrary user code —
   invalidates the tracked stores.

   CVE-2020-26952 variant: calls do NOT invalidate, and the forwarded
   load's now-unused bounds check is deleted with it ("the replaced access
   no longer needs its check") — so a value is forwarded across a call
   that shrinks the array, leaking stale data without any bailout. This is
   the incorrect scalar-replacement reasoning of the real CVE. *)

module Mir = Jitbull_mir.Mir

let rec origin fw (i : Mir.instr) =
  match (i.Mir.opcode, i.Mir.operands) with
  | (Mir.Elements | Mir.Guard_array | Mir.Unbox_int32 | Mir.Unbox_number | Mir.Bounds_check), x :: _
    ->
    origin fw (Mir.resolve fw x)
  | _ -> i

(* Take [n] from the use count of each (resolved) operand. *)
let drop_uses fw uses n =
  List.iter (fun o ->
      let k = (Mir.resolve fw o).Mir.iid in
      uses.(k) <- uses.(k) - n)

let run (ctx : Pass.ctx) (g : Mir.t) =
  let vulnerable = Vuln_config.is_active ctx.Pass.vulns Vuln_config.CVE_2020_26952 in
  let fw = Mir.forwarding g in
  (* The buggy variant also deletes the check that guarded a forwarded
     load when nothing else uses it. Uses are counted at its first
     forwarded load and kept as loads and checks leave. *)
  let uses =
    lazy
      (let uses = Array.make g.Mir.next_iid 0 in
       Mir.iter_instructions
         (fun i -> if not (Mir.forwarded fw i) then drop_uses fw uses (-1) i.Mir.operands)
         g;
       uses)
  in
  let forward_dropping_check (load : Mir.instr) (v : Mir.instr) =
    let uses = Lazy.force uses in
    Mir.forward fw load v;
    uses.(v.Mir.iid) <- uses.(v.Mir.iid) + uses.(load.Mir.iid);
    drop_uses fw uses 1 load.Mir.operands;
    match Mir.resolved_operands fw load with
    | [ _; ({ Mir.opcode = Mir.Bounds_check; _ } as idx) ] when uses.(idx.Mir.iid) = 0 ->
      (* BUG: the check leaves with the load it guarded *)
      drop_uses fw uses 1 idx.Mir.operands;
      Mir_util.remove_instr g idx
    | _ -> ()
  in
  let available : (int * int, Mir.instr) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (b : Mir.block) ->
      Hashtbl.clear available;
      let key el idx = ((origin fw el).Mir.iid, (origin fw idx).Mir.iid) in
      List.iter
        (fun (i : Mir.instr) ->
          match (i.Mir.opcode, Mir.resolved_operands fw i) with
          | Mir.Store_element, [ el; idx; v ] ->
            Hashtbl.reset available;
            Hashtbl.replace available (key el idx) v
          | Mir.Load_element, [ el; idx ] -> (
            match Hashtbl.find_opt available (key el idx) with
            | Some v -> if vulnerable then forward_dropping_check i v else Mir.forward fw i v
            | None -> ())
          | (Mir.Call _ | Mir.Call_method _), _ ->
            if not vulnerable then Hashtbl.reset available
            (* BUG when vulnerable: stores stay available across the call *)
          | op, _ ->
            if (Mir.effects op).Mir.writes <> [] then Hashtbl.reset available)
        b.Mir.body)
    g.Mir.blocks;
  Mir.forward_uses g fw

let pass : Pass.t = { Pass.name = "sink"; can_disable = true; run }
