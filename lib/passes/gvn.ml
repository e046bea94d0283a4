(* Global value numbering, dominance-based.

   Movable instructions (and guards) congruent to an earlier dominating
   instruction are replaced by it. Congruence means: same opcode key, same
   operands, and — for loads — the same alias dependency token, i.e. the
   same observed memory state.

   CVE-2019-17026 variant: the dependency computation treats
   [setarraylength] as writing nothing, so length loads before and after
   an [a.length = n] shrink get the same token and the later bounds check
   is judged redundant and eliminated — the exact mechanism of the real
   CVE (GVN removing a BoundsCheck after an incorrect dependency
   analysis).

   CVE-2019-9810 variant: same omission for [arraypush] (which can
   reallocate storage and grow the length), the paper noting that 9810 and
   17026 share a root cause. *)

module Mir = Jitbull_mir.Mir
module Domtree = Jitbull_mir.Domtree

type key = {
  tag : int;
  payload : Mir_util.payload;
  operands : int list;
  combo : int;
  loop : int;
}

module Key_table = Hashtbl.Make (struct
  type t = key

  let equal a b =
    a.tag = b.tag && a.combo = b.combo && a.loop = b.loop
    && List.equal Int.equal a.operands b.operands
    && Mir_util.equal_payload a.payload b.payload

  let hash k =
    List.fold_left
      (fun h o -> (h * 31) + o)
      ((((k.tag * 31) + Mir_util.hash_payload k.payload) * 31) + (k.combo * 7) + k.loop)
      k.operands
    land max_int
end)

let run (ctx : Pass.ctx) (g : Mir.t) =
  let vulns = ctx.Pass.vulns in
  (* CVE-2019-9810 and CVE-2019-17026 share the root bug (paper §III-B);
     either activates the broken dependency computation *)
  let ignore_setlength =
    Vuln_config.is_active vulns Vuln_config.CVE_2019_17026
    || Vuln_config.is_active vulns Vuln_config.CVE_2019_9810
  in
  let clobbers op =
    match op with
    | Mir.Set_array_length when ignore_setlength -> 0  (* BUG *)
    | _ -> Mir_util.default_clobbers op
  in
  let dom = Domtree.compute g in
  let deps = Mir_util.compute_load_deps ~clobbers ~dom g in
  let fw = Mir.forwarding g in
  (* congruence key: opcode tag, payload (see {!Mir_util.payload}),
     resolved operand iids and the load dependency token (-1, -1 when the
     instruction is not a load) *)
  let table : Mir.instr list Key_table.t = Key_table.create 64 in
  let key (i : Mir.instr) =
    {
      tag = Mir.opcode_tag i.Mir.opcode;
      payload = Mir_util.payload i.Mir.opcode;
      operands = List.map (fun o -> (Mir.resolve fw o).Mir.iid) i.Mir.operands;
      combo = deps.Mir_util.combo.(i.Mir.iid);
      loop = deps.Mir_util.loop.(i.Mir.iid);
    }
  in
  let eligible (i : Mir.instr) =
    match i.Mir.opcode with
    | Mir.Phi -> false
    | Mir.Constant _ -> true
    | op ->
      let eff = Mir.effects op in
      eff.Mir.is_movable && not eff.Mir.is_control
  in
  (* the first candidate dominating [i] in block [b]; the walk is in
     block order, so a candidate of [b] itself precedes [i] *)
  let rec dominating (b : Mir.block) i = function
    | [] -> None
    | (r : Mir.instr) :: rest ->
      if r.Mir.in_block = b.Mir.bid || Domtree.instr_dominates dom r b ~use_instr:i then Some r
      else dominating b i rest
  in
  List.iter
    (fun (b : Mir.block) ->
      List.iter
        (fun (i : Mir.instr) ->
          if eligible i then begin
            let k = key i in
            match Key_table.find table k with
            | candidates -> (
              match dominating b i candidates with
              | Some rep -> Mir.forward fw i rep
              | None -> Key_table.replace table k (i :: candidates))
            | exception Not_found -> Key_table.add table k [ i ]
          end)
        b.Mir.body)
    g.Mir.blocks;
  Mir.forward_uses g fw

let pass : Pass.t = { Pass.name = "gvn"; can_disable = true; run }
