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
  let deps = Mir_util.compute_load_deps ~clobbers g in
  let dom = Domtree.compute g in
  let fw = Mir.forwarding g in
  (* congruence key: opcode tag, payload key (see {!Mir_util.payload_key}),
     resolved operand iids and the load dependency token (-1, -1 when the
     instruction is not a load) *)
  let table : (int * string * int list * int * int, Mir.instr list) Hashtbl.t =
    Hashtbl.create 64
  in
  let key (i : Mir.instr) =
    ( Mir.opcode_tag i.Mir.opcode,
      Mir_util.payload_key i.Mir.opcode,
      List.map (fun o -> (Mir.resolve fw o).Mir.iid) i.Mir.operands,
      deps.Mir_util.combo.(i.Mir.iid),
      deps.Mir_util.loop.(i.Mir.iid) )
  in
  let eligible (i : Mir.instr) =
    match i.Mir.opcode with
    | Mir.Phi -> false
    | Mir.Constant _ -> true
    | op ->
      let eff = Mir.effects op in
      eff.Mir.is_movable && not eff.Mir.is_control
  in
  List.iter
    (fun (b : Mir.block) ->
      List.iter
        (fun (i : Mir.instr) ->
          if eligible i then begin
            let k = key i in
            let candidates = Option.value ~default:[] (Hashtbl.find_opt table k) in
            match
              List.find_opt
                (fun (r : Mir.instr) -> Domtree.instr_dominates dom r b ~use_instr:i)
                candidates
            with
            | Some rep -> Mir.forward fw i rep
            | None -> Hashtbl.replace table k (i :: candidates)
          end)
        b.Mir.body)
    g.Mir.blocks;
  Mir.forward_uses g fw

let pass : Pass.t = { Pass.name = "gvn"; can_disable = true; run }
