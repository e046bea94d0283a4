(* Range analysis (annotation only): proves which instructions always
   yield a non-negative number. Greatest fixpoint: assume everything
   non-negative, falsify until stable. Consumed by bounds-check
   elimination; the IR is untouched, so the pass's Δ is empty. *)

module Mir = Jitbull_mir.Mir
module Value = Jitbull_runtime.Value

let run (ctx : Pass.ctx) (g : Mir.t) =
  (* by iid; an instruction outside the graph is not proven *)
  let nonneg = Array.make g.Mir.next_iid false in
  let instrs = Mir.all_instructions g in
  List.iter (fun (i : Mir.instr) -> nonneg.(i.Mir.iid) <- true) instrs;
  let is_nonneg (i : Mir.instr) = nonneg.(i.Mir.iid) in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (i : Mir.instr) ->
        if is_nonneg i then begin
          let still =
            match (i.Mir.opcode, i.Mir.operands) with
            | Mir.Constant (Value.Number f), _ -> f >= 0.0 && not (Float.is_nan f)
            | Mir.Constant _, _ -> false
            | (Mir.Unbox_int32 | Mir.Unbox_number | Mir.To_number | Mir.Bounds_check), x :: _
              ->
              is_nonneg x
            | Mir.Add, [ a; b ] -> is_nonneg a && is_nonneg b
            | Mir.Bin_num Mir.NMod, [ a; b ] -> is_nonneg a && is_nonneg b
            | Mir.Bin_num Mir.NUshr, _ -> true
            | (Mir.Initialized_length | Mir.Array_length | Mir.Array_push), _ -> true
            | Mir.Phi, ops -> List.for_all is_nonneg ops
            | _ -> false
          in
          if not still then begin
            nonneg.(i.Mir.iid) <- false;
            changed := true
          end
        end)
      instrs
  done;
  ctx.Pass.nonneg <- Some nonneg

let pass : Pass.t = { Pass.name = "rangeanalysis"; can_disable = true; run }
