(* Type analysis / specialization: removes [tonumber] conversions and
   [unboxnumber] guards on values proven to already be numbers.

   Correct proof: greatest fixpoint — start by assuming every instruction
   numeric, then repeatedly falsify. A phi is numeric only if all its
   operands (including loop-carried ones) stay numeric.

   CVE-2019-9791 variant: the phi rule only consults the first (forward)
   operand, so a loop that starts with a number but later assigns another
   type keeps its "numeric" classification, and the unbox guard protecting
   downstream arithmetic is removed. At runtime, JITed arithmetic then
   reinterprets the raw value (e.g. an array handle as its heap address) —
   the type-confusion information leak of the real CVE. *)

module Mir = Jitbull_mir.Mir
module Value = Jitbull_runtime.Value

let produces_number (op : Mir.opcode) =
  match op with
  | Mir.Constant (Value.Number _) -> true
  | Mir.Bin_num _ | Mir.Negate | Mir.Bit_not | Mir.To_number | Mir.Unbox_number
  | Mir.Unbox_int32 | Mir.Bounds_check | Mir.Array_length | Mir.Initialized_length
  | Mir.Array_push ->
    true
  | _ -> false

let run (ctx : Pass.ctx) (g : Mir.t) =
  let vulnerable = Vuln_config.is_active ctx.Pass.vulns Vuln_config.CVE_2019_9791 in
  (* by iid; an instruction outside the graph is not numeric *)
  let numeric = Array.make g.Mir.next_iid false in
  let instrs = Mir.all_instructions g in
  List.iter (fun (i : Mir.instr) -> numeric.(i.Mir.iid) <- true) instrs;
  let is_numeric (i : Mir.instr) = numeric.(i.Mir.iid) in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (i : Mir.instr) ->
        if is_numeric i then begin
          let still =
            match i.Mir.opcode with
            | Mir.Phi ->
              if vulnerable then
                (* BUG: trusts the first (forward-edge) operand only *)
                (match i.Mir.operands with
                | first :: _ -> is_numeric first
                | [] -> false)
              else List.for_all is_numeric i.Mir.operands
            | op -> produces_number op
          in
          if not still then begin
            numeric.(i.Mir.iid) <- false;
            changed := true
          end
        end)
      instrs
  done;
  (* To_number/Unbox_number over proven numbers are identities *)
  let fw = Mir.forwarding g in
  List.iter
    (fun (i : Mir.instr) ->
      match (i.Mir.opcode, i.Mir.operands) with
      | (Mir.To_number | Mir.Unbox_number), [ x ] ->
        let x = Mir.resolve fw x in
        if is_numeric x then Mir.forward fw i x
      | _ -> ())
    instrs;
  Mir.forward_uses g fw

let pass : Pass.t = { Pass.name = "applytypes"; can_disable = true; run }
