(* Compact [code] by dropping instructions where [dead.(pc)], in place;
   branch targets are redirected to the next kept instruction at-or-after
   the original target (legal because only no-ops are dropped).
   [new_index] is scratch of at least [n + 1] slots. *)
let compact (f : Lir.func) (dead : bool array) (new_index : int array) =
  let code = f.Lir.code in
  let n = Array.length code in
  (* new_index.(pc) = index of the next kept instruction >= pc *)
  let kept = ref 0 in
  for pc = 0 to n - 1 do
    new_index.(pc) <- !kept;
    if not dead.(pc) then incr kept
  done;
  new_index.(n) <- !kept;
  let j = ref 0 in
  for pc = 0 to n - 1 do
    if not dead.(pc) then begin
      let i = code.(pc) in
      (match i.Lir.kind with
      | Lir.Kgoto -> i.Lir.imm <- new_index.(i.Lir.imm)
      | Lir.Ktest ->
        i.Lir.imm <- new_index.(i.Lir.imm);
        i.Lir.b <- new_index.(i.Lir.b)
      | _ -> ());
      code.(!j) <- i;
      incr j
    end
  done;
  f.Lir.code <- (if !kept = 0 then [||] else Array.sub code 0 !kept)

let run (f : Lir.func) =
  let removed = ref 0 in
  (* pass 1: no-op moves *)
  let n = Array.length f.Lir.code in
  if n > 0 then begin
    let dead = Array.make n false and new_index = Array.make (n + 1) 0 in
    Array.iteri
      (fun pc (i : Lir.inst) ->
        if (match i.Lir.kind with Lir.Kmove -> true | _ -> false) && i.Lir.dst = i.Lir.a
        then begin
          dead.(pc) <- true;
          incr removed
        end)
      f.Lir.code;
    if Array.exists Fun.id dead then compact f dead new_index;
    (* pass 2 (to fixpoint): gotos to the next instruction *)
    let changed = ref true in
    while !changed do
      changed := false;
      let n = Array.length f.Lir.code in
      Array.fill dead 0 n false;
      Array.iteri
        (fun pc (i : Lir.inst) ->
          if (match i.Lir.kind with Lir.Kgoto -> true | _ -> false) && i.Lir.imm = pc + 1
          then begin
            dead.(pc) <- true;
            incr removed;
            changed := true
          end)
        f.Lir.code;
      if !changed then compact f dead new_index
    done
  end;
  !removed
