(* Every table is an array indexed by block id, sized [next_bid] at
   [compute]; a block created afterwards is outside the tree. *)
type t = {
  idom : int array;  (* bid → bid of the immediate dominator, -1 = none *)
  rpo_pos : int array;  (* bid → RPO position, -1 = not in the graph *)
  entry_bid : int;
}

let compute (g : Mir.t) : t =
  let rpo = Array.of_list g.Mir.blocks in
  let rpo_pos = Array.make g.Mir.next_bid (-1) in
  Array.iteri (fun i (b : Mir.block) -> rpo_pos.(b.Mir.bid) <- i) rpo;
  let idom = Array.make g.Mir.next_bid (-1) in
  let entry = g.Mir.entry.Mir.bid in
  idom.(entry) <- entry;
  let rec intersect b1 b2 =
    if b1 = b2 then b1
    else if rpo_pos.(b1) > rpo_pos.(b2) then intersect idom.(b1) b2
    else intersect b1 idom.(b2)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun (b : Mir.block) ->
        if b.Mir.bid <> entry then begin
          let new_idom =
            List.fold_left
              (fun acc (p : Mir.block) ->
                if idom.(p.Mir.bid) < 0 then acc
                else if acc < 0 then p.Mir.bid
                else intersect acc p.Mir.bid)
              (-1) b.Mir.preds
          in
          if new_idom >= 0 && idom.(b.Mir.bid) <> new_idom then begin
            idom.(b.Mir.bid) <- new_idom;
            changed := true
          end
        end)
      rpo
  done;
  { idom; rpo_pos; entry_bid = entry }

(* does block [a] dominate block [b], by id *)
let rec dominates_bid t a b =
  b = a
  || b <> t.entry_bid
     && b < Array.length t.idom
     && t.idom.(b) >= 0
     && t.idom.(b) <> b
     && dominates_bid t a t.idom.(b)

let dominates t (a : Mir.block) (b : Mir.block) = a == b || dominates_bid t a.Mir.bid b.Mir.bid

(* Does [a] occur strictly before [c] in [b] (phis first)? False when [c]
   is not in [b]. *)
let precedes (b : Mir.block) a c =
  let rec scan seen in_phis = function
    | x :: rest -> if x == c then seen else scan (seen || x == a) in_phis rest
    | [] -> in_phis && scan seen false b.Mir.body
  in
  scan false true b.Mir.phis

let instr_dominates t (def : Mir.instr) (use_block : Mir.block) ~(use_instr : Mir.instr) =
  let db = def.Mir.in_block in
  if db < 0 || db >= Array.length t.idom || t.rpo_pos.(db) < 0 then false
  else if db = use_block.Mir.bid then precedes use_block def use_instr
  else dominates_bid t db use_block.Mir.bid

let loop_body t (header : Mir.block) =
  let body = Array.make (Array.length t.idom) false in
  body.(header.Mir.bid) <- true;
  (* natural loop: for each back edge latch→header, all blocks reaching the
     latch without passing through the header *)
  let rec mark (b : Mir.block) =
    if not body.(b.Mir.bid) then begin
      body.(b.Mir.bid) <- true;
      List.iter mark b.Mir.preds
    end
  in
  List.iter (fun p -> if dominates t header p then mark p) header.Mir.preds;
  body
