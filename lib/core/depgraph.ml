module Snapshot = Jitbull_mir.Snapshot

type t = {
  ops : int array;
  operand_start : int array;
  used : bool array;
  dep_start : int array;
  deps : int array;
}

(* Per-domain number → position scratch, grown on demand and never
   cleared: a slot is trusted only when the position it holds points back
   at an entry with that number (the sparse-set check), so slots left by
   earlier builds cannot alias. [build] borrows the array out of its
   domain's cell, so another thread of the domain building meanwhile
   finds the cell empty and uses an array of its own. *)
let scratch = Domain.DLS.new_key (fun () -> Atomic.make [||])

(* Algorithm 1, lines 1–15: for every instruction V with operands, add V
   as a root if absent; each operand V' loses root status and becomes a
   dependency of V. So V is a root iff it has operands and is used by
   none, and in the graph iff it has operands or is used. *)
let build (s : Snapshot.t) : t =
  let nums = s.Snapshot.nums and operand_start = s.Snapshot.operand_start in
  let n = Array.length nums in
  let max_num =
    Array.fold_left
      (fun m num -> if num < 0 then invalid_arg "Depgraph.build: negative number" else max m num)
      (-1) nums
  in
  let cell = Domain.DLS.get scratch in
  let pos = Atomic.exchange cell [||] in
  let pos =
    if Array.length pos > max_num then pos
    else Array.make (max (max_num + 1) (2 * Array.length pos)) 0
  in
  for v = 0 to n - 1 do
    pos.(nums.(v)) <- v
  done;
  let operands = s.Snapshot.operands in
  let deps = Array.make (Array.length operands) 0 and dep_start = Array.make (n + 1) 0 in
  let used = Array.make n false in
  let k = ref 0 in
  for v = 0 to n - 1 do
    for j = operand_start.(v) to operand_start.(v + 1) - 1 do
      let num = operands.(j) in
      if num >= 0 && num <= max_num then begin
        let d = pos.(num) in
        if d < n && nums.(d) = num then begin
          deps.(!k) <- d;
          used.(d) <- true;
          incr k
        end
      end
    done;
    dep_start.(v + 1) <- !k
  done;
  Atomic.set cell pos;
  { ops = s.Snapshot.ops; operand_start; used; dep_start; deps }

let size g = Array.length g.ops
let opcode g v = Snapshot.opcode_name g.ops.(v)
let is_root g v = g.operand_start.(v + 1) > g.operand_start.(v) && not g.used.(v)
let positions g = List.init (size g) Fun.id
let roots g = List.filter (is_root g) (positions g)
let node_count g = List.length (List.filter (fun v -> is_root g v || g.used.(v)) (positions g))
let edge_count g = g.dep_start.(size g)
