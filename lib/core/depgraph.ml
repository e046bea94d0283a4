module Snapshot = Jitbull_mir.Snapshot

type t = {
  mutable size : int;
  mutable nums : int array;
  mutable ops : int array;
  mutable operand_start : int array;
  mutable pos : int array;
  mutable used : bool array;
  mutable dep_start : int array;
  mutable deps : int array;
  mutable repeated : bool;
}

let create () =
  {
    size = 0;
    nums = [||];
    ops = [||];
    operand_start = [| 0 |];
    pos = [||];
    used = [||];
    dep_start = [| 0 |];
    deps = [||];
    repeated = false;
  }

(* [pos] maps a number to a position. It is never cleared: a slot is
   trusted only when the position it holds points back at an entry with
   that number (the sparse-set check), so slots left by earlier loads
   cannot alias. *)
let[@inline] position g num =
  if num < 0 || num >= Array.length g.pos then -1
  else
    let p = g.pos.(num) in
    if p < g.size && g.nums.(p) = num then p else -1

(* Algorithm 1, lines 1–15: for every instruction V with operands, add V
   as a root if absent; each operand V' loses root status and becomes a
   dependency of V. So V is a root iff it has operands and is used by
   none, and in the graph iff it has operands or is used. *)
let load g (s : Snapshot.t) =
  let nums = s.Snapshot.nums and operand_start = s.Snapshot.operand_start in
  let n = Array.length nums and operands = s.Snapshot.operands in
  if Array.length g.used < n then begin
    g.used <- Array.make (max n (2 * Array.length g.used)) false;
    g.dep_start <- Array.make (Array.length g.used + 1) 0
  end;
  if Array.length g.deps < Array.length operands then
    g.deps <- Array.make (max (Array.length operands) (2 * Array.length g.deps)) 0;
  g.size <- n;
  g.nums <- nums;
  g.ops <- s.Snapshot.ops;
  g.operand_start <- operand_start;
  g.repeated <- false;
  let used = g.used and deps = g.deps and dep_start = g.dep_start in
  for v = 0 to n - 1 do
    let num = nums.(v) in
    if num < 0 then invalid_arg "Depgraph.load: negative number";
    if num >= Array.length g.pos then begin
      let pos = Array.make (max (num + 1) (2 * Array.length g.pos)) 0 in
      Array.blit g.pos 0 pos 0 (Array.length g.pos);
      g.pos <- pos
    end;
    let p = g.pos.(num) in
    if p < v && nums.(p) = num then g.repeated <- true;
    g.pos.(num) <- v;
    used.(v) <- false
  done;
  let k = ref 0 in
  for v = 0 to n - 1 do
    for j = operand_start.(v) to operand_start.(v + 1) - 1 do
      let d = position g operands.(j) in
      if d >= 0 then begin
        deps.(!k) <- d;
        used.(d) <- true;
        incr k
      end
    done;
    dep_start.(v + 1) <- !k
  done

let build s =
  let g = create () in
  load g s;
  g

let is_root g v = g.operand_start.(v + 1) > g.operand_start.(v) && not g.used.(v)
