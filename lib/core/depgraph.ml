module Snapshot = Jitbull_mir.Snapshot
module Intern = Jitbull_util.Intern
module Ints = Hashtbl.Make (struct
  include Int

  (* inline multiplicative hash: mixes the high slots of a packed key into
     the low bits Hashtbl indexes by *)
  let hash k = (k * 0x1E3779B97F4A7C15) lsr 17
end)
module Strings = Hashtbl.Make (String)

(* The process-wide dense opcode index: lookups read a frozen table without
   a lock; a new opcode (MIR has a few dozen) publishes an extended copy.
   Each name is interned once, when it is first indexed. *)
let opcodes = Atomic.make (Strings.create 64, [||])
let grow = Mutex.create ()

let opcode_index s =
  match Strings.find_opt (fst (Atomic.get opcodes)) s with
  | Some i -> i
  | None ->
    Mutex.protect grow (fun () ->
        let index, names = Atomic.get opcodes in
        match Strings.find_opt index s with
        | Some i -> i
        | None ->
          let index = Strings.copy index and i = Array.length names in
          if i >= (1 lsl 21) - 1 then failwith "Depgraph: too many distinct opcodes";
          Strings.add index s i;
          Atomic.set opcodes (index, Array.append names [| (s, Intern.intern s) |]);
          i)

let opcode_id i = snd (snd (Atomic.get opcodes)).(i)

type t = {
  ops : int array;
  has_operands : bool array;
  used : bool array;
  dep_start : int array;
  deps : int array;
}

(* Algorithm 1, lines 1–15: for every instruction V with operands, add V
   as a root if absent; each operand V' loses root status and becomes a
   dependency of V. So V is a root iff it has operands and is used by
   none, and in the graph iff it has operands or is used. *)
let build (snapshot : Snapshot.t) : t =
  let entries = Array.of_list snapshot.Snapshot.entries in
  let n = Array.length entries in
  let pos = Ints.create n in
  Array.iteri (fun v (e : Snapshot.entry) -> Ints.replace pos e.Snapshot.num v) entries;
  let count a (e : Snapshot.entry) = a + List.length e.Snapshot.operands in
  let deps = Array.make (Array.fold_left count 0 entries) 0 and dep_start = Array.make (n + 1) 0 in
  let used = Array.make n false in
  Array.iteri
    (fun v (e : Snapshot.entry) ->
      let k = ref dep_start.(v) in
      List.iter
        (fun num ->
          match Ints.find pos num with
          | d ->
            deps.(!k) <- d;
            used.(d) <- true;
            incr k
          | exception Not_found -> ())
        e.Snapshot.operands;
      dep_start.(v + 1) <- !k)
    entries;
  {
    ops = Array.map (fun (e : Snapshot.entry) -> opcode_index e.Snapshot.opcode) entries;
    has_operands = Array.map (fun (e : Snapshot.entry) -> e.Snapshot.operands <> []) entries;
    used;
    dep_start;
    deps;
  }

let size g = Array.length g.ops
let opcode g v = fst (snd (Atomic.get opcodes)).(g.ops.(v))
let is_root g v = g.has_operands.(v) && not g.used.(v)
let positions g = List.init (size g) Fun.id
let roots g = List.filter (is_root g) (positions g)
let node_count g = List.length (List.filter (fun v -> is_root g v || g.used.(v)) (positions g))
let edge_count g = g.dep_start.(size g)
