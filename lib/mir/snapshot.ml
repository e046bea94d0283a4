module Strings = Hashtbl.Make (String)

type t = {
  func_name : string;
  n_blocks : int;
  nums : int array;
  ops : int array;
  operand_start : int array;
  operands : int array;
}

(* The process-wide dense opcode index, seeded with [Mir.opcode_names] so
   that a MIR opcode's dense id is its [Mir.opcode_tag]. Lookups read a
   frozen table without a lock; a name outside MIR (hand-built snapshots)
   publishes an extended copy. *)
let opcodes =
  let index = Strings.create 64 in
  Array.iteri (fun i s -> Strings.add index s i) Mir.opcode_names;
  Atomic.make (index, Mir.opcode_names)

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
          if i >= (1 lsl 20) - 1 then failwith "Snapshot: too many distinct opcodes";
          Strings.add index s i;
          Atomic.set opcodes (index, Array.append names [| s |]);
          i)

let opcode_name i = (snd (Atomic.get opcodes)).(i)

let take (g : Mir.t) : t =
  (* one walk to size the arrays, one to fill them *)
  let rec count n m = function
    | [] -> (n, m)
    | (i : Mir.instr) :: rest -> count (n + 1) (m + List.length i.Mir.operands) rest
  in
  let rec count_blocks n_blocks n m = function
    | [] -> (n_blocks, n, m)
    | (b : Mir.block) :: rest ->
      let n, m = count n m b.Mir.phis in
      let n, m = count n m b.Mir.body in
      count_blocks (n_blocks + 1) n m rest
  in
  let n_blocks, n, m = count_blocks 0 0 0 g.Mir.blocks in
  let nums = Array.make n 0 and ops = Array.make n 0 in
  let operand_start = Array.make (n + 1) 0 and operands = Array.make m 0 in
  let rec add j = function
    | [] -> j
    | (o : Mir.instr) :: rest ->
      operands.(j) <- o.Mir.num;
      add (j + 1) rest
  in
  let rec fill k = function
    | [] -> k
    | (i : Mir.instr) :: rest ->
      nums.(k) <- i.Mir.num;
      ops.(k) <- Mir.opcode_tag i.Mir.opcode;
      operand_start.(k + 1) <- add operand_start.(k) i.Mir.operands;
      fill (k + 1) rest
  in
  List.fold_left (fun k (b : Mir.block) -> fill (fill k b.Mir.phis) b.Mir.body) 0 g.Mir.blocks
  |> ignore;
  { func_name = g.Mir.name; n_blocks; nums; ops; operand_start; operands }

(* [matches t g] walks [g] as [take] would and compares as it goes,
   allocating nothing: [match_instrs] returns the entry count reached, or
   -1 at the first difference *)
let rec match_operands t j stop = function
  | [] -> j = stop
  | (o : Mir.instr) :: rest ->
    j < stop && t.operands.(j) = o.Mir.num && match_operands t (j + 1) stop rest

let rec match_instrs t k = function
  | [] -> k
  | (i : Mir.instr) :: rest ->
    if
      k < Array.length t.nums
      && t.nums.(k) = i.Mir.num
      && t.ops.(k) = Mir.opcode_tag i.Mir.opcode
      && match_operands t t.operand_start.(k) t.operand_start.(k + 1) i.Mir.operands
    then match_instrs t (k + 1) rest
    else -1

let rec match_blocks t n_blocks k = function
  | [] -> n_blocks = t.n_blocks && k = Array.length t.nums
  | (b : Mir.block) :: rest ->
    let k = match_instrs t k b.Mir.phis in
    k >= 0
    &&
    let k = match_instrs t k b.Mir.body in
    k >= 0 && match_blocks t (n_blocks + 1) k rest

let matches t (g : Mir.t) = String.equal t.func_name g.Mir.name && match_blocks t 0 0 g.Mir.blocks

let make ~func_name ~n_blocks entries =
  let nums = Array.of_list (List.map (fun (num, _, _) -> num) entries) in
  let ops = Array.of_list (List.map (fun (_, opcode, _) -> opcode_index opcode) entries) in
  let operands = Array.of_list (List.concat_map (fun (_, _, o) -> o) entries) in
  let operand_start = Array.make (Array.length nums + 1) 0 in
  List.iteri
    (fun k (_, _, o) -> operand_start.(k + 1) <- operand_start.(k) + List.length o)
    entries;
  { func_name; n_blocks; nums; ops; operand_start; operands }

let entry_count t = Array.length t.nums

let entries t =
  List.init (entry_count t) (fun k ->
      let first = t.operand_start.(k) in
      ( t.nums.(k),
        opcode_name t.ops.(k),
        List.init (t.operand_start.(k + 1) - first) (fun j -> t.operands.(first + j)) ))

let same_entries a b =
  a.nums = b.nums && a.ops = b.ops && a.operand_start = b.operand_start && a.operands = b.operands

let to_string t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "snapshot %s\n" t.func_name);
  List.iter
    (fun (num, opcode, operands) ->
      Buffer.add_string buf
        (Printf.sprintf "%d %s %s\n" num opcode
           (String.concat " " (List.map string_of_int operands))))
    (entries t);
  Buffer.contents buf
