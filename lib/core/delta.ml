module Sexpr = Jitbull_util.Sexpr
module Intern = Jitbull_util.Intern
module Snapshot = Jitbull_mir.Snapshot

type side = (Intern.id, int) Hashtbl.t

type t = {
  removed : side;
  added : side;
}

(* Sub-chains are counted under packed integer keys: three 21-bit slots
   of dense opcode id + 1, where 0 marks an absent slot — a→b is
   (0, a, b), the root-boundary ^a→b is (a, 0, b) and a→b→c is (a, b, c).
   Only the keys that survive a diff become {!Intern} ids. *)
let pack a b c = (a lsl 42) lor (b lsl 21) lor c
let slot k s = (k lsr (21 * s)) land 0x1FFFFF

let key_id k =
  let id s = Snapshot.opcode_id (slot k s - 1) in
  if slot k 2 = 0 then Intern.pair (id 1) (id 0)
  else if slot k 1 = 0 then Intern.pair (Intern.rooted (id 2)) (id 0)
  else Intern.triple (id 2) (id 1) (id 0)

(* A multiset of packed keys: one open-addressing table, linear probing,
   at most half full. A key's low slot is never 0, so 0 marks a free
   slot. *)
type multiset = {
  mutable keys : int array;
  mutable counts : int array;
  mutable size : int;
}

(* inline multiplicative hash: mixes the high slots of a packed key into
   the low bits the table indexes by *)
let find_slot keys k =
  let mask = Array.length keys - 1 in
  let rec probe i =
    let k' = keys.(i) in
    if k' = k || k' = 0 then i else probe ((i + 1) land mask)
  in
  probe (((k * 0x1E3779B97F4A7C15) lsr 17) land mask)

let count m k =
  let i = find_slot m.keys k in
  if m.keys.(i) = k then m.counts.(i) else 0

let rec bump m k =
  let i = find_slot m.keys k in
  if m.keys.(i) = k then m.counts.(i) <- m.counts.(i) + 1
  else if 2 * (m.size + 1) > Array.length m.keys then begin
    let keys = m.keys and counts = m.counts in
    m.keys <- Array.make (2 * Array.length keys) 0;
    m.counts <- Array.make (2 * Array.length keys) 0;
    Array.iteri
      (fun j k' ->
        if k' <> 0 then begin
          let i = find_slot m.keys k' in
          m.keys.(i) <- k';
          m.counts.(i) <- counts.(j)
        end)
      keys;
    bump m k
  end
  else begin
    m.keys.(i) <- k;
    m.counts.(i) <- 1;
    m.size <- m.size + 1
  end

(* Multiset of sub-chains of a dependency graph:
   - n = 2: the edge multiset (the 2-grams of every root→leaf chain);
   - n = 3 (the default): every length-2 walk u→m→d, plus each edge out
     of a root as a root-boundary pair so removals at chain ends (an
     unused guard is a root!) stay visible. Same keys as the 3-grams of
     every root→leaf chain, computed in O(Σ degᵢₙ·degₒᵤₜ). *)
let multiset ~n (g : Depgraph.t) =
  if n <> 2 && n <> 3 then invalid_arg "Delta.multiset: n must be 2 or 3";
  let capacity = ref 16 in
  while !capacity < 2 * Depgraph.edge_count g do
    capacity := 2 * !capacity
  done;
  let m = { keys = Array.make !capacity 0; counts = Array.make !capacity 0; size = 0 } in
  let op v = g.Depgraph.ops.(v) + 1 and first v = g.Depgraph.dep_start.(v) in
  let last v = g.Depgraph.dep_start.(v + 1) - 1 and deps = g.Depgraph.deps in
  for u = 0 to Depgraph.size g - 1 do
    for i = first u to last u do
      let d = deps.(i) in
      if n = 2 then bump m (pack 0 (op u) (op d))
      else begin
        if Depgraph.is_root g u then bump m (pack (op u) 0 (op d));
        for j = first d to last d do
          bump m (pack (op u) (op d) (op deps.(j)))
        done
      end
    done
  done;
  m

(* multiset difference a − b, keyed by interned sub-chain ids *)
let diff a b : side =
  let out = Hashtbl.create 16 in
  Array.iteri
    (fun i k ->
      if k <> 0 then begin
        let c = a.counts.(i) - count b k in
        if c > 0 then Hashtbl.replace out (key_id k) c
      end)
    a.keys;
  out

let of_multisets ~before ~after = { removed = diff before after; added = diff after before }

let empty () = { removed = Hashtbl.create 1; added = Hashtbl.create 1 }

let is_empty t = Hashtbl.length t.removed = 0 && Hashtbl.length t.added = 0

let total side = Hashtbl.fold (fun _ c acc -> acc + c) side 0

let side_of_list entries : side =
  let tbl = Hashtbl.create (max 8 (List.length entries)) in
  List.iter (fun (k, c) -> Hashtbl.replace tbl (Intern.intern k) c) entries;
  tbl

let mem_key (side : side) key = Hashtbl.mem side (Intern.intern key)

(* serialization: (delta (removed (<key> <count>) ...) (added ...)) —
   keys are written back as strings, so the on-disk format is unchanged
   by the in-memory interning *)

let side_to_sexpr name side =
  let entries =
    Hashtbl.fold (fun k c acc -> (Intern.to_string k, c) :: acc) side []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map (fun (k, c) -> Sexpr.list [ Sexpr.atom k; Sexpr.int c ])
  in
  Sexpr.list (Sexpr.atom name :: entries)

let side_of_sexprs payload : side =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      match Sexpr.to_list s with
      | [ k; c ] ->
        (* [diff] only produces counts >= 1; a lower one from the wire or
           a DB file would subtract from EqChains = Σ min(c, c') *)
        let c = Sexpr.to_int c in
        if c < 1 then raise (Sexpr.Decode_error "delta multiplicity below 1");
        Hashtbl.replace tbl (Intern.intern (Sexpr.to_atom k)) c
      | _ -> raise (Sexpr.Decode_error "bad delta entry"))
    payload;
  tbl

let to_sexpr t =
  Sexpr.list
    [ Sexpr.atom "delta"; side_to_sexpr "removed" t.removed; side_to_sexpr "added" t.added ]

let of_sexpr s =
  let removed = side_of_sexprs (Sexpr.field "removed" s) in
  let added = side_of_sexprs (Sexpr.field "added" s) in
  { removed; added }

let to_string t =
  let fmt side =
    Hashtbl.fold (fun k c acc -> Printf.sprintf "%s x%d" (Intern.to_string k) c :: acc) side []
    |> List.sort String.compare |> String.concat ", "
  in
  Printf.sprintf "removed={%s} added={%s}" (fmt t.removed) (fmt t.added)
