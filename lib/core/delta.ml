module Sexpr = Jitbull_util.Sexpr
module Intern = Jitbull_util.Intern
module Inttbl = Jitbull_util.Inttbl
module Snapshot = Jitbull_mir.Snapshot

type key = int
type side = (key, int) Hashtbl.t

type t = {
  removed : side;
  added : side;
}

(* A sub-chain key packs three 21-bit slots of dense opcode id + 1, where
   0 marks an absent slot — a→b is (0, a, b), the root-boundary ^a→b is
   (a, 0, b) and a→b→c is (a, b, c). Dense ids stay below 2^20 - 1
   ({!Snapshot.opcode_index}), so a packed key is positive; a string of
   any other shape takes the negative key [-(Intern id) - 1]. *)
let pack a b c = (a lsl 42) lor (b lsl 21) lor c
let slot k s = (k lsr (21 * s)) land 0x1FFFFF

(* the pieces of [s] between its "->"s, left to right *)
let split_arrows s =
  let n = String.length s in
  let rec go start i acc =
    if i + 1 >= n then List.rev (String.sub s start (n - start) :: acc)
    else if s.[i] = '-' && s.[i + 1] = '>' then
      go (i + 2) (i + 2) (String.sub s start (i - start) :: acc)
    else go start (i + 1) acc
  in
  go 0 0 []

let key_of_string s =
  let rooted = s <> "" && s.[0] = '^' in
  let names = split_arrows (if rooted then String.sub s 1 (String.length s - 1) else s) in
  let op name = Snapshot.opcode_index name + 1 in
  match names with
  | _ when List.exists (fun name -> name = "" || name.[0] = '^') names -> -Intern.intern s - 1
  | [ a; b ] -> if rooted then pack (op a) 0 (op b) else pack 0 (op a) (op b)
  | [ a; b; c ] when not rooted -> pack (op a) (op b) (op c)
  | _ -> -Intern.intern s - 1

let key_to_string k =
  if k < 0 then Intern.to_string (-k - 1)
  else
    let name s = Snapshot.opcode_name (slot k s - 1) in
    if slot k 2 = 0 then name 1 ^ "->" ^ name 0
    else if slot k 1 = 0 then "^" ^ name 2 ^ "->" ^ name 0
    else String.concat "->" [ name 2; name 1; name 0 ]

(* Sub-chains (a key per instance):
   - n = 2: every dependency edge u→d (the 2-grams of every root→leaf
     chain);
   - n = 3: every length-2 walk u→m→d, plus each edge out of a root as a
     root-boundary pair ^u→d so removals at chain ends (an unused guard
     is a root!) stay visible. Same keys as the 3-grams of every
     root→leaf chain.
   Walking the instances hashes nothing; only an instance whose window
   holds a dirty position is counted. *)
let count_window ~n counts (g : Depgraph.t) dirty sign =
  if n <> 2 && n <> 3 then invalid_arg "Delta.count_window: n must be 2 or 3";
  let ops = g.Depgraph.ops and deps = g.Depgraph.deps and dep_start = g.Depgraph.dep_start in
  for u = 0 to g.Depgraph.size - 1 do
    let du = dirty.(u) in
    for i = dep_start.(u) to dep_start.(u + 1) - 1 do
      let d = deps.(i) in
      let ud = du || dirty.(d) in
      if n = 2 then begin
        if ud then Inttbl.add counts (pack 0 (ops.(u) + 1) (ops.(d) + 1)) sign
      end
      else begin
        if ud && Depgraph.is_root g u then
          Inttbl.add counts (pack (ops.(u) + 1) 0 (ops.(d) + 1)) sign;
        for j = dep_start.(d) to dep_start.(d + 1) - 1 do
          let e = deps.(j) in
          if ud || dirty.(e) then
            Inttbl.add counts (pack (ops.(u) + 1) (ops.(d) + 1) (ops.(e) + 1)) sign
        done
      end
    done
  done

let of_counts counts =
  let removed = Hashtbl.create 16 and added = Hashtbl.create 16 in
  Inttbl.drain
    (fun k c ->
      if c > 0 then Hashtbl.add removed k c else if c < 0 then Hashtbl.add added k (-c))
    counts;
  { removed; added }

let empty () = { removed = Hashtbl.create 1; added = Hashtbl.create 1 }

let is_empty t = Hashtbl.length t.removed = 0 && Hashtbl.length t.added = 0

let total side = Hashtbl.fold (fun _ c acc -> acc + c) side 0

let side_of_list entries : side =
  let tbl = Hashtbl.create (max 8 (List.length entries)) in
  List.iter (fun (k, c) -> Hashtbl.replace tbl (key_of_string k) c) entries;
  tbl

(* serialization: (delta (removed (<key> <count>) ...) (added ...)) —
   keys are written as strings, sorted, so the on-disk format does not
   depend on the in-memory keys *)

let side_to_sexpr name side =
  let entries =
    Hashtbl.fold (fun k c acc -> (key_to_string k, c) :: acc) side []
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
        Hashtbl.replace tbl (key_of_string (Sexpr.to_atom k)) c
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
    Hashtbl.fold (fun k c acc -> Printf.sprintf "%s x%d" (key_to_string k) c :: acc) side []
    |> List.sort String.compare |> String.concat ", "
  in
  Printf.sprintf "removed={%s} added={%s}" (fmt t.removed) (fmt t.added)
