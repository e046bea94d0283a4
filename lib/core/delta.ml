module Sexpr = Jitbull_util.Sexpr
module Intern = Jitbull_util.Intern

type side = (Intern.id, int) Hashtbl.t

type t = {
  removed : side;
  added : side;
}

let key_of_ngram ng = String.concat "->" ng

(* Multiset of sub-chains of a dependency graph, keyed by interned
   sub-chain ids.
   - n = 2: the edge multiset (identical to enumerating chains and taking
     2-grams, without the path explosion);
   - n = 3 (the default): length-2 walk counts — for every node, one
     sub-chain per (user, dependency) pair. Same keys as path-enumerated
     3-grams but computed in O(Σ degᵢₙ·degₒᵤₜ), which keeps the Δ
     extractor cheap enough for the paper's 1-20% overhead envelope;
   - n ≥ 4: full chain enumeration under the standard caps. *)
let subchain_multiset ~n (g : Depgraph.t) : side =
  let counts = Hashtbl.create 64 in
  let bump ?(by = 1) k =
    Hashtbl.replace counts k (by + Option.value ~default:0 (Hashtbl.find_opt counts k))
  in
  if n = 2 then
    List.iter
      (fun (node : Depgraph.node) ->
        List.iter
          (fun (dep : Depgraph.node) ->
            bump (Intern.pair node.Depgraph.opcode_id dep.Depgraph.opcode_id))
          node.Depgraph.deps)
      g.Depgraph.nodes
  else if n = 3 then begin
    (* users-per-node map *)
    let user_ops : (int, Intern.id list) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun (node : Depgraph.node) ->
        List.iter
          (fun (dep : Depgraph.node) ->
            let cur =
              Option.value ~default:[] (Hashtbl.find_opt user_ops dep.Depgraph.num)
            in
            Hashtbl.replace user_ops dep.Depgraph.num (node.Depgraph.opcode_id :: cur))
          node.Depgraph.deps)
      g.Depgraph.nodes;
    List.iter
      (fun (mid : Depgraph.node) ->
        match Hashtbl.find_opt user_ops mid.Depgraph.num with
        | None -> ()
        | Some users ->
          List.iter
            (fun user_op ->
              List.iter
                (fun (dep : Depgraph.node) ->
                  bump (Intern.triple user_op mid.Depgraph.opcode_id dep.Depgraph.opcode_id))
                mid.Depgraph.deps)
            users)
      g.Depgraph.nodes;
    (* edges whose endpoint is a root or a leaf still carry signal: count
       the boundary 2-grams as well so removals at chain ends (an unused
       guard is a root!) stay visible *)
    List.iter
      (fun (root : Depgraph.node) ->
        List.iter
          (fun (dep : Depgraph.node) ->
            bump (Intern.pair (Intern.rooted root.Depgraph.opcode_id) dep.Depgraph.opcode_id))
          root.Depgraph.deps)
      g.Depgraph.roots
  end
  else
    List.iter
      (fun chain ->
        List.iter (fun ng -> bump (Intern.intern (key_of_ngram ng))) (Chains.ngrams n chain))
      (Chains.extract g);
  counts

let diff (a : side) (b : side) =
  (* multiset difference a − b *)
  let out = Hashtbl.create 16 in
  Hashtbl.iter
    (fun k ca ->
      let cb = Option.value ~default:0 (Hashtbl.find_opt b k) in
      if ca > cb then Hashtbl.replace out k (ca - cb))
    a;
  out

(* [of_multisets] lets callers that walk a whole snapshot trace compute
   each graph's multiset once instead of once per adjacent pair. *)
let of_multisets ~(before : side) ~(after : side) : t =
  { removed = diff before after; added = diff after before }

let compute ?(n = 3) (before : Depgraph.t) (after : Depgraph.t) : t =
  of_multisets ~before:(subchain_multiset ~n before) ~after:(subchain_multiset ~n after)

let is_empty t = Hashtbl.length t.removed = 0 && Hashtbl.length t.added = 0

let total side = Hashtbl.fold (fun _ c acc -> acc + c) side 0

let side_of_list entries : side =
  let tbl = Hashtbl.create (max 8 (List.length entries)) in
  List.iter (fun (k, c) -> Hashtbl.replace tbl (Intern.intern k) c) entries;
  tbl

let find_key (side : side) key = Hashtbl.find_opt side (Intern.intern key)

let mem_key side key = find_key side key <> None

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
