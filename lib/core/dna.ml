module Sexpr = Jitbull_util.Sexpr
module Snapshot = Jitbull_mir.Snapshot

type t = {
  func_name : string;
  deltas : (string * Delta.t) list;
}

let extract ?(n = 3) ?(only = fun _ -> true) (trace : (string * Snapshot.t) list) : t =
  if n <> 2 && n <> 3 then invalid_arg "Dna.extract: n must be 2 or 3";
  match trace with
  | [] -> { func_name = "?"; deltas = [] }
  | (_, first) :: rest ->
    let multiset snap = lazy (Delta.multiset ~n (Depgraph.build snap)) in
    (* a pass that left the entries unchanged has an empty Δ, and the
       previous multiset carries forward; a snapshot's multiset is only
       built when a pass in [only] diffs against it *)
    let _, deltas =
      List.fold_left_map
        (fun ((last, m) as prev) (pass, snap) ->
          if Snapshot.same_entries snap last then (prev, (pass, Delta.empty ()))
          else
            let m' = multiset snap in
            let d =
              if only pass then Delta.of_multisets ~before:(Lazy.force m) ~after:(Lazy.force m')
              else Delta.empty ()
            in
            ((snap, m'), (pass, d)))
        (first, multiset first)
        rest
    in
    { func_name = first.Snapshot.func_name; deltas }

let nonempty_passes t =
  List.filter_map
    (fun (name, d) -> if Delta.is_empty d then None else Some name)
    t.deltas

let to_sexpr t =
  Sexpr.list
    [
      Sexpr.atom "dna";
      Sexpr.list [ Sexpr.atom "func"; Sexpr.atom t.func_name ];
      Sexpr.list
        (Sexpr.atom "deltas"
        :: List.map
             (fun (name, d) -> Sexpr.list [ Sexpr.atom name; Delta.to_sexpr d ])
             t.deltas);
    ]

let of_sexpr s =
  let func_name =
    match Sexpr.field "func" s with
    | [ a ] -> Sexpr.to_atom a
    | _ -> raise (Sexpr.Decode_error "dna: bad func field")
  in
  let deltas =
    List.map
      (fun entry ->
        match Sexpr.to_list entry with
        | [ name; d ] -> (Sexpr.to_atom name, Delta.of_sexpr d)
        | _ -> raise (Sexpr.Decode_error "dna: bad delta entry"))
      (Sexpr.field "deltas" s)
  in
  { func_name; deltas }

let to_string t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "dna of %s:\n" t.func_name);
  List.iter
    (fun (name, d) ->
      if not (Delta.is_empty d) then
        Buffer.add_string buf (Printf.sprintf "  %-18s %s\n" name (Delta.to_string d)))
    t.deltas;
  Buffer.contents buf
