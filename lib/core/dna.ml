module Sexpr = Jitbull_util.Sexpr
module Snapshot = Jitbull_mir.Snapshot
module Inttbl = Jitbull_util.Inttbl

type t = {
  func_name : string;
  deltas : (string * Delta.t) list;
}

(* Per-domain scratch: the graphs of a pass's before and after
   snapshots, a dirty flag per position of each, and the signed counts of
   the dirty windows. [extract] borrows it out of its domain's cell, so
   another thread of the domain extracting meanwhile makes its own. *)
type scratch = {
  mutable before : Depgraph.t;
  mutable after : Depgraph.t;
  mutable dirty_before : bool array;
  mutable dirty_after : bool array;
  mutable counts : Inttbl.t;
}

let scratch = Domain.DLS.new_key (fun () -> Atomic.make None)

(* Positions [u] of [a] and [v] of [b] hold one number: the entry is
   clean when its opcode, root status and resolved dependency numbers
   match. A number that starts or stops dangling changes the resolved
   list even where the operand list is the same. *)
let same_entry (a : Depgraph.t) u (b : Depgraph.t) v =
  let i = a.dep_start.(u) and j = b.dep_start.(v) in
  let len = a.dep_start.(u + 1) - i and k = ref 0 in
  a.ops.(u) = b.ops.(v)
  && Depgraph.is_root a u = Depgraph.is_root b v
  && len = b.dep_start.(v + 1) - j
  &&
  (while !k < len && a.nums.(a.deps.(i + !k)) = b.nums.(b.deps.(j + !k)) do
     incr k
   done;
   !k = len)

(* An entry is dirty when the other side has no entry of its number or a
   different one; a number repeated within a snapshot (no MIR snapshot
   has one) makes every entry dirty. Returns whether each side has a
   dirty entry. *)
let mark_dirty s =
  let a = s.before and b = s.after in
  if Array.length s.dirty_before < max a.size b.size then begin
    s.dirty_before <- Array.make (2 * max a.size b.size) false;
    s.dirty_after <- Array.make (2 * max a.size b.size) false
  end;
  let da = s.dirty_before and db = s.dirty_after and all = a.repeated || b.repeated in
  let matched = ref 0 and any_a = ref false and any_b = ref false in
  Array.fill da 0 a.size true;
  for v = 0 to b.size - 1 do
    let u = Depgraph.position a b.nums.(v) in
    db.(v) <- all || u < 0 || not (same_entry a u b v);
    any_b := !any_b || db.(v);
    if u >= 0 then begin
      da.(u) <- db.(v);
      any_a := !any_a || db.(v);
      incr matched
    end
  done;
  (!any_a || !matched < a.size, !any_b)

(* A sub-chain whose window holds no dirty entry is on both sides with
   one key, so Δ is the difference of the dirty windows' counts. A pass
   that grew the count table leaves a fresh one behind: draining visits
   every slot, and most passes count a few dozen keys. *)
let delta ~n ~empty s =
  match mark_dirty s with
  | false, false -> empty
  | any_a, any_b ->
    if any_a then Delta.count_window ~n s.counts s.before s.dirty_before 1;
    if any_b then Delta.count_window ~n s.counts s.after s.dirty_after (-1);
    let d = Delta.of_counts s.counts in
    if Inttbl.capacity s.counts > 256 then s.counts <- Inttbl.create 64;
    d

let extract ?(n = 3) ?(only = fun _ -> true) (trace : (string * Snapshot.t) list) : t =
  if n <> 2 && n <> 3 then invalid_arg "Dna.extract: n must be 2 or 3";
  match trace with
  | [] -> { func_name = "?"; deltas = [] }
  | (_, first) :: rest ->
    let cell = Domain.DLS.get scratch in
    let s =
      match Atomic.exchange cell None with
      | Some s -> s
      | None ->
        let before = Depgraph.create () and after = Depgraph.create () in
        { before; after; dirty_before = [||]; dirty_after = [||]; counts = Inttbl.create 64 }
    in
    (* one empty Δ serves every unchanged pass; [s.before] holds [held] *)
    let empty = Delta.empty () and held = ref None in
    let _, deltas =
      List.fold_left_map
        (fun last (pass, snap) ->
          if snap == last then (last, (pass, empty))
          else if not (only pass) then (snap, (pass, empty))
          else if Snapshot.same_entries snap last then (last, (pass, empty))
          else begin
            (match !held with Some h when h == last -> () | _ -> Depgraph.load s.before last);
            Depgraph.load s.after snap;
            let d = delta ~n ~empty s in
            let g = s.before in
            s.before <- s.after;
            s.after <- g;
            held := Some snap;
            (snap, (pass, d))
          end)
        first rest
    in
    Atomic.set cell (Some s);
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
