(* Shared helpers for passes: instruction removal and insertion, GVN
   payload keys, alias dependency computation. *)

module Mir = Jitbull_mir.Mir
module Domtree = Jitbull_mir.Domtree
module Value = Jitbull_runtime.Value
module Inttbl = Jitbull_util.Inttbl

(* Remove [i] from its block (body or phi section) at once. The caller
   must have cleared all uses beforehand. *)
let remove_instr (g : Mir.t) (i : Mir.instr) =
  let b = List.find (fun (b : Mir.block) -> b.Mir.bid = i.Mir.in_block) g.Mir.blocks in
  match i.Mir.opcode with
  | Mir.Phi -> b.Mir.phis <- List.filter (fun x -> x != i) b.Mir.phis
  | _ -> b.Mir.body <- List.filter (fun x -> x != i) b.Mir.body

(* Insert [i] immediately before the control instruction of [b]. *)
let insert_before_control (b : Mir.block) (i : Mir.instr) =
  let rec insert = function
    | [ ctrl ] when Mir.is_control ctrl.Mir.opcode -> [ i; ctrl ]
    | [] -> [ i ]
    | x :: rest -> x :: insert rest
  in
  b.Mir.body <- insert b.Mir.body;
  i.Mir.in_block <- b.Mir.bid

(* The static payload of an opcode as GVN keys it, [No_payload] for an
   opcode its tag alone identifies: a number constant keyed on its exact
   bits (so -0 stays apart from 0, and two numbers with one display stay
   apart; every NaN is one key), any other constant on its type name and
   display, a parameter on its index, a global, property or method on its
   name. *)
type payload =
  | No_payload
  | Number_bits of int64
  | Display of string * string
  | Index of int
  | Name of string

let payload (op : Mir.opcode) =
  match op with
  | Mir.Constant (Value.Number f) ->
    Number_bits (Int64.bits_of_float (if Float.is_nan f then nan else f))
  | Mir.Constant v -> Display (Value.type_name v, Value.to_display v)
  | Mir.Parameter n -> Index n
  | Mir.Load_global s | Mir.Store_global s | Mir.Get_prop s | Mir.Set_prop s -> Name s
  | Mir.Call_method (m, _) -> Name m
  | _ -> No_payload

let equal_payload a b =
  match (a, b) with
  | No_payload, No_payload -> true
  | Number_bits x, Number_bits y -> Int64.equal x y
  | Display (t, d), Display (t', d') -> String.equal t t' && String.equal d d'
  | Index x, Index y -> x = y
  | Name x, Name y -> String.equal x y
  | _ -> false

let hash_payload = function
  | No_payload -> 0
  | Number_bits x -> Hashtbl.hash x
  | Display (t, d) -> Hashtbl.hash d + (31 * Hashtbl.hash t)
  | Index x -> x
  | Name x -> Hashtbl.hash x

(* ---- alias dependency tokens ----

   For each load (instruction with a non-empty read set), compute a token
   such that two loads with equal opcode, operands and token observe the
   same memory state:
   - a lightweight memory-SSA version per alias class: every clobbering
     store defines a fresh version (its iid), a join whose incoming
     versions differ gets a fresh phi version, and the header of a loop
     that clobbers the class gets a fresh phi version (the backedge
     carries a different memory state than loop entry). Versions of the
     load's read classes are interned into a single id, so stores in loop
     bodies stay visible to post-loop loads regardless of the block order
     a linearized walk would pick; and
   - the innermost enclosing loop that contains such a store (loads inside
     a clobbering loop must not merge with loads outside it).

   [clobbers op] is the mask ([class_mask]) of the alias classes [op]
   writes; the correct one follows {!Mir.effects}. Vulnerable pass
   variants pass a mask with deliberate omissions — that is the modeled
   bug. *)

let n_classes = 4

let class_index : Mir.alias_class -> int = function
  | Mir.Alias_elements -> 0
  | Mir.Alias_lengths -> 1
  | Mir.Alias_objects -> 2
  | Mir.Alias_globals -> 3

let class_mask classes = List.fold_left (fun m c -> m lor (1 lsl class_index c)) 0 classes

let default_clobbers (op : Mir.opcode) = class_mask (Mir.effects op).Mir.writes

(* Per iid: [combo] interns the load's read-class versions (-1 = not a
   load), [loop] is the header bid of its innermost clobbering loop (-1 =
   none). Loads with equal (combo, loop) see the same memory state. *)
type load_deps = { combo : int array; loop : int array }

let compute_load_deps ~clobbers ~dom (g : Mir.t) : load_deps =
  let rpo = Mir.compute_rpo g in
  let nb = g.Mir.next_bid in
  (* the clobber mask of every instruction, once, and per block their
     union (phis neither read nor write memory, here and below) *)
  let clobber = Array.make g.Mir.next_iid 0 and block_clobber = Array.make nb 0 in
  let mark (b : Mir.block) (i : Mir.instr) =
    clobber.(i.Mir.iid) <- clobbers i.Mir.opcode;
    block_clobber.(b.Mir.bid) <- block_clobber.(b.Mir.bid) lor clobber.(i.Mir.iid)
  in
  List.iter (fun (b : Mir.block) -> List.iter (mark b) b.Mir.body) rpo;
  (* loops in RPO order of their header: header bid, body membership,
     classes stored in the body and body size, one array each *)
  let loops =
    List.filter
      (fun (h : Mir.block) -> List.exists (fun p -> Domtree.dominates dom h p) h.Mir.preds)
      rpo
    |> Array.of_list
  in
  let n_loops = Array.length loops in
  let loop_header = Array.map (fun (h : Mir.block) -> h.Mir.bid) loops in
  let loop_body = Array.map (Domtree.loop_body dom) loops in
  let loop_stored =
    Array.map
      (fun body ->
        List.fold_left
          (fun m (b : Mir.block) -> if body.(b.Mir.bid) then m lor block_clobber.(b.Mir.bid) else m)
          0 rpo)
      loop_body
  in
  let loop_size =
    Array.map (Array.fold_left (fun n member -> if member then n + 1 else n) 0) loop_body
  in
  let header_stored = Array.make nb 0 in
  Array.iteri (fun l h -> header_stored.(h) <- loop_stored.(l)) loop_header;
  (* innermost = smallest body; the first in RPO on a tie *)
  let innermost_clobbering_loop bid reads =
    let best = ref (-1) and best_size = ref max_int in
    for l = 0 to n_loops - 1 do
      if loop_body.(l).(bid) && loop_stored.(l) land reads <> 0 && loop_size.(l) < !best_size
      then begin
        best := loop_header.(l);
        best_size := loop_size.(l)
      end
    done;
    !best
  in
  (* Memory versions per alias class: [local] while a block is walked, its
     exit versions at [bid * n_classes + class] of [out_version]. Initial
     memory is version -1, a clobbering store's version is its iid (>= 0),
     and phi versions are fresh negatives below -1. RPO visits a reducible
     loop's header before any backedge source, so a pred with no recorded
     out-version is a backedge — handled by the clobbering-header rule
     rather than the join rule. A plain linearized walk is not enough
     here: RPO may place a loop's exit block before its body, hiding
     in-loop stores from post-loop loads and letting GVN merge loads
     separated by the loop. *)
  let unrecorded = min_int in
  let out_version = Array.make (nb * n_classes) unrecorded in
  let phi_counter = ref (-2) in
  let fresh_phi () =
    let v = !phi_counter in
    decr phi_counter;
    v
  in
  (* the version vector of a load's read classes, interned one class at
     a time: [id] of a vector's prefix and the next version map to the
     longer prefix's id, so equal vectors (same opcode, hence same read
     set) get equal ids. Versions are iids, -1 or phi versions above
     [phi_counter]'s floor; [extend] packs a (prefix id, version) pair
     into one nonzero int key. *)
  let prefixes = Inttbl.create 64 and n_ids = ref 0 in
  let extend prefix version =
    let k = ((prefix + 1) lsl 32) lor (version land 0xFFFFFFFF) in
    match Inttbl.find prefixes k with
    | 0 ->
      incr n_ids;
      Inttbl.replace prefixes k !n_ids;
      !n_ids
    | id -> id
  in
  let deps = { combo = Array.make g.Mir.next_iid (-1); loop = Array.make g.Mir.next_iid (-1) } in
  let local = Array.make n_classes 0 in
  let rec combo id = function
    | [] -> id
    | cls :: rest -> combo (extend id local.(class_index cls)) rest
  in
  let step (b : Mir.block) (i : Mir.instr) =
    (match (Mir.effects i.Mir.opcode).Mir.reads with
    | [] -> ()
    | reads ->
      deps.combo.(i.Mir.iid) <- combo 0 reads;
      deps.loop.(i.Mir.iid) <- innermost_clobbering_loop b.Mir.bid (class_mask reads));
    for k = 0 to n_classes - 1 do
      if clobber.(i.Mir.iid) land (1 lsl k) <> 0 then local.(k) <- i.Mir.iid
    done
  in
  List.iter
    (fun (b : Mir.block) ->
      for k = 0 to n_classes - 1 do
        let rec join v = function
          | [] -> if v = unrecorded then -1 else v
          | (p : Mir.block) :: rest ->
            let o = out_version.((p.Mir.bid * n_classes) + k) in
            if o = unrecorded || o = v then join v rest
            else if v = unrecorded then join o rest
            else fresh_phi ()
        in
        local.(k) <-
          (if header_stored.(b.Mir.bid) land (1 lsl k) <> 0 then fresh_phi ()
           else join unrecorded b.Mir.preds)
      done;
      List.iter (step b) b.Mir.body;
      Array.blit local 0 out_version (b.Mir.bid * n_classes) n_classes)
    rpo;
  deps
