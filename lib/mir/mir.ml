(* Mid-level intermediate representation (MIR), modeled on IonMonkey's.

   A function is a control-flow graph of basic blocks; each block holds phi
   instructions followed by body instructions in SSA form, the last being
   the unique control instruction. Instructions reference operands
   directly (pointer graph). Every instruction has a stable identity [iid]
   and a display number [num]; the renumber pass rewrites [num]s only, so
   JITBULL's DNA (which works on opcode chains) is insensitive to it —
   exactly the property the paper needs to defeat variable renaming.

   Guards ([BoundsCheck], [UnboxNumber], [UnboxInt32], [GuardArray]) bail
   out to the interpreter tier when their dynamic check fails; eliminating
   a guard does not change the behaviour of well-typed in-bounds programs,
   which is why buggy eliminations survive testing and become CVEs. *)

module Ast = Jitbull_frontend.Ast
module Value = Jitbull_runtime.Value

type num_binop =
  | NSub
  | NMul
  | NDiv
  | NMod
  | NBit_and
  | NBit_or
  | NBit_xor
  | NShl
  | NShr
  | NUshr

type compare_op =
  | CLt
  | CLe
  | CGt
  | CGe
  | CEq
  | CNeq
  | CStrict_eq
  | CStrict_neq

type opcode =
  (* values *)
  | Parameter of int
  | Constant of Value.t
  | Phi
  (* guards: checked speculation; failure = bailout *)
  | Unbox_number  (* operand must be a Number *)
  | Unbox_int32   (* operand must be an integral Number in int32 range *)
  | Guard_array   (* operand must be an Array *)
  | Bounds_check  (* operands: index, length; passes index through *)
  (* arithmetic *)
  | Add           (* generic JS +, concatenates strings *)
  | Bin_num of num_binop  (* numeric-only binop on unboxed operands *)
  | Compare of compare_op
  | Negate
  | Bit_not
  | Not
  | Typeof
  | To_number
  (* arrays *)
  | New_array of int
  | Elements            (* array → elements pointer *)
  | Initialized_length  (* elements → length *)
  | Load_element        (* elements, index → value   (unchecked) *)
  | Store_element       (* elements, index, value    (unchecked) *)
  | Array_length        (* array → length (a.length) *)
  | Set_array_length    (* array, length *)
  | Array_push          (* array, value → new length *)
  | Array_pop           (* array → value *)
  (* objects and generic accesses *)
  | New_object of string list
  | Get_prop of string
  | Set_prop of string
  | Get_index_generic   (* checked, slow path *)
  | Set_index_generic
  (* globals *)
  | Load_global of string
  | Store_global of string
  | Declare_global of string  (* define global as undefined if absent *)
  (* calls *)
  | Call of int                  (* callee, arg1..argn *)
  | Call_method of string * int  (* recv, arg1..argn *)
  (* control *)
  | Goto of block
  | Test of block * block        (* operand: condition; (if_true, if_false) *)
  | Return                       (* operand: value *)
  | Unreachable

and instr = {
  iid : int;
  mutable num : int;
  mutable opcode : opcode;
  mutable operands : instr list;
  mutable in_block : int;  (* bid of owning block *)
}

and block = {
  bid : int;
  mutable phis : instr list;
  mutable body : instr list;  (* last one is the control instruction *)
  mutable preds : block list;
}

type t = {
  name : string;
  arity : int;
  mutable entry : block;
  mutable blocks : block list;  (* maintained in reverse-postorder *)
  mutable next_iid : int;
  mutable next_bid : int;
}

(* ---- construction ---- *)

let create ~name ~arity =
  let entry = { bid = 0; phis = []; body = []; preds = [] } in
  { name; arity; entry; blocks = [ entry ]; next_iid = 0; next_bid = 1 }

let new_block g =
  let b = { bid = g.next_bid; phis = []; body = []; preds = [] } in
  g.next_bid <- g.next_bid + 1;
  g.blocks <- g.blocks @ [ b ];
  b

let make_instr g opcode operands =
  let i =
    { iid = g.next_iid; num = g.next_iid; opcode; operands; in_block = -1 }
  in
  g.next_iid <- g.next_iid + 1;
  i

(* Append to block body (before any control instruction already present —
   callers normally add the control instruction last). *)
let append g block opcode operands =
  let i = make_instr g opcode operands in
  i.in_block <- block.bid;
  block.body <- block.body @ [ i ];
  i

let add_phi g block operands =
  let i = make_instr g Phi operands in
  i.in_block <- block.bid;
  block.phis <- block.phis @ [ i ];
  i

(* ---- shape helpers ---- *)

let successors (b : block) : block list =
  match List.rev b.body with
  | { opcode = Goto target; _ } :: _ -> [ target ]
  | { opcode = Test (t, f); _ } :: _ -> [ t; f ]
  | _ -> []

let control_instr (b : block) : instr option =
  match List.rev b.body with
  | ({ opcode = Goto _ | Test _ | Return | Unreachable; _ } as i) :: _ -> Some i
  | _ -> None

let instructions (b : block) = b.phis @ b.body

let all_instructions (g : t) = List.concat_map instructions g.blocks

(* [List.length (all_instructions g)] without building the list *)
let instruction_count (g : t) =
  List.fold_left (fun n b -> n + List.length b.phis + List.length b.body) 0 g.blocks

(* ---- reverse postorder & bookkeeping ---- *)

let compute_rpo (g : t) : block list =
  let visited = Hashtbl.create 16 in
  let order = ref [] in
  let rec dfs b =
    if not (Hashtbl.mem visited b.bid) then begin
      Hashtbl.add visited b.bid ();
      List.iter dfs (successors b);
      order := b :: !order
    end
  in
  dfs g.entry;
  !order

(* Recompute predecessor lists and block order from the control
   instructions; unreachable blocks are dropped. Phi operands of blocks
   whose predecessor list changed are NOT adjusted here — passes that
   remove edges must fix phis themselves. *)
let refresh (g : t) =
  let rpo = compute_rpo g in
  List.iter (fun b -> b.preds <- []) rpo;
  List.iter
    (fun b -> List.iter (fun s -> s.preds <- s.preds @ [ b ]) (successors b))
    rpo;
  g.blocks <- rpo;
  List.iter
    (fun b -> List.iter (fun i -> i.in_block <- b.bid) (instructions b))
    rpo

(* ---- use replacement ---- *)

(* Replace every use of [old_i] as an operand with [new_i]. O(instrs). *)
let replace_all_uses (g : t) (old_i : instr) (new_i : instr) =
  List.iter
    (fun i ->
      if List.memq old_i i.operands then
        i.operands <- List.map (fun o -> if o == old_i then new_i else o) i.operands)
    (all_instructions g)

let has_uses (g : t) (target : instr) =
  List.exists (fun i -> List.memq target i.operands) (all_instructions g)

(* ---- renumbering ---- *)

let renumber (g : t) =
  let n = ref 0 in
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          i.num <- !n;
          incr n)
        (instructions b))
    g.blocks

(* ---- opcode metadata ---- *)

(* Opcode names in tag order: [opcode_tag] is the index of an opcode's
   name here, a small static integer that snapshots store instead of the
   string (JITBULL compares chains by opcode name, so two opcodes share a
   tag exactly when they share a name). *)
let opcode_names =
  [|
    "parameter"; "constant"; "phi"; "unboxnumber"; "unboxint32"; "guardarray";
    "boundscheck"; "add"; "sub"; "mul"; "div"; "mod"; "bitand"; "bitor"; "bitxor"; "lsh";
    "rsh"; "ursh"; "compare_lt"; "compare_le"; "compare_gt"; "compare_ge"; "compare_eq";
    "compare_ne"; "compare_stricteq"; "compare_strictne"; "negate"; "bitnot"; "not";
    "typeof"; "tonumber"; "newarray"; "elements"; "initializedlength"; "loadelement";
    "storeelement"; "arraylength"; "setarraylength"; "arraypush"; "arraypop"; "newobject";
    "getprop"; "setprop"; "getelemgeneric"; "setelemgeneric"; "loadglobal"; "storeglobal";
    "declareglobal"; "call"; "callmethod"; "goto"; "test"; "return"; "unreachable";
  |]

let opcode_tag : opcode -> int = function
  | Parameter _ -> 0
  | Constant _ -> 1
  | Phi -> 2
  | Unbox_number -> 3
  | Unbox_int32 -> 4
  | Guard_array -> 5
  | Bounds_check -> 6
  | Add -> 7
  | Bin_num NSub -> 8
  | Bin_num NMul -> 9
  | Bin_num NDiv -> 10
  | Bin_num NMod -> 11
  | Bin_num NBit_and -> 12
  | Bin_num NBit_or -> 13
  | Bin_num NBit_xor -> 14
  | Bin_num NShl -> 15
  | Bin_num NShr -> 16
  | Bin_num NUshr -> 17
  | Compare CLt -> 18
  | Compare CLe -> 19
  | Compare CGt -> 20
  | Compare CGe -> 21
  | Compare CEq -> 22
  | Compare CNeq -> 23
  | Compare CStrict_eq -> 24
  | Compare CStrict_neq -> 25
  | Negate -> 26
  | Bit_not -> 27
  | Not -> 28
  | Typeof -> 29
  | To_number -> 30
  | New_array _ -> 31
  | Elements -> 32
  | Initialized_length -> 33
  | Load_element -> 34
  | Store_element -> 35
  | Array_length -> 36
  | Set_array_length -> 37
  | Array_push -> 38
  | Array_pop -> 39
  | New_object _ -> 40
  | Get_prop _ -> 41
  | Set_prop _ -> 42
  | Get_index_generic -> 43
  | Set_index_generic -> 44
  | Load_global _ -> 45
  | Store_global _ -> 46
  | Declare_global _ -> 47
  | Call _ -> 48
  | Call_method _ -> 49
  | Goto _ -> 50
  | Test _ -> 51
  | Return -> 52
  | Unreachable -> 53

let opcode_name op = opcode_names.(opcode_tag op)

(* Alias classes for the (correct) effect model. The vulnerable pass
   variants deliberately ignore parts of this table — that IS the bug
   being modeled. *)
type alias_class =
  | Alias_elements  (* array element storage *)
  | Alias_lengths   (* array length/initializedLength *)
  | Alias_objects   (* object property slots *)
  | Alias_globals   (* global variable slots *)

let all_alias_classes = [ Alias_elements; Alias_lengths; Alias_objects; Alias_globals ]

type effect_info = {
  reads : alias_class list;
  writes : alias_class list;
  is_guard : bool;
  (* pure + movable + no reads: eligible for GVN value-numbering and LICM
     hoisting without alias reasoning *)
  is_movable : bool;
  is_control : bool;
}

let effects : opcode -> effect_info = function
  | Parameter _ | Constant _ | Phi ->
    { reads = []; writes = []; is_guard = false; is_movable = false; is_control = false }
  | Unbox_number | Unbox_int32 | Guard_array ->
    { reads = []; writes = []; is_guard = true; is_movable = true; is_control = false }
  | Bounds_check ->
    { reads = []; writes = []; is_guard = true; is_movable = true; is_control = false }
  | Add | Bin_num _ | Compare _ | Negate | Bit_not | Not | Typeof | To_number ->
    { reads = []; writes = []; is_guard = false; is_movable = true; is_control = false }
  | New_array _ | New_object _ ->
    (* allocation: not movable/dedupable, but reads nothing *)
    { reads = []; writes = []; is_guard = false; is_movable = false; is_control = false }
  | Elements ->
    (* the elements pointer changes when storage is reallocated (push /
       length growth), which writes Alias_lengths *)
    { reads = [ Alias_lengths ]; writes = []; is_guard = false; is_movable = true; is_control = false }
  | Initialized_length | Array_length ->
    { reads = [ Alias_lengths ]; writes = []; is_guard = false; is_movable = true; is_control = false }
  | Load_element ->
    { reads = [ Alias_elements ]; writes = []; is_guard = false; is_movable = true; is_control = false }
  | Store_element ->
    { reads = []; writes = [ Alias_elements ]; is_guard = false; is_movable = false; is_control = false }
  | Set_array_length ->
    { reads = []; writes = [ Alias_lengths; Alias_elements ]; is_guard = false; is_movable = false; is_control = false }
  | Array_push | Array_pop ->
    { reads = [ Alias_lengths; Alias_elements ];
      writes = [ Alias_lengths; Alias_elements ];
      is_guard = false;
      is_movable = false;
      is_control = false }
  | Get_prop _ ->
    { reads = [ Alias_objects; Alias_lengths ]; writes = []; is_guard = false; is_movable = true; is_control = false }
  | Set_prop _ ->
    (* a generic property write may hit an array's [length] and resize it,
       so it clobbers array state too *)
    { reads = [];
      writes = [ Alias_objects; Alias_lengths; Alias_elements ];
      is_guard = false;
      is_movable = false;
      is_control = false }
  | Get_index_generic ->
    { reads = all_alias_classes; writes = []; is_guard = false; is_movable = false; is_control = false }
  | Set_index_generic ->
    { reads = all_alias_classes; writes = all_alias_classes; is_guard = false; is_movable = false; is_control = false }
  | Load_global _ ->
    { reads = [ Alias_globals ]; writes = []; is_guard = false; is_movable = true; is_control = false }
  | Store_global _ ->
    { reads = []; writes = [ Alias_globals ]; is_guard = false; is_movable = false; is_control = false }
  | Declare_global _ ->
    { reads = [ Alias_globals ]; writes = [ Alias_globals ]; is_guard = false; is_movable = false; is_control = false }
  | Call _ | Call_method _ ->
    { reads = all_alias_classes; writes = all_alias_classes; is_guard = false; is_movable = false; is_control = false }
  | Goto _ | Test _ | Return | Unreachable ->
    { reads = []; writes = []; is_guard = false; is_movable = false; is_control = true }

let has_side_effects op = (effects op).writes <> []

let is_control op = (effects op).is_control

(* ---- printing ---- *)

let constant_label (v : Value.t) =
  match v with
  | Value.Number f -> Value.to_display (Value.Number f)
  | Value.String s -> Printf.sprintf "%S" s
  | v -> Value.to_display v

let instr_label (i : instr) =
  let extra =
    match i.opcode with
    | Constant v -> " " ^ constant_label v
    | Parameter n -> Printf.sprintf " %d" n
    | Load_global s | Store_global s | Declare_global s | Get_prop s | Set_prop s -> " " ^ s
    | Call_method (m, _) -> " " ^ m
    | Goto b -> Printf.sprintf " block%d" b.bid
    | Test (t, f) -> Printf.sprintf " block%d block%d" t.bid f.bid
    | _ -> ""
  in
  let operands = List.map (fun o -> string_of_int o.num) i.operands in
  Printf.sprintf "%d %s%s %s" i.num (opcode_name i.opcode) extra (String.concat " " operands)

let to_string (g : t) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "function %s/%d\n" g.name g.arity);
  List.iter
    (fun b ->
      let preds = List.map (fun p -> string_of_int p.bid) b.preds in
      Buffer.add_string buf
        (Printf.sprintf "block%d: (preds: %s)\n" b.bid (String.concat "," preds));
      List.iter
        (fun i -> Buffer.add_string buf ("  " ^ instr_label i ^ "\n"))
        (instructions b))
    g.blocks;
  Buffer.contents buf
