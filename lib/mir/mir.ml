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

(* Blocks are consed onto [g.blocks]: every constructor (builder, inliner,
   critical-edge splitter) restores the order with [refresh] or
   [compute_rpo] once it is done. *)
let new_block g =
  let b = { bid = g.next_bid; phis = []; body = []; preds = [] } in
  g.next_bid <- g.next_bid + 1;
  g.blocks <- b :: g.blocks;
  b

(* A fresh instruction owned by block [in_block], not placed in it. *)
let make_instr ?(in_block = -1) g opcode operands =
  let i = { iid = g.next_iid; num = g.next_iid; opcode; operands; in_block } in
  g.next_iid <- g.next_iid + 1;
  i

(* A fresh instruction of block [b] consed onto [acc]: constructors build
   each phi or body list in reverse and turn it round once, so a block of
   n instructions costs n conses rather than n appends. *)
let push_instr acc g b opcode operands =
  let i = make_instr ~in_block:b.bid g opcode operands in
  acc := i :: !acc;
  i

(* ---- shape helpers ---- *)

let rec last = function
  | [ x ] -> Some x
  | _ :: rest -> last rest
  | [] -> None

let successors (b : block) : block list =
  match last b.body with
  | Some { opcode = Goto target; _ } -> [ target ]
  | Some { opcode = Test (t, f); _ } -> [ t; f ]
  | _ -> []

let control_instr (b : block) : instr option =
  match last b.body with
  | Some { opcode = Goto _ | Test _ | Return | Unreachable; _ } as i -> i
  | _ -> None

let instructions (b : block) = b.phis @ b.body

let all_instructions (g : t) = List.fold_right (fun b acc -> b.phis @ (b.body @ acc)) g.blocks []

(* [List.iter f (all_instructions g)] without building the list *)
let iter_instructions f (g : t) =
  List.iter
    (fun b ->
      List.iter f b.phis;
      List.iter f b.body)
    g.blocks

(* [List.length (all_instructions g)] without building the list *)
let instruction_count (g : t) =
  List.fold_left (fun n b -> n + List.length b.phis + List.length b.body) 0 g.blocks

(* ---- reverse postorder & bookkeeping ---- *)

let compute_rpo (g : t) : block list =
  let visited = Array.make g.next_bid false in
  let order = ref [] in
  let rec dfs b =
    if not visited.(b.bid) then begin
      visited.(b.bid) <- true;
      List.iter dfs (successors b);
      order := b :: !order
    end
  in
  dfs g.entry;
  !order

(* Recompute predecessor lists and block order from the control
   instructions; unreachable blocks are dropped. Preds come out in RPO
   order of the predecessor (walking the order backwards and consing).
   Phi operands of blocks whose predecessor list changed are NOT adjusted
   here — passes that remove edges must fix phis themselves. *)
let refresh (g : t) =
  let rpo = compute_rpo g in
  List.iter (fun b -> b.preds <- []) rpo;
  List.iter
    (fun b -> List.iter (fun s -> s.preds <- b :: s.preds) (successors b))
    (List.rev rpo);
  g.blocks <- rpo;
  List.iter
    (fun b ->
      List.iter (fun i -> i.in_block <- b.bid) b.phis;
      List.iter (fun i -> i.in_block <- b.bid) b.body)
    rpo

(* ---- use forwarding ----

   A pass that replaces instructions records each replacement in a
   forwarding table instead of rewriting every use on the spot, reads
   operands through [resolve] while it runs, and applies the table with
   [forward_uses] in one sweep when it is done: operands are rewritten to
   their final replacement and replaced instructions leave their blocks.
   The table (iid → replacement) is allocated at the first [forward] and
   grows for ids created during the pass. *)

type forwarding = { mutable target : instr array; size_hint : int (* next_iid at start *) }

(* A placeholder for array slots that hold no instruction; in no graph. *)
let no_instr = { iid = -1; num = -1; opcode = Unreachable; operands = []; in_block = -1 }
let forwarding (g : t) = { target = [||]; size_hint = g.next_iid }
let forwarded fw i = i.iid < Array.length fw.target && fw.target.(i.iid) != no_instr
let rec resolve fw i = if forwarded fw i then resolve fw fw.target.(i.iid) else i

let rec any_forwarded fw = function
  | [] -> false
  | o :: rest -> forwarded fw o || any_forwarded fw rest

let resolved_operands fw i =
  if any_forwarded fw i.operands then List.map (resolve fw) i.operands else i.operands

let forward fw old_i new_i =
  let n = Array.length fw.target in
  if old_i.iid >= n then begin
    let t = Array.make (max (old_i.iid + 1) (max fw.size_hint (2 * n))) no_instr in
    Array.blit fw.target 0 t 0 n;
    fw.target <- t
  end;
  fw.target.(old_i.iid) <- new_i

let forward_uses (g : t) fw =
  if Array.length fw.target > 0 then begin
    let live i = not (forwarded fw i) in
    List.iter
      (fun b ->
        if not (List.for_all live b.phis) then b.phis <- List.filter live b.phis;
        if not (List.for_all live b.body) then b.body <- List.filter live b.body;
        List.iter (fun i -> i.operands <- resolved_operands fw i) b.phis;
        List.iter (fun i -> i.operands <- resolved_operands fw i) b.body)
      g.blocks
  end

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

let no_effect = { reads = []; writes = []; is_guard = false; is_movable = false; is_control = false }
let pure = { no_effect with is_movable = true }
let guard = { pure with is_guard = true }
let load reads = { pure with reads }
let store writes = { no_effect with writes }
let read_write classes = { no_effect with reads = classes; writes = classes }

(* Built once: [effects] returns these shared records. *)
let load_lengths = load [ Alias_lengths ]
let load_elements = load [ Alias_elements ]
let load_props = load [ Alias_objects; Alias_lengths ]
let load_globals = load [ Alias_globals ]
let store_elements = store [ Alias_elements ]
let store_lengths = store [ Alias_lengths; Alias_elements ]
(* a generic property write may hit an array's [length] and resize it,
   so it clobbers array state too *)
let store_props = store [ Alias_objects; Alias_lengths; Alias_elements ]
let store_globals = store [ Alias_globals ]
let push_pop = read_write [ Alias_lengths; Alias_elements ]
let read_all = { no_effect with reads = all_alias_classes }
let read_write_all = read_write all_alias_classes
let declare_global = read_write [ Alias_globals ]
let control = { no_effect with is_control = true }

let effects : opcode -> effect_info = function
  (* allocations are neither movable nor dedupable, but read nothing *)
  | Parameter _ | Constant _ | Phi | New_array _ | New_object _ -> no_effect
  | Unbox_number | Unbox_int32 | Guard_array | Bounds_check -> guard
  | Add | Bin_num _ | Compare _ | Negate | Bit_not | Not | Typeof | To_number -> pure
  (* the elements pointer changes when storage is reallocated (push /
     length growth), which writes Alias_lengths *)
  | Elements | Initialized_length | Array_length -> load_lengths
  | Load_element -> load_elements
  | Store_element -> store_elements
  | Set_array_length -> store_lengths
  | Array_push | Array_pop -> push_pop
  | Get_prop _ -> load_props
  | Set_prop _ -> store_props
  | Get_index_generic -> read_all
  | Set_index_generic | Call _ | Call_method _ -> read_write_all
  | Load_global _ -> load_globals
  | Store_global _ -> store_globals
  | Declare_global _ -> declare_global
  | Goto _ | Test _ | Return | Unreachable -> control

let is_control op = (effects op).is_control
