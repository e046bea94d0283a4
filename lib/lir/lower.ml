module Mir = Jitbull_mir.Mir
module Value = Jitbull_runtime.Value

exception Lowering_error of string

let lowering_error fmt = Format.kasprintf (fun s -> raise (Lowering_error s)) fmt

(* Interning helpers over growable tables, keyed on [key x]. *)
type ('k, 'a) interner = {
  mutable items : 'a list;  (* reversed *)
  mutable count : int;
  index : ('k, int) Hashtbl.t;
  key : 'a -> 'k;
}

let new_interner key = { items = []; count = 0; index = Hashtbl.create 16; key }

let intern t x =
  let k = t.key x in
  match Hashtbl.find_opt t.index k with
  | Some i -> i
  | None ->
    let i = t.count in
    t.items <- x :: t.items;
    t.count <- i + 1;
    Hashtbl.add t.index k i;
    i

(* Constant-pool key: numbers on their bits, every NaN as one key.
   Structural hashing and equality would merge [0.] and [-0.]. *)
type const_key = Bits of int64 | Other of Value.t

let const_key = function
  | Value.Number f -> Bits (Int64.bits_of_float (if Float.is_nan f then nan else f))
  | v -> Other v

let to_array t = Array.of_list (List.rev t.items)

(* Parallel copy resolution: emit a sequence of moves implementing the
   simultaneous assignment [moves] = [(dst, src); ...]; cycles are broken
   through [fresh_temp]. *)
let sequentialize_moves moves ~fresh_temp =
  let pending = ref (List.filter (fun (d, s) -> d <> s) moves) in
  let out = ref [] in
  let emit d s = out := (d, s) :: !out in
  while !pending <> [] do
    let is_blocked (d, _) = List.exists (fun (_, s) -> s = d) !pending in
    match List.partition is_blocked !pending with
    | blocked, [] -> (
      (* all blocked: a cycle; rotate through a temp *)
      match blocked with
      | (d, s) :: rest ->
        let t = fresh_temp () in
        emit t d;  (* save dst *)
        emit d s;
        pending := List.map (fun (d', s') -> if s' = d then (d', t) else (d', s')) rest
      | [] -> assert false)
    | blocked, ready ->
      List.iter (fun (d, s) -> emit d s) ready;
      pending := blocked
  done;
  List.rev !out

let lower (g : Mir.t) : Lir.func =
  let blocks = g.Mir.blocks in
  (* virtual register per MIR instruction *)
  let vreg_of : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let next_vreg = ref 0 in
  let fresh_vreg () =
    let v = !next_vreg in
    incr next_vreg;
    v
  in
  List.iter
    (fun (i : Mir.instr) -> Hashtbl.replace vreg_of i.Mir.iid (fresh_vreg ()))
    (Mir.all_instructions g);
  let vr (i : Mir.instr) = Hashtbl.find vreg_of i.Mir.iid in
  let consts = new_interner const_key in
  let names = new_interner Fun.id in
  let call_args = ref [] in
  let call_args_count = ref 0 in
  let add_call_args regs =
    let i = !call_args_count in
    call_args := regs :: !call_args;
    incr call_args_count;
    i
  in
  let fields = ref [] in
  let fields_count = ref 0 in
  let add_fields fl =
    let i = !fields_count in
    fields := fl :: !fields;
    incr fields_count;
    i
  in
  (* per-block instruction lists; branch targets patched after layout *)
  let emit_block (b : Mir.block) =
    let insts = ref [] in
    let emit kind ~dst ?(a = -1) ?(b = -1) ?(c = -1) ?(imm = -1) ?(imm2 = -1) () =
      let i = Lir.make_inst kind in
      i.Lir.dst <- dst;
      i.Lir.a <- a;
      i.Lir.b <- b;
      i.Lir.c <- c;
      i.Lir.imm <- imm;
      i.Lir.imm2 <- imm2;
      insts := i :: !insts;
      i
    in
    let pending_branch = ref None in
    List.iter
      (fun (i : Mir.instr) ->
        let dst = vr i in
        let ops = Array.of_list (List.map vr i.Mir.operands) in
        let op n = ops.(n) in
        match i.Mir.opcode with
        | Mir.Phi -> ()  (* destructed below via predecessor moves *)
        | Mir.Parameter n -> ignore (emit Lir.Kparam ~dst ~imm:n ())
        | Mir.Constant v -> ignore (emit Lir.Kconst ~dst ~imm:(intern consts v) ())
        | Mir.Unbox_number -> ignore (emit Lir.Kunbox_number ~dst ~a:(op 0) ())
        | Mir.Unbox_int32 -> ignore (emit Lir.Kunbox_int32 ~dst ~a:(op 0) ())
        | Mir.Guard_array -> ignore (emit Lir.Kguard_array ~dst ~a:(op 0) ())
        | Mir.Bounds_check -> ignore (emit Lir.Kbounds_check ~dst ~a:(op 0) ~b:(op 1) ())
        | Mir.Add -> ignore (emit Lir.Kadd ~dst ~a:(op 0) ~b:(op 1) ())
        | Mir.Bin_num nop -> ignore (emit (Lir.Kbin nop) ~dst ~a:(op 0) ~b:(op 1) ())
        | Mir.Compare cop -> ignore (emit (Lir.Kcompare cop) ~dst ~a:(op 0) ~b:(op 1) ())
        | Mir.Negate -> ignore (emit Lir.Knegate ~dst ~a:(op 0) ())
        | Mir.Bit_not -> ignore (emit Lir.Kbitnot ~dst ~a:(op 0) ())
        | Mir.Not -> ignore (emit Lir.Knot ~dst ~a:(op 0) ())
        | Mir.Typeof -> ignore (emit Lir.Ktypeof ~dst ~a:(op 0) ())
        | Mir.To_number -> ignore (emit Lir.Ktonumber ~dst ~a:(op 0) ())
        | Mir.New_array n -> ignore (emit Lir.Knew_array ~dst ~imm:n ())
        | Mir.New_object fl -> ignore (emit Lir.Knew_object ~dst ~imm:(add_fields fl) ())
        | Mir.Elements -> ignore (emit Lir.Kelements ~dst ~a:(op 0) ())
        | Mir.Initialized_length -> ignore (emit Lir.Kinit_length ~dst ~a:(op 0) ())
        | Mir.Load_element -> ignore (emit Lir.Kload_element ~dst ~a:(op 0) ~b:(op 1) ())
        | Mir.Store_element ->
          ignore (emit Lir.Kstore_element ~dst:(-1) ~a:(op 0) ~b:(op 1) ~c:(op 2) ())
        | Mir.Array_length -> ignore (emit Lir.Karray_length ~dst ~a:(op 0) ())
        | Mir.Set_array_length ->
          ignore (emit Lir.Kset_array_length ~dst:(-1) ~a:(op 0) ~b:(op 1) ())
        | Mir.Array_push -> ignore (emit Lir.Karray_push ~dst ~a:(op 0) ~b:(op 1) ())
        | Mir.Array_pop -> ignore (emit Lir.Karray_pop ~dst ~a:(op 0) ())
        | Mir.Get_prop name ->
          ignore (emit Lir.Kget_prop ~dst ~a:(op 0) ~imm:(intern names name) ())
        | Mir.Set_prop name ->
          ignore (emit Lir.Kset_prop ~dst:(-1) ~a:(op 0) ~b:(op 1) ~imm:(intern names name) ())
        | Mir.Get_index_generic -> ignore (emit Lir.Kget_index_gen ~dst ~a:(op 0) ~b:(op 1) ())
        | Mir.Set_index_generic ->
          ignore (emit Lir.Kset_index_gen ~dst:(-1) ~a:(op 0) ~b:(op 1) ~c:(op 2) ())
        | Mir.Load_global name -> ignore (emit Lir.Kload_global ~dst ~imm:(intern names name) ())
        | Mir.Store_global name ->
          ignore (emit Lir.Kstore_global ~dst:(-1) ~a:(op 0) ~imm:(intern names name) ())
        | Mir.Declare_global name ->
          ignore (emit Lir.Kdeclare_global ~dst:(-1) ~imm:(intern names name) ())
        | Mir.Call _ ->
          let args = Array.sub ops 1 (Array.length ops - 1) in
          ignore (emit Lir.Kcall ~dst ~a:(op 0) ~imm:(add_call_args args) ())
        | Mir.Call_method (name, _) ->
          let args = Array.sub ops 1 (Array.length ops - 1) in
          ignore
            (emit Lir.Kcall_method ~dst ~a:(op 0) ~imm:(add_call_args args)
               ~imm2:(intern names name) ())
        | Mir.Goto _ | Mir.Test _ | Mir.Return | Mir.Unreachable ->
          (* insert phi-moves for successors before the branch *)
          (match i.Mir.opcode with
          | Mir.Goto target when target.Mir.phis <> [] ->
            let position =
              let rec find k = function
                | [] -> lowering_error "block%d not a pred of its goto target" b.Mir.bid
                | p :: rest -> if p == b then k else find (k + 1) rest
              in
              find 0 target.Mir.preds
            in
            let moves =
              List.map
                (fun (phi : Mir.instr) -> (vr phi, vr (List.nth phi.Mir.operands position)))
                target.Mir.phis
            in
            List.iter
              (fun (d, s) -> ignore (emit Lir.Kmove ~dst:d ~a:s ()))
              (sequentialize_moves moves ~fresh_temp:fresh_vreg)
          | Mir.Test (t, f) when t.Mir.phis <> [] || f.Mir.phis <> [] ->
            lowering_error "critical edge: test successor of block%d has phis" b.Mir.bid
          | _ -> ());
          (match i.Mir.opcode with
          | Mir.Goto target ->
            pending_branch := Some (`Goto target.Mir.bid);
            ignore (emit Lir.Kgoto ~dst:(-1) ())
          | Mir.Test (t, f) ->
            pending_branch := Some (`Test (t.Mir.bid, f.Mir.bid));
            ignore (emit Lir.Ktest ~dst:(-1) ~a:(op 0) ())
          | Mir.Return -> ignore (emit Lir.Kreturn ~dst:(-1) ~a:(op 0) ())
          | Mir.Unreachable -> ignore (emit Lir.Kreturn ~dst:(-1) ~a:(-1) ())
          | _ -> ()))
      (Mir.instructions b);
    (List.rev !insts, !pending_branch)
  in
  let lowered = List.map (fun b -> (b, emit_block b)) blocks in
  (* layout: concatenate block code, record start offsets *)
  let starts : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let code = ref [] in
  let offset = ref 0 in
  List.iter
    (fun ((b : Mir.block), (insts, _)) ->
      Hashtbl.replace starts b.Mir.bid !offset;
      offset := !offset + List.length insts;
      code := List.rev_append insts !code)
    lowered;
  let code = Array.of_list (List.rev !code) in
  (* patch branch targets *)
  let pos = ref 0 in
  List.iter
    (fun ((_ : Mir.block), (insts, branch)) ->
      let n = List.length insts in
      (match branch with
      | Some (`Goto bid) ->
        let inst = code.(!pos + n - 1) in
        inst.Lir.imm <- Hashtbl.find starts bid
      | Some (`Test (tbid, fbid)) ->
        let inst = code.(!pos + n - 1) in
        inst.Lir.imm <- Hashtbl.find starts tbid;
        inst.Lir.b <- Hashtbl.find starts fbid
      | None -> ());
      pos := !pos + n)
    lowered;
  {
    Lir.name = g.Mir.name;
    arity = g.Mir.arity;
    code;
    consts = to_array consts;
    names = to_array names;
    call_args = Array.of_list (List.rev !call_args);
    fields = Array.of_list (List.rev !fields);
    n_regs = !next_vreg;
    spill_count = 0;
  }
