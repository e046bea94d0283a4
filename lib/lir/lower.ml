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

(* The tables keyed by iid or block id are arrays, and instructions go
   straight into one growable code array in layout order: only a
   constant or a name is hashed, into its pool. *)
let lower (g : Mir.t) : Lir.func =
  (* virtual register per MIR instruction, numbered in graph order; -1
     for an iid the graph no longer holds *)
  let vreg_of = Array.make g.Mir.next_iid (-1) in
  let next_vreg = ref 0 in
  let fresh_vreg () =
    let v = !next_vreg in
    incr next_vreg;
    v
  in
  Mir.iter_instructions (fun i -> vreg_of.(i.Mir.iid) <- fresh_vreg ()) g;
  let vr (i : Mir.instr) =
    let v = if i.Mir.iid >= 0 && i.Mir.iid < Array.length vreg_of then vreg_of.(i.Mir.iid) else -1 in
    if v < 0 then raise Not_found else v
  in
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
  let code = ref (Array.make 64 (Lir.make_inst Lir.Kgoto)) in
  let n_code = ref 0 in
  let emit kind dst a b c imm imm2 =
    let i = { Lir.kind; dst; a; b; c; imm; imm2 } in
    if !n_code = Array.length !code then begin
      let bigger = Array.make (2 * !n_code) i in
      Array.blit !code 0 bigger 0 !n_code;
      code := bigger
    end;
    !code.(!n_code) <- i;
    incr n_code;
    i
  in
  let emit_imm kind dst imm = ignore (emit kind dst (-1) (-1) (-1) imm (-1)) in
  let emit1 kind dst a = ignore (emit kind dst a (-1) (-1) (-1) (-1)) in
  let emit2 kind dst a b = ignore (emit kind dst a b (-1) (-1) (-1)) in
  let emit3 kind dst a b c = ignore (emit kind dst a b c (-1) (-1)) in
  (* the current instruction's operand registers *)
  let ops = ref (Array.make 4 0) in
  let n_ops = ref 0 in
  let load_ops (i : Mir.instr) =
    n_ops := 0;
    List.iter
      (fun o ->
        if !n_ops = Array.length !ops then begin
          let bigger = Array.make (2 * !n_ops) 0 in
          Array.blit !ops 0 bigger 0 !n_ops;
          ops := bigger
        end;
        !ops.(!n_ops) <- vr o;
        incr n_ops)
      i.Mir.operands
  in
  let op n = if n < !n_ops then !ops.(n) else invalid_arg "index out of bounds" in
  let args () = Array.sub !ops 1 (!n_ops - 1) in
  (* block starts by bid, and the branches to patch once all are known *)
  let starts = Array.make g.Mir.next_bid 0 in
  let branches = ref [] in
  let emit_block (b : Mir.block) =
    starts.(b.Mir.bid) <- !n_code;
    (* phis emit nothing: they are destructed below via predecessor moves *)
    List.iter
      (fun (i : Mir.instr) ->
        let dst = vr i in
        load_ops i;
        match i.Mir.opcode with
        | Mir.Phi -> ()
        | Mir.Parameter n -> emit_imm Lir.Kparam dst n
        | Mir.Constant v -> emit_imm Lir.Kconst dst (intern consts v)
        | Mir.Unbox_number -> emit1 Lir.Kunbox_number dst (op 0)
        | Mir.Unbox_int32 -> emit1 Lir.Kunbox_int32 dst (op 0)
        | Mir.Guard_array -> emit1 Lir.Kguard_array dst (op 0)
        | Mir.Bounds_check -> emit2 Lir.Kbounds_check dst (op 0) (op 1)
        | Mir.Add -> emit2 Lir.Kadd dst (op 0) (op 1)
        | Mir.Bin_num nop -> emit2 (Lir.Kbin nop) dst (op 0) (op 1)
        | Mir.Compare cop -> emit2 (Lir.Kcompare cop) dst (op 0) (op 1)
        | Mir.Negate -> emit1 Lir.Knegate dst (op 0)
        | Mir.Bit_not -> emit1 Lir.Kbitnot dst (op 0)
        | Mir.Not -> emit1 Lir.Knot dst (op 0)
        | Mir.Typeof -> emit1 Lir.Ktypeof dst (op 0)
        | Mir.To_number -> emit1 Lir.Ktonumber dst (op 0)
        | Mir.New_array n -> emit_imm Lir.Knew_array dst n
        | Mir.New_object fl -> emit_imm Lir.Knew_object dst (add_fields fl)
        | Mir.Elements -> emit1 Lir.Kelements dst (op 0)
        | Mir.Initialized_length -> emit1 Lir.Kinit_length dst (op 0)
        | Mir.Load_element -> emit2 Lir.Kload_element dst (op 0) (op 1)
        | Mir.Store_element -> emit3 Lir.Kstore_element (-1) (op 0) (op 1) (op 2)
        | Mir.Array_length -> emit1 Lir.Karray_length dst (op 0)
        | Mir.Set_array_length -> emit2 Lir.Kset_array_length (-1) (op 0) (op 1)
        | Mir.Array_push -> emit2 Lir.Karray_push dst (op 0) (op 1)
        | Mir.Array_pop -> emit1 Lir.Karray_pop dst (op 0)
        | Mir.Get_prop name ->
          ignore (emit Lir.Kget_prop dst (op 0) (-1) (-1) (intern names name) (-1))
        | Mir.Set_prop name ->
          ignore (emit Lir.Kset_prop (-1) (op 0) (op 1) (-1) (intern names name) (-1))
        | Mir.Get_index_generic -> emit2 Lir.Kget_index_gen dst (op 0) (op 1)
        | Mir.Set_index_generic -> emit3 Lir.Kset_index_gen (-1) (op 0) (op 1) (op 2)
        | Mir.Load_global name -> emit_imm Lir.Kload_global dst (intern names name)
        | Mir.Store_global name ->
          ignore (emit Lir.Kstore_global (-1) (op 0) (-1) (-1) (intern names name) (-1))
        | Mir.Declare_global name -> emit_imm Lir.Kdeclare_global (-1) (intern names name)
        | Mir.Call _ ->
          let callee = op 0 in
          ignore (emit Lir.Kcall dst callee (-1) (-1) (add_call_args (args ())) (-1))
        | Mir.Call_method (name, _) ->
          let recv = op 0 in
          let imm = add_call_args (args ()) in
          ignore (emit Lir.Kcall_method dst recv (-1) (-1) imm (intern names name))
        | Mir.Goto _ | Mir.Test _ | Mir.Return | Mir.Unreachable -> (
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
              (fun (d, s) -> emit1 Lir.Kmove d s)
              (sequentialize_moves moves ~fresh_temp:fresh_vreg)
          | Mir.Test (t, f) when t.Mir.phis <> [] || f.Mir.phis <> [] ->
            lowering_error "critical edge: test successor of block%d has phis" b.Mir.bid
          | _ -> ());
          match i.Mir.opcode with
          | Mir.Goto target ->
            let inst = emit Lir.Kgoto (-1) (-1) (-1) (-1) (-1) (-1) in
            branches := (inst, target.Mir.bid, -1) :: !branches
          | Mir.Test (t, f) ->
            let inst = emit Lir.Ktest (-1) (op 0) (-1) (-1) (-1) (-1) in
            branches := (inst, t.Mir.bid, f.Mir.bid) :: !branches
          | Mir.Return -> emit1 Lir.Kreturn (-1) (op 0)
          | Mir.Unreachable -> emit1 Lir.Kreturn (-1) (-1)
          | _ -> ()))
      b.Mir.body
  in
  List.iter emit_block g.Mir.blocks;
  (* patch branch targets *)
  List.iter
    (fun ((inst : Lir.inst), t, f) ->
      inst.Lir.imm <- starts.(t);
      if f >= 0 then inst.Lir.b <- starts.(f))
    !branches;
  {
    Lir.name = g.Mir.name;
    arity = g.Mir.arity;
    code = Array.sub !code 0 !n_code;
    consts = to_array consts;
    names = to_array names;
    call_args = Array.of_list (List.rev !call_args);
    fields = Array.of_list (List.rev !fields);
    n_regs = !next_vreg;
    spill_count = 0;
  }
