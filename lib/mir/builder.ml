module Op = Jitbull_bytecode.Op
module Feedback = Jitbull_bytecode.Feedback
module Value = Jitbull_runtime.Value
module Ast = Jitbull_frontend.Ast

exception Build_error of string

let build_error fmt = Format.kasprintf (fun s -> raise (Build_error s)) fmt

(* ---- bytecode basic blocks ---- *)

type bc_block = {
  start : int;
  stop : int;  (* exclusive *)
  mutable bc_succs : int list;  (* indices into the block array *)
}

let block_boundaries (code : Op.t array) =
  let n = Array.length code in
  let leader = Array.make (n + 1) false in
  leader.(0) <- true;
  Array.iteri
    (fun pc op ->
      match op with
      | Op.Jump t ->
        leader.(t) <- true;
        leader.(pc + 1) <- true
      | Op.Jump_if_false t | Op.Jump_if_true t ->
        leader.(t) <- true;
        leader.(pc + 1) <- true
      | Op.Return | Op.Return_undefined -> leader.(pc + 1) <- true
      | _ -> ())
    code;
  let starts = ref [] in
  for pc = n - 1 downto 0 do
    if leader.(pc) then starts := pc :: !starts
  done;
  let starts = Array.of_list !starts in
  let nb = Array.length starts in
  let blocks =
    Array.init nb (fun i ->
        let stop = if i + 1 < nb then starts.(i + 1) else n in
        { start = starts.(i); stop; bc_succs = [] })
  in
  (* pc → index of the block starting there, -1 for any other pc *)
  let index_of_pc = Array.make (n + 1) (-1) in
  Array.iteri (fun i b -> index_of_pc.(b.start) <- i) blocks;
  let block_at pc =
    match if pc >= 0 && pc <= n then index_of_pc.(pc) else -1 with
    | -1 -> build_error "jump target %d is not a block leader" pc
    | i -> i
  in
  Array.iter
    (fun b ->
      let last = code.(b.stop - 1) in
      b.bc_succs <-
        (match last with
        | Op.Jump t -> [ block_at t ]
        | Op.Jump_if_false t -> [ block_at b.stop; block_at t ]  (* true; false *)
        | Op.Jump_if_true t -> [ block_at t; block_at b.stop ]
        | Op.Return | Op.Return_undefined -> []
        | _ -> [ block_at b.stop ]))
    blocks;
  (blocks, index_of_pc)

(* Reverse postorder over bytecode blocks; also classifies loop headers
   (targets of back edges, i.e. edges from a block no earlier in RPO). *)
let bc_rpo (blocks : bc_block array) =
  let n = Array.length blocks in
  let visited = Array.make n false in
  let order = ref [] in
  let rec dfs i =
    if not visited.(i) then begin
      visited.(i) <- true;
      List.iter dfs blocks.(i).bc_succs;
      order := i :: !order
    end
  in
  dfs 0;
  let rpo = Array.of_list !order in
  let pos = Array.make n (-1) in
  Array.iteri (fun k i -> pos.(i) <- k) rpo;
  let is_header = Array.make n false in
  Array.iter
    (fun i ->
      List.iter
        (fun s -> if pos.(s) >= 0 && pos.(s) <= pos.(i) then is_header.(s) <- true)
        blocks.(i).bc_succs)
    rpo;
  (rpo, is_header)

(* ---- abstract state ---- *)

type state = {
  locals : Mir.instr array;
  stack : Mir.instr list;  (* top of stack first *)
}

(* ---- the builder ---- *)

let build (f : Op.func) ~feedback_row : Mir.t =
  let g = Mir.create ~name:f.Op.name ~arity:f.Op.arity in
  let code = f.Op.code in
  let bc_blocks, block_at_pc = block_boundaries code in
  let rpo, is_header = bc_rpo bc_blocks in
  let nb = Array.length bc_blocks in
  (* one MIR block per reachable bytecode block; a synthetic entry block
     holds the parameters so that bc block 0 may itself be a loop header *)
  let entry = g.Mir.entry in
  let mir_block = Array.make nb entry in
  Array.iter (fun i -> mir_block.(i) <- Mir.new_block g) rpo;
  (* Exit states and pending loop phis, by MIR block id. Instruction lists,
     [preds] and pending phi operands are consed up in reverse, then turned
     round once. *)
  let exit_states : state option array = Array.make g.Mir.next_bid None in
  let pending_phis : Mir.instr array option array = Array.make g.Mir.next_bid None in
  let exit_state_of (b : Mir.block) =
    match exit_states.(b.Mir.bid) with
    | Some st -> st
    | None -> build_error "predecessor block%d has no recorded state" b.Mir.bid
  in
  (* link an edge src→dst at control-emission time, keeping preds ordered
     by link time so phi operands align *)
  let link (src : Mir.block) dst_idx =
    let dst = mir_block.(dst_idx) in
    dst.Mir.preds <- src :: dst.Mir.preds;
    match pending_phis.(dst.Mir.bid) with
    | Some phis ->
      let st = exit_state_of src in
      Array.iteri (fun slot phi -> phi.Mir.operands <- st.locals.(slot) :: phi.Mir.operands) phis
    | None -> ()
  in
  (* synthetic entry: parameters, undefined locals, then goto bc block 0 *)
  let () =
    let body = ref [] in
    let emit opc = Mir.push_instr body g entry opc [] in
    let undef = ref None in
    let locals =
      Array.init f.Op.n_locals (fun i ->
          if i < f.Op.arity then emit (Mir.Parameter i)
          else
            match !undef with
            | Some u -> u
            | None ->
              let u = emit (Mir.Constant Value.Undefined) in
              undef := Some u;
              u)
    in
    exit_states.(entry.Mir.bid) <- Some { locals; stack = [] };
    ignore (emit (Mir.Goto mir_block.(0)));
    entry.Mir.body <- List.rev !body;
    link entry 0
  in
  let entry_state idx ~new_phi : state =
    let b = mir_block.(idx) in
    let preds = List.rev b.Mir.preds in
    if is_header.(idx) then begin
      let fwd_states = List.map exit_state_of preds in
      (match fwd_states with
      | { stack = []; _ } :: _ -> ()
      | { stack = _ :: _; _ } :: _ -> build_error "non-empty stack at loop header"
      | [] -> build_error "loop header with no processed predecessor");
      let phis =
        Array.init f.Op.n_locals (fun slot ->
            new_phi (List.rev_map (fun st -> st.locals.(slot)) fwd_states))
      in
      pending_phis.(b.Mir.bid) <- Some phis;
      { locals = Array.copy phis; stack = [] }
    end
    else begin
      (* all preds processed already (reducible CFG, RPO order) *)
      match List.map exit_state_of preds with
      | [] -> build_error "block %d has no predecessors" idx
      | [ st ] -> { locals = Array.copy st.locals; stack = st.stack }
      | first :: _ as pred_states ->
        let merge_values values =
          match values with
          | v :: rest when List.for_all (fun o -> o == v) rest -> v
          | vs -> new_phi vs
        in
        let locals =
          Array.init f.Op.n_locals (fun slot ->
              merge_values (List.map (fun st -> st.locals.(slot)) pred_states))
        in
        let depth = List.length first.stack in
        List.iter
          (fun st ->
            if List.length st.stack <> depth then build_error "stack depth mismatch at merge")
          pred_states;
        (* merge the stacks slot by slot, walking every predecessor's
           stack in step *)
        let rec merge_stacks stacks =
          match stacks with
          | [] :: _ | [] -> []
          | _ ->
            let v = merge_values (List.map List.hd stacks) in
            v :: merge_stacks (List.map List.tl stacks)
        in
        let stack = merge_stacks (List.map (fun st -> st.stack) pred_states) in
        { locals; stack }
    end
  in
  let bc_index_of_pc target_pc =
    match block_at_pc.(target_pc) with
    | -1 -> build_error "no block starts at %d" target_pc
    | k -> k
  in
  (* translate one bytecode block *)
  let translate idx =
    let b = mir_block.(idx) in
    let bc = bc_blocks.(idx) in
    let phis = ref [] and body = ref [] in
    let st = entry_state idx ~new_phi:(Mir.push_instr phis g b Mir.Phi) in
    let locals = st.locals in
    let stack = ref st.stack in
    let push v = stack := v :: !stack in
    let pop () =
      match !stack with
      | v :: rest ->
        stack := rest;
        v
      | [] -> build_error "operand stack underflow"
    in
    let pop_n n =
      let rec loop n acc = if n = 0 then acc else loop (n - 1) (pop () :: acc) in
      loop n []
    in
    let emit = Mir.push_instr body g b in
    let constant v = emit (Mir.Constant v) [] in
    let save_state () = exit_states.(b.Mir.bid) <- Some { locals; stack = !stack } in
    let site pc = feedback_row.(pc) in
    let finished = ref false in
    for pc = bc.start to bc.stop - 1 do
      if not !finished then
        match code.(pc) with
        | Op.Push_const v -> push (constant v)
        | Op.Load_local i -> push locals.(i)
        | Op.Store_local i -> locals.(i) <- pop ()
        | Op.Load_global name -> push (emit (Mir.Load_global name) [])
        | Op.Store_global name ->
          let v = pop () in
          ignore (emit (Mir.Store_global name) [ v ])
        | Op.Declare_global name -> ignore (emit (Mir.Declare_global name) [])
        | Op.Pop -> ignore (pop ())
        | Op.Dup ->
          let v = pop () in
          push v;
          push v
        | Op.Binop op -> (
          let rhs = pop () in
          let lhs = pop () in
          let numeric nop =
            if Feedback.numeric_fast_path (site pc) then begin
              let a = emit Mir.Unbox_number [ lhs ] in
              let c = emit Mir.Unbox_number [ rhs ] in
              push (emit (Mir.Bin_num nop) [ a; c ])
            end
            else begin
              let a = emit Mir.To_number [ lhs ] in
              let c = emit Mir.To_number [ rhs ] in
              push (emit (Mir.Bin_num nop) [ a; c ])
            end
          in
          match op with
          | Ast.Add -> push (emit Mir.Add [ lhs; rhs ])
          | Ast.Sub -> numeric Mir.NSub
          | Ast.Mul -> numeric Mir.NMul
          | Ast.Div -> numeric Mir.NDiv
          | Ast.Mod -> numeric Mir.NMod
          | Ast.Bit_and -> numeric Mir.NBit_and
          | Ast.Bit_or -> numeric Mir.NBit_or
          | Ast.Bit_xor -> numeric Mir.NBit_xor
          | Ast.Shl -> numeric Mir.NShl
          | Ast.Shr -> numeric Mir.NShr
          | Ast.Ushr -> numeric Mir.NUshr
          | Ast.Lt -> push (emit (Mir.Compare Mir.CLt) [ lhs; rhs ])
          | Ast.Le -> push (emit (Mir.Compare Mir.CLe) [ lhs; rhs ])
          | Ast.Gt -> push (emit (Mir.Compare Mir.CGt) [ lhs; rhs ])
          | Ast.Ge -> push (emit (Mir.Compare Mir.CGe) [ lhs; rhs ])
          | Ast.Eq -> push (emit (Mir.Compare Mir.CEq) [ lhs; rhs ])
          | Ast.Neq -> push (emit (Mir.Compare Mir.CNeq) [ lhs; rhs ])
          | Ast.Strict_eq -> push (emit (Mir.Compare Mir.CStrict_eq) [ lhs; rhs ])
          | Ast.Strict_neq -> push (emit (Mir.Compare Mir.CStrict_neq) [ lhs; rhs ]))
        | Op.Unop op -> (
          let v = pop () in
          match op with
          | Ast.Neg ->
            let n = emit Mir.To_number [ v ] in
            push (emit Mir.Negate [ n ])
          | Ast.Not -> push (emit Mir.Not [ v ])
          | Ast.Bit_not ->
            let n = emit Mir.To_number [ v ] in
            push (emit Mir.Bit_not [ n ])
          | Ast.Typeof -> push (emit Mir.Typeof [ v ])
          | Ast.To_number -> push (emit Mir.To_number [ v ]))
        | Op.New_array n ->
          let elems = pop_n n in
          let arr = emit (Mir.New_array n) [] in
          if n > 0 then begin
            let el = emit Mir.Elements [ arr ] in
            List.iteri
              (fun i v ->
                let idx = constant (Value.Number (float_of_int i)) in
                ignore (emit Mir.Store_element [ el; idx; v ]))
              elems
          end;
          push arr
        | Op.New_object fields ->
          let vs = pop_n (List.length fields) in
          let obj = emit (Mir.New_object fields) [] in
          List.iter2 (fun name v -> ignore (emit (Mir.Set_prop name) [ obj; v ])) fields vs;
          push obj
        | Op.Get_index ->
          let idx = pop () in
          let obj = pop () in
          if Feedback.array_fast_path (site pc) then begin
            let arr = emit Mir.Guard_array [ obj ] in
            let i32 = emit Mir.Unbox_int32 [ idx ] in
            let el = emit Mir.Elements [ arr ] in
            let len = emit Mir.Initialized_length [ el ] in
            let chk = emit Mir.Bounds_check [ i32; len ] in
            push (emit Mir.Load_element [ el; chk ])
          end
          else push (emit Mir.Get_index_generic [ obj; idx ])
        | Op.Set_index ->
          let v = pop () in
          let idx = pop () in
          let obj = pop () in
          if Feedback.array_fast_path (site pc) then begin
            let arr = emit Mir.Guard_array [ obj ] in
            let i32 = emit Mir.Unbox_int32 [ idx ] in
            let el = emit Mir.Elements [ arr ] in
            let len = emit Mir.Initialized_length [ el ] in
            (* the check's pass-through value is unused on the store path:
               the store indexes with the unboxed index directly (the shape
               the vulnerable-DCE model of CVE-2019-9813 preys on) *)
            ignore (emit Mir.Bounds_check [ i32; len ]);
            ignore (emit Mir.Store_element [ el; i32; v ]);
            push v
          end
          else begin
            ignore (emit Mir.Set_index_generic [ obj; idx; v ]);
            push v
          end
        | Op.Get_member name ->
          let obj = pop () in
          if name = "length" && Feedback.array_receiver (site pc) then begin
            let arr = emit Mir.Guard_array [ obj ] in
            push (emit Mir.Array_length [ arr ])
          end
          else push (emit (Mir.Get_prop name) [ obj ])
        | Op.Set_member name ->
          let v = pop () in
          let obj = pop () in
          if name = "length" && Feedback.array_receiver (site pc) then begin
            let arr = emit Mir.Guard_array [ obj ] in
            let n = emit Mir.Unbox_number [ v ] in
            ignore (emit Mir.Set_array_length [ arr; n ]);
            push v
          end
          else begin
            ignore (emit (Mir.Set_prop name) [ obj; v ]);
            push v
          end
        | Op.Call n ->
          let args = pop_n n in
          let callee = pop () in
          push (emit (Mir.Call n) (callee :: args))
        | Op.Call_method (name, n) -> (
          let args = pop_n n in
          let recv = pop () in
          match (name, args) with
          | "push", [ v ] when Feedback.array_receiver (site pc) ->
            let arr = emit Mir.Guard_array [ recv ] in
            push (emit Mir.Array_push [ arr; v ])
          | "pop", [] when Feedback.array_receiver (site pc) ->
            let arr = emit Mir.Guard_array [ recv ] in
            push (emit Mir.Array_pop [ arr ])
          | _ -> push (emit (Mir.Call_method (name, n)) (recv :: args)))
        | Op.Jump t ->
          let target = bc_index_of_pc t in
          ignore (emit (Mir.Goto mir_block.(target)) []);
          save_state ();
          link b target;
          finished := true
        | Op.Jump_if_false t | Op.Jump_if_true t ->
          let cond = pop () in
          let jump_target = bc_index_of_pc t in
          let fall_target = bc_index_of_pc bc.stop in
          let tt, ft =
            match code.(pc) with
            | Op.Jump_if_false _ -> (fall_target, jump_target)
            | _ -> (jump_target, fall_target)
          in
          ignore (emit (Mir.Test (mir_block.(tt), mir_block.(ft))) [ cond ]);
          save_state ();
          link b tt;
          link b ft;
          finished := true
        | Op.Return ->
          let v = pop () in
          ignore (emit Mir.Return [ v ]);
          save_state ();
          finished := true
        | Op.Return_undefined ->
          let v = constant Value.Undefined in
          ignore (emit Mir.Return [ v ]);
          save_state ();
          finished := true
    done;
    if not !finished then begin
      let fall_target = bc_index_of_pc bc.stop in
      ignore (emit (Mir.Goto mir_block.(fall_target)) []);
      save_state ();
      link b fall_target
    end;
    b.Mir.phis <- List.rev !phis;
    b.Mir.body <- List.rev !body
  in
  Array.iter translate rpo;
  let turn_round (phi : Mir.instr) = phi.Mir.operands <- List.rev phi.Mir.operands in
  Array.iter (Option.iter (Array.iter turn_round)) pending_phis;
  (* normalize block order; preserve the link-time pred order (phi operand
     alignment) against [refresh]'s own ordering *)
  let saved_preds = Array.make g.Mir.next_bid [] in
  List.iter (fun (b : Mir.block) -> saved_preds.(b.Mir.bid) <- List.rev b.Mir.preds) g.Mir.blocks;
  Mir.refresh g;
  List.iter
    (fun (b : Mir.block) ->
      let preds = saved_preds.(b.Mir.bid) in
      if List.compare_lengths preds b.Mir.preds = 0 then b.Mir.preds <- preds)
    g.Mir.blocks;
  Mir.renumber g;
  g
