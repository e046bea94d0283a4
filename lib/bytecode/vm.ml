module Value = Jitbull_runtime.Value
module Value_ops = Jitbull_runtime.Value_ops
module Heap = Jitbull_runtime.Heap
module Realm = Jitbull_runtime.Realm
module Builtins = Jitbull_runtime.Builtins
module Errors = Jitbull_runtime.Errors
module Metrics = Jitbull_obs.Metrics
module Profile = Jitbull_obs.Profile

(* Sampling-profiler frame for interpreter ticks (the "baseline tier"
   share of a profile; JITed frames attribute via their code pages). *)
let prof_vm = Profile.tag "vm;dispatch"

(* Pre-resolved metric handles: the dispatch path is the hottest loop in
   the engine, so counters are looked up by name once at installation and
   each call pays a single option match plus an integer bump. *)
type vm_counters = {
  calls : Metrics.counter;
  interp_dispatch : Metrics.counter;
  jit_dispatch : Metrics.counter;
}

(* Global bindings live in slots. [create] resolves every global name the
   bytecode mentions, and every declared function, to a slot once, and
   records per function a pc → slot map beside its code, so a global
   access in the dispatch loop is two array reads and hashes no name.
   [unbound] marks a slot no store or declaration has reached: a load
   then takes the builtin fallback precomputed for the slot, or raises.
   Names first seen by name (the JIT's callbacks) get a fresh slot. *)
type slots = {
  index : (string, int) Hashtbl.t;  (* name → slot *)
  mutable values : Value.t array;  (* slot → binding, or [unbound] *)
  mutable fallback : Value.t array;  (* slot → [Builtin name], or [unbound] *)
  mutable maps : int array array;  (* function index → pc → slot; main last *)
}

(* Allocated here, so no script value is physically equal to it. *)
let unbound = Value.Builtin (String.make 1 '?')

type t = {
  realm : Realm.t;
  program : Op.program;
  globals : (string, Value.t) Hashtbl.t;
  slots : slots;
  counters : int array;
  dispatch : (Value.t list -> Value.t) option array;
  feedback : Feedback.t;
  mutable on_invoke : (t -> int -> int -> unit) option;
  mutable obs_counters : vm_counters option;
}

let slot_of s name =
  match Hashtbl.find s.index name with
  | k -> k
  | exception Not_found ->
    let k = Hashtbl.length s.index in
    if k = Array.length s.values then begin
      let grow a = Array.append a (Array.make (max 8 k) unbound) in
      s.values <- grow s.values;
      s.fallback <- grow s.fallback
    end;
    if Builtins.is_namespace name || Builtins.is_global_function name then
      s.fallback.(k) <- Value.Builtin name;
    Hashtbl.replace s.index name k;
    k

let slot_map s (f : Op.func) =
  Array.map
    (function
      | Op.Load_global name | Op.Store_global name | Op.Declare_global name ->
        slot_of s name
      | _ -> -1)
    f.Op.code

let create ?realm (program : Op.program) =
  let realm = match realm with Some r -> r | None -> Realm.create () in
  let funcs = program.Op.funcs in
  let globals = Hashtbl.create 64 in
  let s =
    { index = Hashtbl.create 64; values = [||]; fallback = [||]; maps = [||] }
  in
  Array.iteri
    (fun i (f : Op.func) ->
      Hashtbl.replace globals f.Op.name (Value.Function i);
      let k = slot_of s f.Op.name in
      s.values.(k) <- Value.Function i)
    funcs;
  s.maps <- Array.map (slot_map s) (Array.append funcs [| program.Op.main |]);
  {
    realm;
    program;
    globals;
    slots = s;
    counters = Array.make (Array.length funcs) 0;
    dispatch = Array.make (Array.length funcs) None;
    feedback = Feedback.create program;
    on_invoke = None;
    obs_counters = None;
  }

let install_obs vm obs =
  let m = Jitbull_obs.Obs.metrics obs in
  vm.obs_counters <-
    Some
      {
        calls = Metrics.counter m "vm.calls";
        interp_dispatch = Metrics.counter m "vm.dispatch.interp";
        jit_dispatch = Metrics.counter m "vm.dispatch.jit";
      }

let load_slot s k name =
  let v = s.values.(k) in
  if v != unbound then v
  else
    let b = s.fallback.(k) in
    if b != unbound then b else Errors.type_error "%s is not defined" name

let declare_slot s k = if s.values.(k) == unbound then s.values.(k) <- Value.Undefined

let load_global vm name = load_slot vm.slots (slot_of vm.slots name) name

let store_global vm name v =
  let k = slot_of vm.slots name in
  vm.slots.values.(k) <- v

let declare_global vm name = declare_slot vm.slots (slot_of vm.slots name)

(* Operand stack: growable value array. *)
type stack = {
  mutable cells : Value.t array;
  mutable sp : int;
}

let new_stack () = { cells = Array.make 64 Value.Undefined; sp = 0 }

let push st v =
  if st.sp = Array.length st.cells then begin
    let bigger = Array.make (2 * st.sp) Value.Undefined in
    Array.blit st.cells 0 bigger 0 st.sp;
    st.cells <- bigger
  end;
  st.cells.(st.sp) <- v;
  st.sp <- st.sp + 1

let pop st =
  st.sp <- st.sp - 1;
  st.cells.(st.sp)

let pop_n st n =
  let vs = ref [] in
  for _ = 1 to n do
    vs := pop st :: !vs
  done;
  !vs

let rec stage_args locals arity i = function
  | v :: rest when i < arity ->
    locals.(i) <- v;
    stage_args locals arity (i + 1) rest
  | _ -> ()

let record_index (site : Feedback.site) recv idx =
  match (recv, Value_ops.to_index idx) with
  | Value.Array _, Some _ -> site.Feedback.saw_array_int <- true
  | _ -> site.Feedback.saw_other_index <- true

let record_receiver (site : Feedback.site) recv =
  match recv with
  | Value.Array _ -> site.Feedback.saw_array_recv <- true
  | _ -> site.Feedback.saw_other_recv <- true

let rec call_function vm idx args =
  vm.counters.(idx) <- vm.counters.(idx) + 1;
  (match vm.on_invoke with
  | Some hook -> hook vm idx vm.counters.(idx)
  | None -> ());
  match vm.dispatch.(idx) with
  | Some compiled ->
    (match vm.obs_counters with
    | Some c ->
      Metrics.incr c.calls;
      Metrics.incr c.jit_dispatch
    | None -> ());
    (* control transfers through the simulated JIT code pointer *)
    Heap.check_sentinel vm.realm.Realm.heap;
    compiled args
  | None ->
    (match vm.obs_counters with
    | Some c ->
      Metrics.incr c.calls;
      Metrics.incr c.interp_dispatch
    | None -> ());
    interpret vm ~func_index:idx vm.program.Op.funcs.(idx) args

(* [func_index] = -1 for the top level, which collects no feedback (it is
   never JITed). The profiler tag is set only while profiling runs, so a
   call builds no closure otherwise. *)
and interpret vm ~func_index (f : Op.func) args =
  if Profile.running () then
    Profile.with_tag prof_vm (fun () -> interpret_body vm ~func_index f args)
  else interpret_body vm ~func_index f args

(* The dispatch loop allocates nothing per op beyond the values it
   makes: feedback is recorded only when [func_index >= 0], into the
   site at the op's pc, and the loop ends by clearing [running]. *)
and interpret_body vm ~func_index (f : Op.func) args =
  let locals = Array.make (max f.Op.n_locals 1) Value.Undefined in
  stage_args locals f.Op.arity 0 args;
  let st = new_stack () in
  let code = f.Op.code in
  let s = vm.slots in
  let slot = s.maps.(if func_index >= 0 then func_index else Array.length s.maps - 1) in
  let record = func_index >= 0 in
  let sites = if record then vm.feedback.(func_index) else [||] in
  let pc = ref 0 in
  let running = ref true in
  let result = ref Value.Undefined in
  while !running do
    let at = !pc in
    let op = code.(at) in
    pc := at + 1;
    match op with
    | Op.Push_const v -> push st v
    | Op.Load_local i -> push st locals.(i)
    | Op.Store_local i -> locals.(i) <- pop st
    | Op.Load_global name -> push st (load_slot s slot.(at) name)
    | Op.Store_global _ -> s.values.(slot.(at)) <- pop st
    | Op.Declare_global _ -> declare_slot s slot.(at)
    | Op.Pop -> ignore (pop st)
    | Op.Dup ->
      let v = pop st in
      push st v;
      push st v
    | Op.Binop op ->
      let b = pop st in
      let a = pop st in
      if record then begin
        let site = sites.(at) in
        match (a, b) with
        | Value.Number _, Value.Number _ -> site.Feedback.saw_number <- true
        | _ -> site.Feedback.saw_non_number <- true
      end;
      push st (Value_ops.binary op a b)
    | Op.Unop op -> push st (Value_ops.unary op (pop st))
    | Op.Jump target -> pc := target
    | Op.Jump_if_false target -> if not (Value_ops.to_boolean (pop st)) then pc := target
    | Op.Jump_if_true target -> if Value_ops.to_boolean (pop st) then pc := target
    | Op.New_array n ->
      let vs = pop_n st n in
      let h = Heap.alloc_array vm.realm.Realm.heap ~length:n in
      List.iteri (fun i v -> Heap.set vm.realm.Realm.heap h i v) vs;
      push st (Value.Array h)
    | Op.New_object fields ->
      let vs = pop_n st (List.length fields) in
      let tbl = Hashtbl.create (max 4 (List.length fields)) in
      List.iter2 (fun k v -> Hashtbl.replace tbl k v) fields vs;
      push st (Value.Object tbl)
    | Op.Get_index -> (
      let idx = pop st in
      let recv = pop st in
      if record then record_index sites.(at) recv idx;
      match (recv, Value_ops.to_index idx) with
      | Value.Array h, Some i -> push st (Heap.get vm.realm.Realm.heap h i)
      | Value.Object tbl, _ ->
        push st
          (match Hashtbl.find_opt tbl (Value_ops.to_string idx) with
          | Some v -> v
          | None -> Value.Undefined)
      | Value.String s, Some i ->
        push st
          (if i < String.length s then Value.String (String.make 1 s.[i]) else Value.Undefined)
      | Value.Array _, None -> push st Value.Undefined
      | recv, _ -> Errors.type_error "cannot index %s" (Value.type_name recv))
    | Op.Set_index ->
      let v = pop st in
      let idx = pop st in
      let recv = pop st in
      if record then record_index sites.(at) recv idx;
      (match (recv, Value_ops.to_index idx) with
      | Value.Array h, Some i -> Heap.set vm.realm.Realm.heap h i v
      | Value.Object tbl, _ -> Hashtbl.replace tbl (Value_ops.to_string idx) v
      | Value.Array _, None -> Errors.type_error "invalid array index %s" (Value.to_display idx)
      | recv, _ -> Errors.type_error "cannot index %s" (Value.type_name recv));
      push st v
    | Op.Get_member name ->
      let recv = pop st in
      if record then record_receiver sites.(at) recv;
      push st (Builtins.get_member vm.realm recv name)
    | Op.Set_member name ->
      let v = pop st in
      let recv = pop st in
      if record then record_receiver sites.(at) recv;
      Builtins.set_member vm.realm recv name v;
      push st v
    | Op.Call n -> (
      let args = pop_n st n in
      let callee = pop st in
      match callee with
      | Value.Function idx -> push st (call_function vm idx args)
      | Value.Builtin name -> push st (Builtins.call_builtin vm.realm name args)
      | v -> Errors.type_error "%s is not a function" (Value.type_name v))
    | Op.Call_method (name, n) -> (
      let args = pop_n st n in
      let recv = pop st in
      if record then record_receiver sites.(at) recv;
      match Builtins.call_method vm.realm recv name args with
      | `Value v -> push st v
      | `User_function (idx, args) -> push st (call_function vm idx args))
    | Op.Return ->
      result := pop st;
      running := false
    | Op.Return_undefined -> running := false
  done;
  !result

let run vm =
  ignore (interpret vm ~func_index:(-1) vm.program.Op.main []);
  Realm.output vm.realm

let run_program program = run (create program)
