type method_result =
  [ `Value of Value.t
  | `User_function of int * Value.t list
  ]

let is_namespace = function
  | "Math" | "String" -> true
  | _ -> false

let is_global_function = function
  | "print" | "__sentinelIntact" | "__heapCells" | "__heapSize" | "__arrayBase" -> true
  | _ -> false

let arg n args = match List.nth_opt args n with Some v -> v | None -> Value.Undefined

let num n args = Value_ops.to_number (arg n args)

let call_global (realm : Realm.t) name args =
  match name with
  | "print" ->
    List.iter (Realm.print realm) (if args = [] then [ Value.Undefined ] else args);
    Value.Undefined
  | "__sentinelIntact" -> Value.Bool (Heap.sentinel_intact realm.Realm.heap)
  | "__heapCells" -> Value.Number (float_of_int (Heap.cells_used realm.Realm.heap))
  | "__heapSize" -> Value.Number (float_of_int (Heap.size realm.Realm.heap))
  | "__arrayBase" -> (
    match arg 0 args with
    | Value.Array h -> Value.Number (float_of_int (Heap.base_addr realm.Realm.heap h))
    | _ -> Value.Undefined)
  | _ -> Errors.type_error "unknown global function %s" name

let math_constant = function
  | "PI" -> Some (Value.Number Float.pi)
  | "E" -> Some (Value.Number (Float.exp 1.0))
  | "SQRT2" -> Some (Value.Number (Float.sqrt 2.0))
  | _ -> None

let call_math (realm : Realm.t) fn args =
  let unary f = Value.Number (f (num 0 args)) in
  match fn with
  | "floor" -> unary Float.floor
  | "ceil" -> unary Float.ceil
  | "round" -> unary (fun f -> Float.floor (f +. 0.5))
  | "abs" -> unary Float.abs
  | "sqrt" -> unary Float.sqrt
  | "sin" -> unary Float.sin
  | "cos" -> unary Float.cos
  | "tan" -> unary Float.tan
  | "atan" -> unary Float.atan
  | "exp" -> unary Float.exp
  | "log" -> unary Float.log
  | "atan2" -> Value.Number (Float.atan2 (num 0 args) (num 1 args))
  | "pow" -> Value.Number (Float.pow (num 0 args) (num 1 args))
  | "min" ->
    if args = [] then Value.Number Float.infinity
    else Value.Number (List.fold_left (fun acc v -> Float.min acc (Value_ops.to_number v)) Float.infinity args)
  | "max" ->
    if args = [] then Value.Number Float.neg_infinity
    else Value.Number (List.fold_left (fun acc v -> Float.max acc (Value_ops.to_number v)) Float.neg_infinity args)
  | "random" -> Value.Number (Jitbull_util.Prng.float realm.Realm.prng)
  | _ -> Errors.type_error "Math.%s is not a function" fn

let call_string_ns fn args =
  match fn with
  | "fromCharCode" ->
    let chars =
      List.map
        (fun v ->
          let code = Int32.to_int (Value_ops.to_int32 (Value_ops.to_number v)) land 0xFF in
          String.make 1 (Char.chr code))
        args
    in
    Value.String (String.concat "" chars)
  | _ -> Errors.type_error "String.%s is not a function" fn

let call_namespace realm ns fn args =
  match ns with
  | "Math" -> call_math realm fn args
  | "String" -> call_string_ns fn args
  | _ -> Errors.type_error "unknown namespace %s" ns

let namespace_member ns name =
  match ns with
  | "Math" -> (
    match math_constant name with
    | Some v -> v
    | None -> Value.Builtin ("Math." ^ name))
  | "String" -> Value.Builtin ("String." ^ name)
  | _ -> Value.Undefined

let call_builtin realm qualified args =
  match String.index_opt qualified '.' with
  | Some i ->
    let ns = String.sub qualified 0 i in
    let fn = String.sub qualified (i + 1) (String.length qualified - i - 1) in
    call_namespace realm ns fn args
  | None -> call_global realm qualified args

(* Array methods. *)

let array_method (realm : Realm.t) h name args : method_result =
  let heap = realm.Realm.heap in
  match name with
  | "push" ->
    List.iter (Heap.push heap h) args;
    `Value (Value.Number (float_of_int (Heap.length heap h)))
  | "pop" -> `Value (Heap.pop heap h)
  | "indexOf" ->
    let target = arg 0 args in
    let len = Heap.length heap h in
    let rec find i =
      if i >= len then -1
      else if Value_ops.strict_equal (Heap.get heap h i) target then i
      else find (i + 1)
    in
    `Value (Value.Number (float_of_int (find 0)))
  | "join" ->
    let sep = match arg 0 args with Value.Undefined -> "," | v -> Value_ops.to_string v in
    let len = Heap.length heap h in
    let parts = List.init len (fun i -> Value_ops.to_string (Heap.get heap h i)) in
    `Value (Value.String (String.concat sep parts))
  | "slice" ->
    let len = Heap.length heap h in
    let clamp i = max 0 (min len i) in
    let start =
      match arg 0 args with
      | Value.Undefined -> 0
      | v ->
        let i = int_of_float (Value_ops.to_number v) in
        clamp (if i < 0 then len + i else i)
    in
    let stop =
      match arg 1 args with
      | Value.Undefined -> len
      | v ->
        let i = int_of_float (Value_ops.to_number v) in
        clamp (if i < 0 then len + i else i)
    in
    let n = max 0 (stop - start) in
    let dst = Heap.alloc_array heap ~length:n in
    for i = 0 to n - 1 do
      Heap.set heap dst i (Heap.get heap h (start + i))
    done;
    `Value (Value.Array dst)
  | _ -> Errors.type_error "array has no method %s" name

(* String methods. *)

let string_method s name args : method_result =
  match name with
  | "charCodeAt" -> (
    let i = int_of_float (num 0 args) in
    if i >= 0 && i < String.length s then `Value (Value.Number (float_of_int (Char.code s.[i])))
    else `Value (Value.Number Float.nan))
  | "charAt" -> (
    let i = int_of_float (num 0 args) in
    if i >= 0 && i < String.length s then `Value (Value.String (String.make 1 s.[i]))
    else `Value (Value.String ""))
  | "indexOf" -> (
    let needle = Value_ops.to_string (arg 0 args) in
    let n = String.length needle and m = String.length s in
    let rec find i =
      if i + n > m then -1
      else if String.sub s i n = needle then i
      else find (i + 1)
    in
    `Value (Value.Number (float_of_int (find 0))))
  | "substring" ->
    let m = String.length s in
    let clamp v = max 0 (min m v) in
    let a = clamp (int_of_float (num 0 args)) in
    let b =
      match arg 1 args with
      | Value.Undefined -> m
      | v -> clamp (int_of_float (Value_ops.to_number v))
    in
    let lo = min a b and hi = max a b in
    `Value (Value.String (String.sub s lo (hi - lo)))
  | "split" ->
    Errors.type_error "string.split is not supported by the subset"
  | _ -> Errors.type_error "string has no method %s" name

let call_method realm receiver name args : method_result =
  match receiver with
  | Value.Builtin ns when is_namespace ns -> `Value (call_namespace realm ns name args)
  | Value.Array h -> array_method realm h name args
  | Value.String s -> string_method s name args
  | Value.Object tbl -> (
    match Hashtbl.find_opt tbl name with
    | Some (Value.Function idx) -> `User_function (idx, args)
    | Some (Value.Builtin q) -> `Value (call_builtin realm q args)
    | Some v -> Errors.type_error "property %s is not a function (%s)" name (Value.type_name v)
    | None -> Errors.type_error "object has no method %s" name)
  | v -> Errors.type_error "%s has no methods" (Value.type_name v)

let get_member (realm : Realm.t) receiver name =
  match receiver with
  | Value.Builtin ns when is_namespace ns -> namespace_member ns name
  | Value.Array h ->
    if name = "length" then Value.Number (float_of_int (Heap.length realm.Realm.heap h))
    else Value.Undefined
  | Value.String s ->
    if name = "length" then Value.Number (float_of_int (String.length s)) else Value.Undefined
  | Value.Object tbl -> (
    (* [find] rather than [find_opt]: a hit allocates no option *)
    match Hashtbl.find tbl name with
    | v -> v
    | exception Not_found -> Value.Undefined)
  | v -> Errors.type_error "cannot read property %s of %s" name (Value.type_name v)

let set_member (realm : Realm.t) receiver name v =
  match receiver with
  | Value.Array h when name = "length" ->
    let n = int_of_float (Value_ops.to_number v) in
    Heap.set_length realm.Realm.heap h n
  | Value.Object tbl -> Hashtbl.replace tbl name v
  | recv -> Errors.type_error "cannot set property %s of %s" name (Value.type_name recv)
