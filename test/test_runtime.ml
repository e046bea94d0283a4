(* Tests for the runtime: value coercions, flat heap, builtins. *)

open Helpers
module Value = Jitbull_runtime.Value
module Value_ops = Jitbull_runtime.Value_ops
module Heap = Jitbull_runtime.Heap
module Nanbox = Jitbull_runtime.Nanbox
module Realm = Jitbull_runtime.Realm
module Builtins = Jitbull_runtime.Builtins
module Errors = Jitbull_runtime.Errors
module Ast = Jitbull_frontend.Ast

let num f = Value.Number f

let test_to_number () =
  let cases =
    [
      (Value.Number 3.5, 3.5);
      (Value.Bool true, 1.0);
      (Value.Bool false, 0.0);
      (Value.Null, 0.0);
      (Value.String "", 0.0);
      (Value.String "  42 ", 42.0);
    ]
  in
  List.iter
    (fun (v, expected) ->
      Alcotest.(check (float 0.0)) (Value.to_display v) expected (Value_ops.to_number v))
    cases;
  check_bool "undefined is NaN" true (Float.is_nan (Value_ops.to_number Value.Undefined));
  check_bool "junk string is NaN" true (Float.is_nan (Value_ops.to_number (Value.String "zz")))

let test_to_boolean () =
  check_bool "0 falsy" false (Value_ops.to_boolean (num 0.0));
  check_bool "NaN falsy" false (Value_ops.to_boolean (num Float.nan));
  check_bool "'' falsy" false (Value_ops.to_boolean (Value.String ""));
  check_bool "null falsy" false (Value_ops.to_boolean Value.Null);
  check_bool "array truthy" true (Value_ops.to_boolean (Value.Array 0));
  check_bool "'0' truthy" true (Value_ops.to_boolean (Value.String "0"))

let test_int32 () =
  Alcotest.(check int32) "wraps" (-294967296l) (Value_ops.to_int32 4000000000.0);
  Alcotest.(check int32) "negative" (-5l) (Value_ops.to_int32 (-5.9));
  Alcotest.(check int32) "nan is 0" 0l (Value_ops.to_int32 Float.nan);
  Alcotest.(check int32) "inf is 0" 0l (Value_ops.to_int32 Float.infinity);
  Alcotest.(check (float 0.0)) "uint32 of -1" 4294967295.0 (Value_ops.to_uint32 (-1.0))

let test_to_index () =
  check_bool "3 ok" true (Value_ops.to_index (num 3.0) = Some 3);
  check_bool "negative rejected" true (Value_ops.to_index (num (-1.0)) = None);
  check_bool "fraction rejected" true (Value_ops.to_index (num 1.5) = None);
  check_bool "string rejected" true (Value_ops.to_index (Value.String "1") = None)

let test_binary_add () =
  check_bool "num add" true (Value_ops.binary Ast.Add (num 1.0) (num 2.0) = num 3.0);
  check_bool "string concat" true
    (Value_ops.binary Ast.Add (Value.String "a") (num 1.0) = Value.String "a1");
  check_bool "concat right" true
    (Value_ops.binary Ast.Add (num 1.0) (Value.String "a") = Value.String "1a")

let test_equality () =
  check_bool "1 == '1'" true (Value_ops.loose_equal (num 1.0) (Value.String "1"));
  check_bool "null == undefined" true (Value_ops.loose_equal Value.Null Value.Undefined);
  check_bool "null !== undefined" false (Value_ops.strict_equal Value.Null Value.Undefined);
  check_bool "NaN != NaN" false (Value_ops.loose_equal (num Float.nan) (num Float.nan));
  check_bool "arrays by handle" true (Value_ops.strict_equal (Value.Array 2) (Value.Array 2));
  check_bool "different arrays" false (Value_ops.strict_equal (Value.Array 2) (Value.Array 3))

let test_comparisons () =
  check_bool "string lt" true (Value_ops.binary Ast.Lt (Value.String "abc") (Value.String "abd") = Value.Bool true);
  check_bool "NaN compare false" true (Value_ops.binary Ast.Le (num Float.nan) (num 1.0) = Value.Bool false);
  check_bool "shift" true (Value_ops.binary Ast.Shl (num 1.0) (num 4.0) = num 16.0);
  check_bool "ushr" true (Value_ops.binary Ast.Ushr (num (-8.0)) (num 28.0) = num 15.0)

(* ---- heap ---- *)

let test_heap_alloc_adjacent () =
  let h = Heap.create ~size_limit:4096 () in
  let a = Heap.alloc_array h ~length:4 in
  let b = Heap.alloc_array h ~length:4 in
  check_int "adjacent regions" (Heap.base_addr h a + 6) (Heap.base_addr h b);
  check_int "length" 4 (Heap.length h a);
  check_int "capacity" 4 (Heap.capacity h a)

let test_heap_checked_access () =
  let h = Heap.create ~size_limit:4096 () in
  let a = Heap.alloc_array h ~length:2 in
  Heap.set h a 0 (num 7.0);
  check_bool "get in bounds" true (Heap.get h a 0 = num 7.0);
  check_bool "get OOB is undefined" true (Heap.get h a 5 = Value.Undefined);
  check_bool "get negative is undefined" true (Heap.get h a (-1) = Value.Undefined);
  (* append one-past-end grows *)
  Heap.set h a 2 (num 9.0);
  check_int "append grew" 3 (Heap.length h a);
  (* sparse write ignored *)
  Heap.set h a 10 (num 1.0);
  check_int "sparse ignored" 3 (Heap.length h a)

let test_heap_shrink_reclaims () =
  let h = Heap.create ~size_limit:4096 () in
  let a = Heap.alloc_array h ~length:10 in
  let base = Heap.base_addr h a in
  Heap.set_length h a 2;
  check_int "length shrunk" 2 (Heap.length h a);
  check_int "capacity shrunk" 2 (Heap.capacity h a);
  (* next allocation lands in the reclaimed tail, adjacent to the shrunk
     array — the CVE-2019-17026 precondition *)
  let victim = Heap.alloc_array h ~length:3 in
  check_int "victim in reclaimed space" (base + 4) (Heap.base_addr h victim)

let test_heap_shrink_keeps_stale () =
  let h = Heap.create ~size_limit:4096 () in
  let a = Heap.alloc_array h ~length:4 in
  Heap.set h a 3 (num 99.0);
  (* pop is a lazy shrink: the popped cell is not cleared and remains
     readable through the unchecked accessor (the stale-data leak JITed
     code without its check can observe) *)
  ignore (Heap.pop h a);
  check_int "popped" 3 (Heap.length h a);
  check_bool "stale data leaks via unchecked read" true (Heap.get_unchecked h a 3 = num 99.0)

let test_heap_grow_reallocates () =
  let h = Heap.create ~size_limit:4096 () in
  let a = Heap.alloc_array h ~length:2 in
  let old_base = Heap.base_addr h a in
  Heap.set h a 0 (num 5.0);
  Heap.set_length h a 50;
  check_bool "moved" true (Heap.base_addr h a <> old_base);
  check_bool "contents preserved" true (Heap.get h a 0 = num 5.0);
  check_bool "new cells undefined" true (Heap.get h a 30 = Value.Undefined)

let test_heap_push_pop () =
  let h = Heap.create ~size_limit:4096 () in
  let a = Heap.alloc_array h ~length:1 in
  Heap.set h a 0 (num 1.0);
  Heap.push h a (num 2.0);
  Heap.push h a (num 3.0);
  check_int "pushed" 3 (Heap.length h a);
  check_bool "pop last" true (Heap.pop h a = num 3.0);
  check_int "popped" 2 (Heap.length h a);
  ignore (Heap.pop h a);
  ignore (Heap.pop h a);
  check_bool "pop empty" true (Heap.pop h a = Value.Undefined)

let test_heap_unchecked_corruption () =
  let h = Heap.create ~size_limit:4096 () in
  let a = Heap.alloc_array h ~length:2 in
  let b = Heap.alloc_array h ~length:2 in
  (* OOB write through a corrupts b's length header *)
  Heap.set_unchecked h a 2 (num 1000000.0);
  check_int "neighbour length corrupted" 1000000 (Heap.length h b)

let test_heap_unchecked_crash () =
  let h = Heap.create ~size_limit:256 () in
  let a = Heap.alloc_array h ~length:2 in
  (match Heap.set_unchecked h a 100000 (num 1.0) with
  | exception Errors.Crash _ -> ()
  | () -> Alcotest.fail "expected crash");
  match Heap.get_unchecked h a (-100000) with
  | exception Errors.Crash _ -> ()
  | _ -> Alcotest.fail "expected crash on negative"

let test_heap_sentinel () =
  let h = Heap.create ~size_limit:1024 () in
  let addr = Heap.alloc_sentinel h in
  check_int "sentinel at top" 1022 addr;
  Heap.check_sentinel h;
  check_bool "intact" true (Heap.sentinel_intact h);
  (* a corrupted-length array can reach it *)
  let a = Heap.alloc_array h ~length:2 in
  Heap.set_unchecked h a (addr - Heap.base_addr h a - 2) (num 1337.0);
  check_bool "tampered" false (Heap.sentinel_intact h);
  match Heap.check_sentinel h with
  | exception Errors.Shellcode_executed _ -> ()
  | () -> Alcotest.fail "expected shellcode detection"

let test_heap_exhaustion () =
  let h = Heap.create ~size_limit:64 () in
  match
    for _ = 1 to 100 do
      ignore (Heap.alloc_array h ~length:4)
    done
  with
  | exception Errors.Heap_exhausted -> ()
  | () -> Alcotest.fail "expected exhaustion"

let test_heap_corrupted_header_is_tolerated () =
  let h = Heap.create ~size_limit:4096 () in
  let a = Heap.alloc_array h ~length:2 in
  let b = Heap.alloc_array h ~length:2 in
  (* write a non-number over b's length header *)
  Heap.set_unchecked h a 2 (Value.String "junk");
  check_int "corrupted header reads as 0" 0 (Heap.length h b)

(* ---- heap against the flat reference ---- *)

(* The heap as one flat [Value.t array] of [size_limit] cells, allocated
   whole at creation: the layout, reclaim and bounds behaviour every
   exploit relies on, kept as the oracle for {!Heap}. *)
module Reference = struct
  type free_region = {
    addr : int;
    size : int;
  }

  type t = {
    cells : Value.t array;
    mutable brk : int;
    mutable free : free_region list;
    mutable table : int array;
    mutable next_handle : int;
    mutable sentinel_addr : int;
  }

  let size t = Array.length t.cells

  let create ~size_limit =
    {
      cells = Array.make size_limit Value.Undefined;
      brk = 0;
      free = [];
      table = Array.make 64 (-1);
      next_handle = 0;
      sentinel_addr = -1;
    }

  let alloc_cells t n =
    let rec take acc = function
      | [] -> None
      | r :: rest when r.size >= n ->
        let remainder =
          if r.size > n then [ { addr = r.addr + n; size = r.size - n } ] else []
        in
        t.free <- List.rev_append acc (remainder @ rest);
        Some r.addr
      | r :: rest -> take (r :: acc) rest
    in
    match take [] t.free with
    | Some addr -> addr
    | None ->
      let limit = if t.sentinel_addr >= 0 then t.sentinel_addr else size t in
      if t.brk + n > limit then raise Errors.Heap_exhausted;
      let base = t.brk in
      t.brk <- t.brk + n;
      base

  let free_cells t addr n =
    if n > 0 then begin
      for i = addr to addr + n - 1 do
        t.cells.(i) <- Value.Undefined
      done;
      t.free <- { addr; size = n } :: t.free
    end

  let fresh_handle t =
    let h = t.next_handle in
    t.next_handle <- h + 1;
    if h >= Array.length t.table then begin
      let table = Array.make (2 * Array.length t.table) (-1) in
      Array.blit t.table 0 table 0 (Array.length t.table);
      t.table <- table
    end;
    h

  let write_header t base ~length ~capacity =
    t.cells.(base) <- Value.Number (float_of_int length);
    t.cells.(base + 1) <- Value.Number (float_of_int capacity)

  let alloc_region t ~length ~capacity =
    let base = alloc_cells t (2 + capacity) in
    write_header t base ~length ~capacity;
    for i = 0 to length - 1 do
      t.cells.(base + 2 + i) <- Value.Undefined
    done;
    base

  let alloc_array t ~length =
    let capacity = max length 1 in
    let base = alloc_region t ~length ~capacity in
    let h = fresh_handle t in
    t.table.(h) <- base;
    h

  let base_addr t h = t.table.(h)

  let alloc_sentinel t =
    let base = size t - 2 in
    t.cells.(base) <- Value.Number Heap.sentinel_magic;
    t.cells.(base + 1) <- Value.Number Heap.sentinel_magic;
    t.sentinel_addr <- base;
    base

  let sentinel_intact t =
    t.sentinel_addr < 0
    ||
    match t.cells.(t.sentinel_addr) with
    | Value.Number f -> f = Heap.sentinel_magic
    | _ -> false

  let check_sentinel t =
    if not (sentinel_intact t) then
      raise
        (Errors.Shellcode_executed
           (Printf.sprintf "JIT code pointer at heap cell %d was overwritten" t.sentinel_addr))

  let header_int t addr =
    match t.cells.(addr) with
    | Value.Number f when Float.is_nan f -> 0
    | Value.Number f -> int_of_float f
    | _ -> 0

  let length t h = header_int t t.table.(h)

  let capacity t h = header_int t (t.table.(h) + 1)

  let set_length t h n =
    let n = max n 0 in
    let base = t.table.(h) in
    let cap = header_int t (base + 1) in
    let old_len = header_int t base in
    if n <= cap then begin
      for i = old_len to n - 1 do
        t.cells.(base + 2 + i) <- Value.Undefined
      done;
      let new_cap = max n 1 in
      if new_cap < cap then begin
        write_header t base ~length:n ~capacity:new_cap;
        free_cells t (base + 2 + new_cap) (cap - new_cap)
      end
      else t.cells.(base) <- Value.Number (float_of_int n)
    end
    else begin
      let new_cap = max n (2 * cap) in
      let new_base = alloc_region t ~length:n ~capacity:new_cap in
      Array.blit t.cells (base + 2) t.cells (new_base + 2) (min old_len n);
      for i = old_len to n - 1 do
        t.cells.(new_base + 2 + i) <- Value.Undefined
      done;
      t.table.(h) <- new_base;
      free_cells t base (2 + cap)
    end

  let get t h i =
    let base = t.table.(h) in
    let len = header_int t base in
    let addr = base + 2 + i in
    if i >= 0 && i < len && addr < size t then t.cells.(addr) else Value.Undefined

  let set t h i v =
    let base = t.table.(h) in
    let len = header_int t base in
    let addr = base + 2 + i in
    if i >= 0 && i < len then begin
      if addr < size t then t.cells.(addr) <- v
    end
    else if i = len then begin
      if len >= 0 && len < header_int t (base + 1) then begin
        t.cells.(addr) <- v;
        t.cells.(base) <- Value.Number (float_of_int (len + 1))
      end
      else begin
        set_length t h (len + 1);
        let base = t.table.(h) in
        t.cells.(base + 2 + i) <- v
      end
    end

  let get_unchecked t h i =
    let base = t.table.(h) in
    let addr = base + 2 + i in
    if addr < 0 || addr >= size t then
      Errors.crash "OOB read at heap address %d (heap size %d)" addr (size t)
    else t.cells.(addr)

  let set_unchecked t h i v =
    let base = t.table.(h) in
    let addr = base + 2 + i in
    if addr < 0 || addr >= size t then
      Errors.crash "OOB write at heap address %d (heap size %d)" addr (size t)
    else t.cells.(addr) <- v

  let push t h v =
    let base = t.table.(h) in
    let len = header_int t base in
    let cap = header_int t (base + 1) in
    if len < cap then begin
      t.cells.(base + 2 + len) <- v;
      t.cells.(base) <- Value.Number (float_of_int (len + 1))
    end
    else begin
      set_length t h (len + 1);
      let base = t.table.(h) in
      t.cells.(base + 2 + len) <- v
    end

  let pop t h =
    let base = t.table.(h) in
    let len = header_int t base in
    if len <= 0 then Value.Undefined
    else begin
      let v = t.cells.(base + 2 + (len - 1)) in
      t.cells.(base) <- Value.Number (float_of_int (len - 1));
      v
    end

  let cells_used t = t.brk
end

(* One heap operation. Handle -1 is the newest array; any other is taken
   modulo one more than the handles allocated so far, which may pick an
   unallocated handle whose table slot reads -1. Index -2 and -1 are the
   array's own length and capacity header cells. Element indices are relative to the array's base; [Forged]
   indices are absolute heap addresses, resolved against the array's base
   at run time, so forged primitives reach every page and both bounds.
   [Len k] is the array's length, as its header reads at run time, plus
   [k]: under a forged length near max_int its last element's address
   wraps negative. *)
type index =
  | Rel of int
  | Forged of int
  | Len of int

type heap_op =
  | Alloc of int
  | Set_length of int * int
  | Get of int * index
  | Set of int * index * Value.t
  | Get_unchecked of int * index
  | Set_unchecked of int * index * Value.t
  | Push of int * Value.t
  | Pop of int
  | Alloc_sentinel
  | Check_sentinel
  | Inspect of int

let show_value = function
  | Value.Number f -> Printf.sprintf "%h" f
  | v -> Value.to_display v

let show_index = function
  | Rel i -> string_of_int i
  | Forged a -> Printf.sprintf "@%d" a
  | Len k -> Printf.sprintf "len%+d" k

let show_op = function
  | Alloc n -> Printf.sprintf "alloc %d" n
  | Set_length (h, n) -> Printf.sprintf "set_length h%d %d" h n
  | Get (h, i) -> Printf.sprintf "get h%d %s" h (show_index i)
  | Set (h, i, v) -> Printf.sprintf "set h%d %s %s" h (show_index i) (show_value v)
  | Get_unchecked (h, i) -> Printf.sprintf "get_unchecked h%d %s" h (show_index i)
  | Set_unchecked (h, i, v) ->
    Printf.sprintf "set_unchecked h%d %s %s" h (show_index i) (show_value v)
  | Push (h, v) -> Printf.sprintf "push h%d %s" h (show_value v)
  | Pop h -> Printf.sprintf "pop h%d" h
  | Alloc_sentinel -> "alloc_sentinel"
  | Check_sentinel -> "check_sentinel"
  | Inspect h -> Printf.sprintf "inspect h%d" h

let heap_op_gen ~size_limit =
  let open QCheck.Gen in
  let handle = frequency [ (1, return (-1)); (2, int_range 0 8) ] in
  let value =
    frequency
      [
        (4, map (fun i -> Value.Number (float_of_int i)) (int_range (-3) 40));
        (1, map (fun k -> Value.Number (float_of_int (size_limit - k))) (int_range (-30) 30));
        (1, return Value.Undefined);
        (1, return (Value.String "junk"));
        (1, return (Value.Number Float.nan));
        (1, oneofl [ Value.Number 1e6; Value.Number (-1e6); Value.Number 4.5e15 ]);
        (1, return (Value.Number Heap.sentinel_magic));
      ]
  in
  let index =
    frequency
      [
        (4, map (fun i -> Rel i) (int_range (-3) 40));
        (2, oneofl [ Rel (-2); Rel (-1) ]);
        (1, oneofl [ Rel (-1); Rel size_limit; Rel (size_limit + 7); Rel max_int; Rel min_int ]);
        (3, map (fun k -> Len k) (int_range (-2) 1));
        (3, map (fun a -> Forged a) (int_range (-3) (size_limit + 3)));
        (1, map (fun k -> Forged (size_limit - k)) (int_range (-2) 4));
      ]
  in
  let length =
    frequency
      [
        (6, int_range 0 24);
        (1, oneofl [ size_limit / 4; size_limit / 2; size_limit - 4; size_limit ]);
        (1, int_range (-2) size_limit);
      ]
  in
  frequency
    [
      (4, map (fun n -> Alloc n) length);
      (3, map2 (fun h n -> Set_length (h, n)) handle (int_range (-3) 40));
      (1, map2 (fun h n -> Set_length (h, n)) handle length);
      (3, map2 (fun h i -> Get (h, i)) handle index);
      (4, map3 (fun h i v -> Set (h, i, v)) handle index value);
      (3, map2 (fun h i -> Get_unchecked (h, i)) handle index);
      (4, map3 (fun h i v -> Set_unchecked (h, i, v)) handle index value);
      (* a forged length near max_int, under which [Len (-1)] wraps *)
      ( 2,
        map2
          (fun h k ->
            Set_unchecked (h, Rel (-2), Value.Number (float_of_int (max_int + 1 - (512 * k)))))
          handle (int_range 1 3) );
      (2, map2 (fun h v -> Push (h, v)) handle value);
      (2, map (fun h -> Pop h) handle);
      (1, return Alloc_sentinel);
      (1, return Check_sentinel);
      (2, map (fun h -> Inspect h) handle);
    ]

(* Run [ops] on a fresh heap of [size_limit] cells through [M] and
   describe each outcome (value, or exception with its message) and the
   heap's counters after it; after the last op, a sweep of every cell (a
   strided sample past 4096 cells) read through a forged primitive. *)
module Run (M : sig
  type t

  val create : size_limit:int -> t
  val size : t -> int
  val alloc_array : t -> length:int -> int
  val base_addr : t -> int -> int
  val alloc_sentinel : t -> int
  val check_sentinel : t -> unit
  val sentinel_intact : t -> bool
  val length : t -> int -> int
  val capacity : t -> int -> int
  val set_length : t -> int -> int -> unit
  val get : t -> int -> int -> Value.t
  val set : t -> int -> int -> Value.t -> unit
  val get_unchecked : t -> int -> int -> Value.t
  val set_unchecked : t -> int -> int -> Value.t -> unit
  val push : t -> int -> Value.t -> unit
  val pop : t -> int -> Value.t
  val cells_used : t -> int
end) =
struct
  (* [hook k t] runs before step [k], and once more after the last; a
     given [heap] is used instead of a fresh one *)
  let run ?(hook = fun _ _ -> ()) ?heap ~size_limit ops =
    let t = match heap with Some t -> t | None -> M.create ~size_limit in
    let handles = ref 0 in
    let out = Buffer.create 1024 in
    let handle k = if k < 0 then max 0 (!handles - 1) else k mod (!handles + 1) in
    let index h = function
      | Rel i -> i
      | Forged a -> a - M.base_addr t h - 2
      | Len k -> M.length t h + k
    in
    let outcome f =
      match f () with
      | s -> s
      | exception e -> "raise " ^ Printexc.to_string e
    in
    let step op =
      match op with
      | Alloc n ->
        let h = M.alloc_array t ~length:n in
        incr handles;
        Printf.sprintf "h%d" h
      | Set_length (h, n) -> M.set_length t (handle h) n; "()"
      | Get (h, i) ->
        let h = handle h in
        show_value (M.get t h (index h i))
      | Set (h, i, v) ->
        let h = handle h in
        M.set t h (index h i) v; "()"
      | Get_unchecked (h, i) ->
        let h = handle h in
        show_value (M.get_unchecked t h (index h i))
      | Set_unchecked (h, i, v) ->
        let h = handle h in
        M.set_unchecked t h (index h i) v; "()"
      | Push (h, v) -> M.push t (handle h) v; "()"
      | Pop h -> show_value (M.pop t (handle h))
      | Alloc_sentinel -> string_of_int (M.alloc_sentinel t)
      | Check_sentinel -> M.check_sentinel t; "()"
      | Inspect h ->
        let h = handle h in
        Printf.sprintf "base %d length %d capacity %d" (M.base_addr t h) (M.length t h)
          (M.capacity t h)
    in
    List.iteri
      (fun k op ->
        hook k t;
        let r = outcome (fun () -> step op) in
        Printf.bprintf out "%s -> %s | used %d size %d intact %b\n" (show_op op) r
          (M.cells_used t) (M.size t) (M.sentinel_intact t))
      ops;
    hook (List.length ops) t;
    if !handles > 0 then begin
      let stride = if size_limit <= 4096 then 1 else 1009 in
      let sweep a =
        Printf.bprintf out "@%d %s\n" a
          (outcome (fun () -> show_value (M.get_unchecked t 0 (index 0 (Forged a)))))
      in
      let a = ref (-1) in
      while !a <= size_limit do
        sweep !a;
        a := !a + stride
      done;
      for a = max 0 (size_limit - 2050) to size_limit do
        sweep a
      done
    end;
    Buffer.contents out
end

module Run_reference = Run (Reference)

module Run_heap = Run (struct
  include Heap

  let create ~size_limit = Heap.create ~size_limit ()
end)

let check_same_as_reference ~size_limit ops =
  check_string
    (Printf.sprintf "size %d: %s" size_limit (String.concat "; " (List.map show_op ops)))
    (Run_reference.run ~size_limit ops) (Run_heap.run ~size_limit ops)

(* Corrupted headers drive the bulk moves out of bounds: the array
   bounds check must fire at the first cell past a heap of 1000 cells,
   not at the end of its last page, a corrupted length too large for its
   region makes a grow copy overlap its destination, and an out-of-range
   copy raises [Array.blit]'s own message. *)
let test_heap_edges () =
  let n k = Value.Number (float_of_int k) in
  let corrupt ?(h = 0) ~length ~capacity () =
    [ Set_unchecked (h, Rel (-2), n length); Set_unchecked (h, Rel (-1), n capacity) ]
  in
  check_same_as_reference ~size_limit:1000
    ((Alloc 1 :: corrupt ~length:1 ~capacity:2000 ()) @ [ Set_length (0, 1010) ]);
  check_same_as_reference ~size_limit:1000
    ((Alloc 1 :: corrupt ~length:999 ~capacity:2000 ()) @ [ Push (0, n 7); Pop 0 ]);
  check_same_as_reference ~size_limit:1000 [ Alloc 1; Get_unchecked (0, Forged 1001) ];
  check_same_as_reference ~size_limit:4096
    ((Alloc 4 :: List.init 16 (fun k -> Set_unchecked (0, Forged (6 + k), n (100 + k))))
    @ [ Set_unchecked (0, Rel (-2), n 14); Set_length (0, 10) ]);
  List.iter
    (fun length ->
      check_same_as_reference ~size_limit:64
        ((Alloc 2 :: corrupt ~length ~capacity:2 ()) @ [ Set_length (0, 30) ]))
    [ -5; 200 ];
  (* the grow copy's source ends exactly at the top of the heap *)
  check_same_as_reference ~size_limit:64
    ([ Alloc 40; Alloc 1; Set_length (0, 0) ]
    @ corrupt ~h:1 ~length:20 ~capacity:1 ()
    @ [ Set_length (1, 20); Inspect 1 ]);
  check_same_as_reference ~size_limit:2048
    [ Set_unchecked (0, Forged 1500, n 1); Alloc 1; Set_unchecked (0, Forged 1500, n 1) ];
  check_same_as_reference ~size_limit:1 [ Alloc_sentinel; Check_sentinel; Alloc 0 ];
  (* a length header of 2^62 - 512 on an array based past cell 511: the
     address of its last element wraps negative, which must fail the bounds
     check, not read or write outside the page table *)
  let length = max_int - 511 in
  check_same_as_reference ~size_limit:2048
    ([ Alloc 600; Alloc 1 ]
    @ corrupt ~h:1 ~length ~capacity:1 ()
    @ [ Get (1, Len (-1)); Set (1, Len (-1), n 5); Inspect 1 ])

let qcheck_heap_equals_reference size_limit =
  let gen = QCheck.Gen.list_size (QCheck.Gen.int_range 1 60) (heap_op_gen ~size_limit) in
  let arb = QCheck.make ~print:(fun ops -> String.concat "\n" (List.map show_op ops)) gen in
  QCheck.Test.make ~count:(qcheck_count 100)
    ~name:(Printf.sprintf "heap equals flat reference (size %d)" size_limit)
    arb
    (fun ops ->
      let expected = Run_reference.run ~size_limit ops in
      let got = Run_heap.run ~size_limit ops in
      expected = got
      || QCheck.Test.fail_reportf "paged heap diverges from the flat reference:\n%s\nvs\n%s"
           got expected)

(* A random heap-op sequence, and the step before which the mirror is
   built (past the last step: after it). *)
let mirror_ops_arb size_limit =
  let gen =
    QCheck.Gen.(pair (int_bound 64) (list_size (int_range 1 60) (heap_op_gen ~size_limit)))
  in
  QCheck.make
    ~print:(fun (at, ops) ->
      Printf.sprintf "mirror before step %d of\n%s" at (String.concat "\n" (List.map show_op ops)))
    gen

(* The mirror native code reads, built at a random step and kept up to
   date by the steps after it: at the end of the sequence every cell's
   mirror bits are its [Nanbox.cell_bits], every handle's mirror base is
   its base, and the descriptor counts the handles and the cells. *)
let qcheck_mirror_equals_heap size_limit =
  QCheck.Test.make ~count:(qcheck_count 100)
    ~name:(Printf.sprintf "heap mirror equals the heap (size %d)" size_limit)
    (mirror_ops_arb size_limit)
    (fun (at, ops) ->
      let t = Heap.create ~size_limit () in
      ignore (Run_heap.run ~heap:t ~size_limit ops ~hook:(fun k t ->
          if k = at then ignore (Heap.mirror t)));
      let desc = Heap.mirror t in
      let n = Int64.to_int desc.{Heap.desc_next_handle} in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      if Int64.to_int desc.{Heap.desc_size_limit} <> size_limit then fail "size";
      (match Heap.base_addr t n with
      | -1 | (exception Invalid_argument _) -> ()
      | _ -> fail "handle %d is allocated past the mirror's count" n);
      for h = 0 to n - 1 do
        if Heap.mirror_base t h <> Int64.of_int (Heap.base_addr t h) then
          fail "handle %d: mirror base %Ld, base %d" h (Heap.mirror_base t h) (Heap.base_addr t h)
      done;
      if n > 0 then begin
        let base0 = Heap.base_addr t 0 in
        for a = 0 to size_limit - 1 do
          let v = Heap.get_unchecked t 0 (a - base0 - 2) in
          if Heap.mirror_cell t a <> Nanbox.cell_bits v then
            fail "cell %d: mirror %Lx, cell %s" a (Heap.mirror_cell t a) (show_value v)
        done
      end;
      true)

(* An indexed append within capacity writes in place, as [push] does:
   400 appends by [a[a.length] = x] take as many heap cells as 400
   [push]es (they took 80,804 when each trimmed the capacity to the
   length and regrew). *)
let test_indexed_append_cells () =
  let cells append =
    interp_output
      (Printf.sprintf
         "var a = [0]; var c0 = __heapCells();\n\
          for (var i = 1; i <= 400; i = i + 1) { %s; } print(__heapCells() - c0);"
         append)
  in
  check_string "indexed appends" "1040\n" (cells "a[a.length] = i");
  check_string "pushes" "1040\n" (cells "a.push(i)")

(* ---- builtins ---- *)

let realm () = Realm.create ~size_limit:4096 ()

let test_math_builtins () =
  let r = realm () in
  check_bool "floor" true (Builtins.call_namespace r "Math" "floor" [ num 3.7 ] = num 3.0);
  check_bool "max multi" true (Builtins.call_namespace r "Math" "max" [ num 1.0; num 9.0; num 4.0 ] = num 9.0);
  check_bool "min empty" true (Builtins.call_namespace r "Math" "min" [] = num Float.infinity);
  check_bool "pow" true (Builtins.call_namespace r "Math" "pow" [ num 2.0; num 10.0 ] = num 1024.0);
  match Builtins.call_namespace r "Math" "nosuch" [] with
  | exception Errors.Type_error _ -> ()
  | _ -> Alcotest.fail "unknown Math function should raise"

let test_string_methods () =
  let r = realm () in
  (match Builtins.call_method r (Value.String "hello") "charCodeAt" [ num 1.0 ] with
  | `Value v -> check_bool "charCodeAt" true (v = num 101.0)
  | _ -> Alcotest.fail "expected value");
  (match Builtins.call_method r (Value.String "hello") "indexOf" [ Value.String "ll" ] with
  | `Value v -> check_bool "indexOf" true (v = num 2.0)
  | _ -> Alcotest.fail "expected value");
  match Builtins.call_method r (Value.String "hello") "substring" [ num 1.0; num 3.0 ] with
  | `Value v -> check_bool "substring" true (v = Value.String "el")
  | _ -> Alcotest.fail "expected value"

let test_array_methods () =
  let r = realm () in
  let h = Heap.alloc_array r.Realm.heap ~length:0 in
  (match Builtins.call_method r (Value.Array h) "push" [ num 1.0; num 2.0 ] with
  | `Value v -> check_bool "push returns length" true (v = num 2.0)
  | _ -> Alcotest.fail "expected value");
  (match Builtins.call_method r (Value.Array h) "indexOf" [ num 2.0 ] with
  | `Value v -> check_bool "indexOf" true (v = num 1.0)
  | _ -> Alcotest.fail "expected value");
  (match Builtins.call_method r (Value.Array h) "join" [ Value.String "-" ] with
  | `Value v -> check_bool "join" true (v = Value.String "1-2")
  | _ -> Alcotest.fail "expected value");
  match Builtins.call_method r (Value.Array h) "slice" [ num 1.0 ] with
  | `Value (Value.Array h2) -> check_int "slice length" 1 (Heap.length r.Realm.heap h2)
  | _ -> Alcotest.fail "expected array"

let test_member_access () =
  let r = realm () in
  let h = Heap.alloc_array r.Realm.heap ~length:5 in
  check_bool "array length" true (Builtins.get_member r (Value.Array h) "length" = num 5.0);
  check_bool "string length" true (Builtins.get_member r (Value.String "abc") "length" = num 3.0);
  Builtins.set_member r (Value.Array h) "length" (num 2.0);
  check_int "length write resizes" 2 (Heap.length r.Realm.heap h);
  let obj = Hashtbl.create 4 in
  Builtins.set_member r (Value.Object obj) "x" (num 1.0);
  check_bool "object field" true (Builtins.get_member r (Value.Object obj) "x" = num 1.0);
  check_bool "missing field undefined" true
    (Builtins.get_member r (Value.Object obj) "nope" = Value.Undefined)

let test_user_function_property () =
  let r = realm () in
  let obj = Hashtbl.create 4 in
  Hashtbl.replace obj "m" (Value.Function 3);
  match Builtins.call_method r (Value.Object obj) "m" [ num 1.0 ] with
  | `User_function (3, [ v ]) -> check_bool "args forwarded" true (v = num 1.0)
  | _ -> Alcotest.fail "expected user function dispatch"

let suite =
  ( "runtime",
    [
      Alcotest.test_case "to_number" `Quick test_to_number;
      Alcotest.test_case "to_boolean" `Quick test_to_boolean;
      Alcotest.test_case "int32/uint32" `Quick test_int32;
      Alcotest.test_case "to_index" `Quick test_to_index;
      Alcotest.test_case "binary add" `Quick test_binary_add;
      Alcotest.test_case "equality" `Quick test_equality;
      Alcotest.test_case "comparisons/shifts" `Quick test_comparisons;
      Alcotest.test_case "heap adjacency" `Quick test_heap_alloc_adjacent;
      Alcotest.test_case "heap checked access" `Quick test_heap_checked_access;
      Alcotest.test_case "heap shrink reclaims" `Quick test_heap_shrink_reclaims;
      Alcotest.test_case "heap stale data" `Quick test_heap_shrink_keeps_stale;
      Alcotest.test_case "heap grow reallocates" `Quick test_heap_grow_reallocates;
      Alcotest.test_case "heap push/pop" `Quick test_heap_push_pop;
      Alcotest.test_case "heap unchecked corruption" `Quick test_heap_unchecked_corruption;
      Alcotest.test_case "heap unchecked crash" `Quick test_heap_unchecked_crash;
      Alcotest.test_case "heap sentinel" `Quick test_heap_sentinel;
      Alcotest.test_case "heap exhaustion" `Quick test_heap_exhaustion;
      Alcotest.test_case "heap corrupted header" `Quick test_heap_corrupted_header_is_tolerated;
      Alcotest.test_case "indexed append cells" `Quick test_indexed_append_cells;
    ]
    @ Alcotest.test_case "heap edges equal flat reference" `Quick test_heap_edges
      :: List.map
        (fun size_limit -> qtest (qcheck_heap_equals_reference size_limit))
        [ 64; 1000; 4096; 1 lsl 18 ]
    @ List.map (fun size_limit -> qtest (qcheck_mirror_equals_heap size_limit)) [ 64; 1000; 4096 ]
    @ [
      Alcotest.test_case "Math builtins" `Quick test_math_builtins;
      Alcotest.test_case "string methods" `Quick test_string_methods;
      Alcotest.test_case "array methods" `Quick test_array_methods;
      Alcotest.test_case "member access" `Quick test_member_access;
      Alcotest.test_case "user function property" `Quick test_user_function_property;
    ] )
