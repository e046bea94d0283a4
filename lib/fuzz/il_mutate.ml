(* Typed mutators over Il programs. See il_mutate.mli.

   All mutators follow the same two-pass shape: one deterministic walk
   over the program enumerates candidate sites (with the typing
   environment at each), the Prng picks one, and a second walk applies
   the edit at that site. A final Il.typecheck guards every construction
   so a [Some] result is valid by construction. *)

open Il
module Prng = Jitbull_util.Prng

type kind = Splice | Combine | Codegen | Retarget | Perturb | Wrap_loop

let kinds = [ Splice; Combine; Codegen; Retarget; Perturb; Wrap_loop ]

let kind_name = function
  | Splice -> "splice"
  | Combine -> "combine"
  | Codegen -> "codegen"
  | Retarget -> "retarget"
  | Perturb -> "perturb"
  | Wrap_loop -> "wrap_loop"

(* ------------------------------------------------------------------ *)
(* Environment walk                                                   *)
(* ------------------------------------------------------------------ *)

type entry = { e_ty : ty; tainted : bool; counter : bool }

(* Which body a site lives in: main sees every function as callable,
   f<i> only lower-indexed ones. *)
type ctx = { fn : int option; callable : int }

let extend env = function
  | Const (d, _) -> (d, { e_ty = Num; tainted = false; counter = false }) :: env
  | Str_const (d, _) -> (d, { e_ty = Str; tainted = false; counter = false }) :: env
  | Bool_const (d, _) -> (d, { e_ty = Bool; tainted = false; counter = false }) :: env
  | Binop (d, _, _, _) -> (d, { e_ty = Num; tainted = false; counter = false }) :: env
  | Cmp (d, _, _, _) -> (d, { e_ty = Bool; tainted = false; counter = false }) :: env
  | Not (d, _) -> (d, { e_ty = Bool; tainted = false; counter = false }) :: env
  | Array_of (d, _) -> (d, { e_ty = Arr; tainted = false; counter = false }) :: env
  | Get_len (d, _) | Gget_len (d, _) ->
    (d, { e_ty = Num; tainted = true; counter = false }) :: env
  | Get_elem (d, _, _) | Gget_elem (d, _, _) | Call (d, _, _) ->
    (d, { e_ty = Num; tainted = false; counter = false }) :: env
  | Copy _ | Update _ | Set_len _ | Set_elem _ | Gnew _ | Gset_len _ | Gset_elem _
  | Print _ | Print_tag _ | If _ | Loop _ | Loop_n _ ->
    env

(* Rebuild a program, letting [gap] inject instructions at every gap
   (before each instruction and at each body end) and [ins] replace each
   instruction. Visit order is fixed: functions in order, then main;
   within a body, gap 0, instr 0, gap 1, instr 1, …, trailing gap; an
   instruction's nested bodies are visited after the instruction itself.
   Callbacks see the typing environment and structural depth of the
   site, and number sites themselves (the visit order is deterministic
   so one counting pass and one applying pass line up exactly). *)
let walk p ~(gap : ctx -> entry_env:(var * entry) list -> depth:int -> instr list)
    ~(ins : ctx -> entry_env:(var * entry) list -> depth:int -> instr -> instr) =
  let rec body ctx env depth instrs =
    let out = ref [] in
    let env = ref env in
    List.iter
      (fun i ->
        out := List.rev_append (gap ctx ~entry_env:!env ~depth) !out;
        let i = ins ctx ~entry_env:!env ~depth i in
        let i =
          match i with
          | If (c, a, b) ->
            If (c, body ctx !env (depth + 1) a, body ctx !env (depth + 1) b)
          | Loop (c, k, b) ->
            let inner = (c, { e_ty = Num; tainted = false; counter = true }) :: !env in
            Loop (c, k, body ctx inner (depth + 1) b)
          | Loop_n (c, n, b) ->
            let inner = (c, { e_ty = Num; tainted = false; counter = true }) :: !env in
            Loop_n (c, n, body ctx inner (depth + 1) b)
          | i -> i
        in
        out := i :: !out;
        env := extend !env i)
      instrs;
    out := List.rev_append (gap ctx ~entry_env:!env ~depth) !out;
    List.rev !out
  in
  let funcs =
    List.mapi
      (fun i (f : func) ->
        let ctx = { fn = Some i; callable = i } in
        let env0 =
          List.init f.arity (fun p ->
              (p, { e_ty = Num; tainted = false; counter = false }))
        in
        { f with body = body ctx env0 0 f.body })
      p.funcs
  in
  let main =
    body { fn = None; callable = List.length p.funcs } [] 0 p.main
  in
  { p with funcs; main }

let no_gap _ ~entry_env:_ ~depth:_ = []
let no_ins _ ~entry_env:_ ~depth:_ i = i

(* ------------------------------------------------------------------ *)
(* Structural helpers                                                 *)
(* ------------------------------------------------------------------ *)

let rec instr_depth = function
  | If (_, a, b) -> 1 + max (body_depth a) (body_depth b)
  | Loop (_, _, b) | Loop_n (_, _, b) -> 1 + body_depth b
  | _ -> 0

and body_depth b = List.fold_left (fun acc i -> max acc (instr_depth i)) 0 b

(* All defining occurrences in an instruction, nested bodies included
   (loop counters count). *)
let rec defs_rec acc = function
  | Const (d, _) | Str_const (d, _) | Bool_const (d, _) | Binop (d, _, _, _)
  | Cmp (d, _, _, _) | Not (d, _) | Array_of (d, _) | Get_len (d, _)
  | Get_elem (d, _, _) | Gget_len (d, _) | Gget_elem (d, _, _) | Call (d, _, _) ->
    d :: acc
  | Copy _ | Update _ | Set_len _ | Set_elem _ | Gnew _ | Gset_len _ | Gset_elem _
  | Print _ | Print_tag _ ->
    acc
  | If (_, a, b) -> List.fold_left defs_rec (List.fold_left defs_rec acc a) b
  | Loop (c, _, b) | Loop_n (c, _, b) -> List.fold_left defs_rec (c :: acc) b

(* Requirements a replacement variable must satisfy when a use is
   remapped during splice. *)
type req = { r_ty : ty option; r_tainted : bool; r_writable : bool }

let any_req = { r_ty = None; r_tainted = false; r_writable = false }
let num_req = { any_req with r_ty = Some Num }
let bool_req = { any_req with r_ty = Some Bool }
let arr_req = { any_req with r_ty = Some Arr }

let merge_req a b =
  {
    r_ty = (match a.r_ty with None -> b.r_ty | Some _ -> a.r_ty);
    r_tainted = a.r_tainted || b.r_tainted;
    r_writable = a.r_writable || b.r_writable;
  }

let satisfies (e : entry) req =
  (match req.r_ty with None -> true | Some t -> e.e_ty = t)
  && ((not req.r_tainted) || e.tainted)
  && ((not req.r_writable) || ((not e.counter) && (not e.tainted) && e.e_ty = Num))

(* All variable uses of an instruction with their requirements, nested
   bodies included. *)
let rec uses_rec acc = function
  | Const _ | Str_const _ | Bool_const _ | Gset_len _ | Gget_len _ -> acc
  | Binop (_, _, a, b) | Cmp (_, _, a, b) -> (a, num_req) :: (b, num_req) :: acc
  | Not (_, a) -> (a, bool_req) :: acc
  | Copy (d, s) | Update (d, _, s) ->
    (d, { num_req with r_writable = true }) :: (s, num_req) :: acc
  | Array_of (_, elems) | Gnew (_, elems) ->
    List.fold_left (fun acc v -> (v, num_req) :: acc) acc elems
  | Get_len (_, a) -> (a, arr_req) :: acc
  | Set_len (a, _) -> (a, arr_req) :: acc
  | Get_elem (_, a, i) -> (a, arr_req) :: (i, num_req) :: acc
  | Set_elem (a, i, x) -> (a, arr_req) :: (i, num_req) :: (x, num_req) :: acc
  | Gget_elem (_, _, i) -> (i, num_req) :: acc
  | Gset_elem (_, i, x) -> (i, num_req) :: (x, num_req) :: acc
  | Call (_, _, args) -> List.fold_left (fun acc v -> (v, num_req) :: acc) acc args
  | Print v | Print_tag (_, v) -> (v, any_req) :: acc
  | If (c, a, b) ->
    (c, bool_req) :: List.fold_left uses_rec (List.fold_left uses_rec acc a) b
  | Loop (_, _, b) -> List.fold_left uses_rec acc b
  | Loop_n (_, n, b) ->
    (n, { num_req with r_tainted = true }) :: List.fold_left uses_rec acc b

let rec has_call = function
  | Call _ -> true
  | If (_, a, b) -> List.exists has_call a || List.exists has_call b
  | Loop (_, _, b) | Loop_n (_, _, b) -> List.exists has_call b
  | _ -> false

(* Apply a variable renaming (defaulting to identity) everywhere. *)
let rec rename r = function
  | Const (d, x) -> Const (r d, x)
  | Str_const (d, s) -> Str_const (r d, s)
  | Bool_const (d, b) -> Bool_const (r d, b)
  | Binop (d, op, a, b) -> Binop (r d, op, r a, r b)
  | Cmp (d, op, a, b) -> Cmp (r d, op, r a, r b)
  | Not (d, a) -> Not (r d, r a)
  | Copy (d, s) -> Copy (r d, r s)
  | Update (d, op, s) -> Update (r d, op, r s)
  | Array_of (d, elems) -> Array_of (r d, List.map r elems)
  | Get_len (d, a) -> Get_len (r d, r a)
  | Set_len (a, k) -> Set_len (r a, k)
  | Get_elem (d, a, i) -> Get_elem (r d, r a, r i)
  | Set_elem (a, i, x) -> Set_elem (r a, r i, r x)
  | Gnew (k, elems) -> Gnew (k, List.map r elems)
  | Gget_len (d, k) -> Gget_len (r d, k)
  | Gset_len (k, n) -> Gset_len (k, n)
  | Gget_elem (d, k, i) -> Gget_elem (r d, k, r i)
  | Gset_elem (k, i, x) -> Gset_elem (k, r i, r x)
  | Call (d, k, args) -> Call (r d, k, List.map r args)
  | Print v -> Print (r v)
  | Print_tag (t, v) -> Print_tag (t, r v)
  | If (c, a, b) -> If (r c, List.map (rename r) a, List.map (rename r) b)
  | Loop (c, k, b) -> Loop (r c, k, List.map (rename r) b)
  | Loop_n (c, n, b) -> Loop_n (r c, r n, List.map (rename r) b)

(* First unused variable id in the body that owns [ctx]'s sites. *)
let fresh_base p ctx =
  let scan arity body extra =
    let m = List.fold_left defs_rec [] body in
    let m = List.fold_left (fun acc v -> max acc v) (arity - 1) m in
    let m = match extra with Some v -> max m v | None -> m in
    m + 1
  in
  match ctx.fn with
  | None -> scan 0 p.main None
  | Some i ->
    let f = List.nth p.funcs i in
    scan f.arity f.body f.ret

(* Candidate-site bookkeeping: mutators count matching sites in one walk,
   draw an index, and apply on a second identical walk. *)
let guard p = match Il.typecheck p with Ok () -> Some p | Error _ -> None

let const_pool = [| 0.; 1.; 2.; 3.; 5.; 7.; 12.; 255.; 65536.; 5000000.; 1073741824. |]

let rand_const rng = const_pool.(Prng.int rng (Array.length const_pool))

(* ------------------------------------------------------------------ *)
(* Perturb                                                            *)
(* ------------------------------------------------------------------ *)

let perturb rng p =
  let nudge_float rng x =
    match Prng.int rng 6 with
    | 0 -> x +. 1.
    | 1 -> x -. 1.
    | 2 -> x *. 2.
    | 3 -> Float.of_int (Prng.int rng 16)
    | 4 -> rand_const rng
    | _ -> if Float.abs x > 1. then x /. 2. else x +. 3.
  in
  let candidate = function
    | Const _ | Bool_const _ | Binop _ | Cmp _ | Update _ | Set_len _ | Gset_len _
    | Loop _ ->
      true
    | _ -> false
  in
  let n = ref 0 in
  ignore
    (walk p ~gap:no_gap ~ins:(fun _ ~entry_env:_ ~depth:_ i ->
         if candidate i then incr n;
         i));
  if !n = 0 then None
  else begin
    let target = Prng.int rng !n in
    let seen = ref 0 in
    let apply i =
      match i with
      | Const (d, x) ->
        let x' = nudge_float rng x in
        Const (d, (if Float.is_finite x' then x' else 1.))
      | Bool_const (d, b) -> Bool_const (d, not b)
      | Binop (d, _, a, b) ->
        Binop (d, List.nth all_binops (Prng.int rng (List.length all_binops)), a, b)
      | Cmp (d, _, a, b) ->
        Cmp (d, List.nth all_cmpops (Prng.int rng (List.length all_cmpops)), a, b)
      | Update (d, _, s) ->
        Update (d, List.nth all_binops (Prng.int rng (List.length all_binops)), s)
      | Set_len (a, _) -> Set_len (a, Prng.int rng (max_set_len + 1))
      | Gset_len (k, _) -> Gset_len (k, Prng.int rng (max_set_len + 1))
      | Loop (c, _, b) -> Loop (c, 1 + Prng.int rng 24, b)
      | i -> i
    in
    let p' =
      walk p ~gap:no_gap ~ins:(fun _ ~entry_env:_ ~depth:_ i ->
          if candidate i then begin
            let here = !seen in
            incr seen;
            if here = target then apply i else i
          end
          else i)
    in
    guard p'
  end

(* ------------------------------------------------------------------ *)
(* Retarget                                                           *)
(* ------------------------------------------------------------------ *)

(* Rewire one operand to a different in-scope variable of a compatible
   type. Operand slots are numbered per instruction; defs are not
   operands. *)
let operand_slots env i =
  let compat req = List.filter (fun (_, e) -> satisfies e req) env in
  let slot k req rebuild =
    let alts = List.map fst (compat req) in
    if alts = [] then None else Some (k, alts, rebuild)
  in
  match i with
  | Binop (d, op, a, b) ->
    [
      slot 0 num_req (fun v -> Binop (d, op, v, b));
      slot 1 num_req (fun v -> Binop (d, op, a, v));
    ]
  | Cmp (d, op, a, b) ->
    [
      slot 0 num_req (fun v -> Cmp (d, op, v, b));
      slot 1 num_req (fun v -> Cmp (d, op, a, v));
    ]
  | Not (d, _) -> [ slot 0 bool_req (fun v -> Not (d, v)) ]
  | Copy (d, _) -> [ slot 0 num_req (fun v -> Copy (d, v)) ]
  | Update (d, op, _) -> [ slot 0 num_req (fun v -> Update (d, op, v)) ]
  | Get_elem (d, a, _) -> [ slot 0 num_req (fun v -> Get_elem (d, a, v)) ]
  | Set_elem (a, i', x) ->
    [
      slot 0 num_req (fun v -> Set_elem (a, v, x));
      slot 1 num_req (fun v -> Set_elem (a, i', v));
    ]
  | Gget_elem (d, k, _) -> [ slot 0 num_req (fun v -> Gget_elem (d, k, v)) ]
  | Gset_elem (k, i', x) ->
    [
      slot 0 num_req (fun v -> Gset_elem (k, v, x));
      slot 1 num_req (fun v -> Gset_elem (k, i', v));
    ]
  | Set_len (_, k) -> [ slot 0 arr_req (fun v -> Set_len (v, k)) ]
  | Get_len (d, _) -> [ slot 0 arr_req (fun v -> Get_len (d, v)) ]
  | Print _ -> [ slot 0 any_req (fun v -> Print v) ]
  | Print_tag (t, _) -> [ slot 0 any_req (fun v -> Print_tag (t, v)) ]
  | If (_, a, b) -> [ slot 0 bool_req (fun v -> If (v, a, b)) ]
  | Loop_n (c, _, b) ->
    [ slot 0 { num_req with r_tainted = true } (fun v -> Loop_n (c, v, b)) ]
  | Call (d, k, args) ->
    List.mapi
      (fun idx _ ->
        slot idx num_req (fun v ->
            Call (d, k, List.mapi (fun j a -> if j = idx then v else a) args)))
      args
  | _ -> []

let retarget rng p =
  let n = ref 0 in
  ignore
    (walk p ~gap:no_gap ~ins:(fun _ ~entry_env ~depth:_ i ->
         List.iter
           (function Some _ -> incr n | None -> ())
           (operand_slots entry_env i);
         i));
  if !n = 0 then None
  else begin
    let target = Prng.int rng !n in
    let seen = ref 0 in
    let p' =
      walk p ~gap:no_gap ~ins:(fun _ ~entry_env ~depth:_ i ->
          let slots = List.filter_map Fun.id (operand_slots entry_env i) in
          let chosen =
            List.find_opt
              (fun _ ->
                let here = !seen in
                incr seen;
                here = target)
              slots
          in
          match chosen with
          | Some (_, alts, rebuild) -> rebuild (List.nth alts (Prng.int rng (List.length alts)))
          | None -> i)
    in
    guard p'
  end

(* ------------------------------------------------------------------ *)
(* Codegen                                                            *)
(* ------------------------------------------------------------------ *)

(* Generate a small typed snippet valid in [env]. Fresh ids are handed
   out by [next]. *)
let gen_snippet rng p ctx env depth next =
  let nums = List.filter (fun (_, e) -> e.e_ty = Num) env in
  let wnums = List.filter (fun (_, e) -> satisfies e { num_req with r_writable = true }) env in
  let bools = List.filter (fun (_, e) -> e.e_ty = Bool) env in
  let arrs = List.filter (fun (_, e) -> e.e_ty = Arr) env in
  let scalars = List.filter (fun (_, e) -> e.e_ty <> Arr) env in
  let pick l = fst (List.nth l (Prng.int rng (List.length l))) in
  (* Ensure a Num operand exists, synthesizing a constant if needed. *)
  let with_num k =
    match nums with
    | [] ->
      let c = next () in
      Const (c, rand_const rng) :: k c
    | _ -> k (pick nums)
  in
  let simple () =
    match Prng.int rng 6 with
    | 0 -> [ Const (next (), rand_const rng) ]
    | 1 -> with_num (fun a -> with_num (fun b ->
        [ Binop (next (), List.nth all_binops (Prng.int rng 11), a, b) ]))
    | 2 when wnums <> [] ->
      with_num (fun s -> [ Update (pick wnums, List.nth all_binops (Prng.int rng 11), s) ])
    | 3 when arrs <> [] -> with_num (fun i -> [ Get_elem (next (), pick arrs, i) ])
    | 4 when arrs <> [] ->
      with_num (fun i -> with_num (fun x -> [ Set_elem (pick arrs, i, x) ]))
    | _ -> with_num (fun a -> with_num (fun b ->
        [ Cmp (next (), List.nth all_cmpops (Prng.int rng 6), a, b) ]))
  in
  match Prng.int rng 10 with
  | 0 | 1 | 2 -> simple ()
  | 3 ->
    (* array material *)
    with_num (fun x ->
        let elems = List.init (Prng.int rng 6) (fun _ -> x) in
        [ Array_of (next (), elems) ])
  | 4 when arrs <> [] ->
    let a = pick arrs in
    (match Prng.int rng 3 with
    | 0 -> [ Get_len (next (), a) ]
    | 1 -> [ Set_len (a, Prng.int rng (max_set_len + 1)) ]
    | _ -> with_num (fun i -> [ Get_elem (next (), a, i) ]))
  | 5 when p.globals > 0 ->
    let k = Prng.int rng p.globals in
    (* global reads are main-only: a bailed-out function replays from its
       entry, so reads of state it already wrote would diverge *)
    (match Prng.int rng 3 with
    | 0 when ctx.fn = None -> [ Gget_len (next (), k) ]
    | 1 when ctx.fn = None -> with_num (fun i -> [ Gget_elem (next (), k, i) ])
    | _ -> with_num (fun i -> with_num (fun x -> [ Gset_elem (k, i, x) ])))
  | 6 when ctx.callable > 0 ->
    let k = Prng.int rng ctx.callable in
    let callee = List.nth p.funcs k in
    let rec args acc pre n =
      if n = 0 then List.rev pre @ [ Call (next (), k, List.rev acc) ]
      else
        match nums with
        | [] ->
          let c = next () in
          args (c :: acc) (Const (c, rand_const rng) :: pre) (n - 1)
        | _ -> args (pick nums :: acc) pre (n - 1)
    in
    args [] [] callee.arity
  | 7 when depth < max_nesting ->
    (* a guarded block; synthesize the condition if no Bool is around *)
    let body = simple () in
    (match bools with
    | [] ->
      with_num (fun a ->
          with_num (fun b ->
              let c = next () in
              [ Cmp (c, List.nth all_cmpops (Prng.int rng 6), a, b); If (c, body, []) ]))
    | _ -> [ If (pick bools, body, []) ])
  | 8 when depth < max_nesting ->
    let c = next () in
    (* loop body may use the counter *)
    let body =
      match Prng.int rng 2 with
      | 0 when wnums <> [] ->
        [ Update (pick wnums, List.nth all_binops (Prng.int rng 11), c) ]
      | _ -> [ Binop (next (), Mul, c, c) ]
    in
    [ Loop (c, 1 + Prng.int rng 16, body) ]
  | _ when ctx.fn = None && scalars <> [] ->
    (* an array prints as its heap handle, which a bailout replay shifts *)
    [ Print_tag ("probe ", pick scalars) ]
  | _ -> simple ()

let codegen rng p =
  let n = ref 0 in
  ignore (walk p ~gap:(fun _ ~entry_env:_ ~depth:_ -> incr n; []) ~ins:no_ins);
  if !n = 0 then None
  else begin
    let target = Prng.int rng !n in
    let seen = ref 0 in
    let fresh = ref (-1) in
    let p' =
      walk p
        ~gap:(fun ctx ~entry_env ~depth ->
          let here = !seen in
          incr seen;
          if here <> target then []
          else begin
            if !fresh < 0 then fresh := fresh_base p ctx;
            let next () =
              let v = !fresh in
              incr fresh;
              v
            in
            gen_snippet rng p ctx entry_env depth next
          end)
        ~ins:no_ins
    in
    guard p'
  end

(* ------------------------------------------------------------------ *)
(* Splice                                                             *)
(* ------------------------------------------------------------------ *)

(* Enumerate donor slices: contiguous call-free runs of up to 4
   instructions at any body level. Returns (instrs, free-var reqs,
   structural depth). *)
let donor_slices donor =
  let out = ref [] in
  let record slice =
    if slice <> [] && not (List.exists has_call slice) then begin
      let defined = Hashtbl.create 16 in
      let free = Hashtbl.create 16 in
      List.iter
        (fun i ->
          List.iter
            (fun (v, req) ->
              if not (Hashtbl.mem defined v) then
                Hashtbl.replace free v
                  (match Hashtbl.find_opt free v with
                  | Some r -> merge_req r req
                  | None -> req))
            (List.rev (uses_rec [] i));
          List.iter (fun d -> Hashtbl.replace defined d ()) (defs_rec [] i))
        slice;
      let free = Hashtbl.fold (fun v r acc -> (v, r) :: acc) free [] in
      let free = List.sort (fun (a, _) (b, _) -> compare a b) free in
      out := (slice, free, body_depth slice) :: !out
    end
  in
  let rec bodies b =
    let arr = Array.of_list b in
    let n = Array.length arr in
    for start = 0 to n - 1 do
      for len = 1 to min 4 (n - start) do
        record (Array.to_list (Array.sub arr start len))
      done
    done;
    List.iter
      (function
        | If (_, a, b) ->
          bodies a;
          bodies b
        | Loop (_, _, b) | Loop_n (_, _, b) -> bodies b
        | _ -> ())
      b
  in
  List.iter (fun (f : func) -> bodies f.body) donor.funcs;
  bodies donor.main;
  List.rev !out

let splice rng ~donor p =
  match donor_slices donor with
  | [] -> None
  | slices ->
    let slice, free, sdepth = List.nth slices (Prng.int rng (List.length slices)) in
    (* eligible gaps: depth budget holds *)
    let n = ref 0 in
    ignore
      (walk p
         ~gap:(fun _ ~entry_env:_ ~depth ->
           if depth + sdepth <= max_nesting then incr n;
           [])
         ~ins:no_ins);
    if !n = 0 then None
    else begin
      let target = Prng.int rng !n in
      let seen = ref 0 in
      let fresh = ref (-1) in
      let max_slot = ref (-1) in
      List.iter
        (fun i ->
          let rec slots = function
            | Gnew (k, _) | Gget_len (_, k) | Gset_len (k, _) | Gget_elem (_, k, _)
            | Gset_elem (k, _, _) ->
              max_slot := max !max_slot k
            | If (_, a, b) ->
              List.iter slots a;
              List.iter slots b
            | Loop (_, _, b) | Loop_n (_, _, b) -> List.iter slots b
            | _ -> ()
          in
          slots i)
        slice;
      let globals' = min max_globals (max p.globals (!max_slot + 1)) in
      let remap_slot k = if globals' = 0 then 0 else k mod globals' in
      let p' =
        walk p
          ~gap:(fun ctx ~entry_env ~depth ->
            if depth + sdepth > max_nesting then []
            else begin
              let here = !seen in
              incr seen;
              if here <> target then []
              else begin
                if !fresh < 0 then fresh := fresh_base p ctx;
                let next () =
                  let v = !fresh in
                  incr fresh;
                  v
                in
                (* Map donor vars: defs to fresh target ids, free vars to
                   compatible in-scope vars or synthesized material. *)
                let map = Hashtbl.create 32 in
                let prelude = ref [] in
                List.iter
                  (fun (v, req) ->
                    let candidates =
                      List.filter (fun (_, e) -> satisfies e req) entry_env
                    in
                    match candidates with
                    | _ :: _ ->
                      Hashtbl.replace map v
                        (fst (List.nth candidates (Prng.int rng (List.length candidates))))
                    | [] ->
                      let synth =
                        match req.r_ty with
                        | Some Bool ->
                          let d = next () in
                          prelude := Bool_const (d, Prng.bool rng) :: !prelude;
                          d
                        | Some Str ->
                          let d = next () in
                          prelude := Str_const (d, "s") :: !prelude;
                          d
                        | Some Arr ->
                          let d = next () in
                          prelude := Array_of (d, []) :: !prelude;
                          d
                        | Some Num when req.r_tainted ->
                          let a = next () in
                          let d = next () in
                          prelude :=
                            Get_len (d, a) :: Array_of (a, []) :: !prelude;
                          d
                        | _ ->
                          let d = next () in
                          prelude := Const (d, rand_const rng) :: !prelude;
                          d
                      in
                      Hashtbl.replace map v synth)
                  free;
                List.iter
                  (fun i ->
                    List.iter
                      (fun d ->
                        if not (Hashtbl.mem map d) then Hashtbl.replace map d (next ()))
                      (List.rev (defs_rec [] i)))
                  slice;
                let r v = match Hashtbl.find_opt map v with Some v' -> v' | None -> v in
                let fix_slots i =
                  let rec go = function
                    | Gnew (k, e) -> Gnew (remap_slot k, e)
                    | Gget_len (d, k) -> Gget_len (d, remap_slot k)
                    | Gset_len (k, n) -> Gset_len (remap_slot k, n)
                    | Gget_elem (d, k, i) -> Gget_elem (d, remap_slot k, i)
                    | Gset_elem (k, i, x) -> Gset_elem (remap_slot k, i, x)
                    | If (c, a, b) -> If (c, List.map go a, List.map go b)
                    | Loop (c, k, b) -> Loop (c, k, List.map go b)
                    | Loop_n (c, n, b) -> Loop_n (c, n, List.map go b)
                    | i -> i
                  in
                  go i
                in
                List.rev !prelude @ List.map (fun i -> fix_slots (rename r i)) slice
              end
            end)
          ~ins:no_ins
      in
      guard { p' with globals = globals' }
    end

(* ------------------------------------------------------------------ *)
(* Combine                                                            *)
(* ------------------------------------------------------------------ *)

let combine rng ~donor p =
  let importable =
    List.filter (fun (f : func) -> not (List.exists has_call f.body)) donor.funcs
  in
  if importable = [] || List.length p.funcs >= max_funcs then None
  else begin
    let f = List.nth importable (Prng.int rng (List.length importable)) in
    let globals' =
      let max_slot = ref (-1) in
      let rec slots = function
        | Gnew (k, _) | Gget_len (_, k) | Gset_len (k, _) | Gget_elem (_, k, _)
        | Gset_elem (k, _, _) ->
          max_slot := max !max_slot k
        | If (_, a, b) ->
          List.iter slots a;
          List.iter slots b
        | Loop (_, _, b) | Loop_n (_, _, b) -> List.iter slots b
        | _ -> ()
      in
      List.iter slots f.body;
      min max_globals (max p.globals (!max_slot + 1))
    in
    let new_idx = List.length p.funcs in
    (* insert a call to the import at a random gap in main *)
    let n = ref 0 in
    ignore
      (walk p
         ~gap:(fun ctx ~entry_env:_ ~depth:_ ->
           if ctx.fn = None then incr n;
           [])
         ~ins:no_ins);
    if !n = 0 then None
    else begin
      let target = Prng.int rng !n in
      let seen = ref 0 in
      let fresh = ref (-1) in
      let p' =
        walk p
          ~gap:(fun ctx ~entry_env ~depth:_ ->
            if ctx.fn <> None then []
            else begin
              let here = !seen in
              incr seen;
              if here <> target then []
              else begin
                if !fresh < 0 then fresh := fresh_base p ctx;
                let next () =
                  let v = !fresh in
                  incr fresh;
                  v
                in
                let nums = List.filter (fun (_, e) -> e.e_ty = Num) entry_env in
                let rec args acc pre n =
                  if n = 0 then List.rev pre @ [ Call (next (), new_idx, List.rev acc) ]
                  else
                    match nums with
                    | [] ->
                      let c = next () in
                      args (c :: acc) (Const (c, rand_const rng) :: pre) (n - 1)
                    | _ ->
                      args
                        (fst (List.nth nums (Prng.int rng (List.length nums))) :: acc)
                        pre (n - 1)
                in
                args [] [] f.arity
              end
            end)
          ~ins:no_ins
      in
      guard { p' with funcs = p'.funcs @ [ f ]; globals = globals' }
    end
  end

(* ------------------------------------------------------------------ *)
(* Wrap_loop                                                          *)
(* ------------------------------------------------------------------ *)

(* Wrap a run of instructions in a counted loop. Only runs whose defs
   are not used later in the enclosing body stay scope-correct, so the
   candidate enumeration works on body lists directly (no walk engine:
   we need "uses after the run" which the gap/ins callbacks don't see). *)
let wrap_loop rng p =
  let candidates = ref 0 in
  let rec scan depth body =
    let arr = Array.of_list body in
    let n = Array.length arr in
    for start = 0 to n - 1 do
      for len = 1 to min 3 (n - start) do
        let slice = Array.to_list (Array.sub arr start len) in
        let after = Array.to_list (Array.sub arr (start + len) (n - start - len)) in
        let defs = List.fold_left defs_rec [] slice in
        let used_after =
          List.exists
            (fun i -> List.exists (fun (v, _) -> List.mem v defs) (uses_rec [] i))
            after
        in
        if
          (not used_after)
          && depth + 1 + body_depth slice <= max_nesting
          && not (List.exists has_call slice)
        then incr candidates
      done
    done;
    List.iter
      (function
        | If (_, a, b) ->
          scan (depth + 1) a;
          scan (depth + 1) b
        | Loop (_, _, b) | Loop_n (_, _, b) -> scan (depth + 1) b
        | _ -> ())
      body
  in
  List.iter (fun (f : func) -> scan 0 f.body) p.funcs;
  scan 0 p.main;
  if !candidates = 0 then None
  else begin
    let target = Prng.int rng !candidates in
    let seen = ref (-1) in
    let fresh = ref (-1) in
    let applied = ref false in
    let rec rewrite owner depth body =
      let arr = Array.of_list body in
      let n = Array.length arr in
      let hit = ref None in
      for start = 0 to n - 1 do
        for len = 1 to min 3 (n - start) do
          let slice = Array.to_list (Array.sub arr start len) in
          let after = Array.to_list (Array.sub arr (start + len) (n - start - len)) in
          let defs = List.fold_left defs_rec [] slice in
          let used_after =
            List.exists
              (fun i -> List.exists (fun (v, _) -> List.mem v defs) (uses_rec [] i))
              after
          in
          if
            (not used_after)
            && depth + 1 + body_depth slice <= max_nesting
            && not (List.exists has_call slice)
          then begin
            incr seen;
            if !seen = target then hit := Some (start, len)
          end
        done
      done;
      match !hit with
      | Some (start, len) ->
        applied := true;
        if !fresh < 0 then fresh := owner ();
        let c = !fresh in
        incr fresh;
        let before = Array.to_list (Array.sub arr 0 start) in
        let slice = Array.to_list (Array.sub arr start len) in
        let after = Array.to_list (Array.sub arr (start + len) (n - start - len)) in
        before @ [ Loop (c, 2 + Prng.int rng 14, slice) ] @ after
      | None ->
        List.map
          (function
            | If (c, a, b) -> If (c, rewrite owner (depth + 1) a, rewrite owner (depth + 1) b)
            | Loop (c, k, b) -> Loop (c, k, rewrite owner (depth + 1) b)
            | Loop_n (c, nn, b) -> Loop_n (c, nn, rewrite owner (depth + 1) b)
            | i -> i)
          body
    in
    let funcs =
      List.mapi
        (fun i (f : func) ->
          let owner () = fresh_base p { fn = Some i; callable = i } in
          { f with body = rewrite owner 0 f.body })
        p.funcs
    in
    let main =
      rewrite (fun () -> fresh_base p { fn = None; callable = List.length p.funcs }) 0 p.main
    in
    if !applied then guard { p with funcs; main } else None
  end

(* ------------------------------------------------------------------ *)
(* Dispatch                                                           *)
(* ------------------------------------------------------------------ *)

let mutate_k rng kind ~donor p =
  match kind with
  | Splice -> splice rng ~donor p
  | Combine -> combine rng ~donor p
  | Codegen -> codegen rng p
  | Retarget -> retarget rng p
  | Perturb -> perturb rng p
  | Wrap_loop -> wrap_loop rng p

let weighted rng =
  (* splice/codegen/perturb carry most of the search; combine and
     wrap_loop reshape programs more rarely *)
  match Prng.int rng 12 with
  | 0 | 1 | 2 -> Splice
  | 3 -> Combine
  | 4 | 5 | 6 -> Codegen
  | 7 | 8 -> Retarget
  | 9 | 10 -> Perturb
  | _ -> Wrap_loop

let mutate_info rng ~donor p =
  let rec try_kinds tried =
    if List.length tried >= List.length kinds then None
    else
      let k = weighted rng in
      if List.mem k tried then try_kinds tried
      else
        match mutate_k rng k ~donor p with
        | Some p' -> Some (p', k)
        | None -> try_kinds (k :: tried)
  in
  try_kinds []

let mutate rng ~donor p = Option.map fst (mutate_info rng ~donor p)
