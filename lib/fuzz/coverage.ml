module Op = Jitbull_bytecode.Op
module Dna = Jitbull_core.Dna
module Delta = Jitbull_core.Delta

type t = (int, unit) Hashtbl.t

let create () : t = Hashtbl.create 1024
let count (t : t) = Hashtbl.length t
let seen (t : t) f = Hashtbl.mem t f

let features (t : t) =
  List.sort compare (Hashtbl.fold (fun f () acc -> f :: acc) t [])

let add_features (t : t) fs =
  List.fold_left
    (fun gained f ->
      if Hashtbl.mem t f then gained
      else begin
        Hashtbl.add t f ();
        gained + 1
      end)
    0 fs

(* FNV-style mixing; features are kept positive so they can double as
   array indices in any future fixed-size bitmap implementation. *)
let mix h x = ((h * 16777619) lxor x) land max_int

(* Operand-insensitive opcode kind, except that binop/unop keep their
   operator: [a + b] and [a << b] reach different compiler paths, while
   [Push_const 1] vs [Push_const 2] do not. *)
let op_tag : Op.t -> int = function
  | Op.Push_const _ -> 1
  | Load_local _ -> 2
  | Store_local _ -> 3
  | Load_global _ -> 4
  | Store_global _ -> 5
  | Declare_global _ -> 6
  | Pop -> 7
  | Dup -> 8
  | Binop op -> 0x100 lor (Hashtbl.hash op land 0xff)
  | Unop op -> 0x200 lor (Hashtbl.hash op land 0xff)
  | Jump _ -> 9
  | Jump_if_false _ -> 10
  | Jump_if_true _ -> 11
  | New_array _ -> 12
  | New_object _ -> 13
  | Get_index -> 14
  | Set_index -> 15
  | Get_member _ -> 16
  | Set_member _ -> 17
  | Call _ -> 18
  | Call_method _ -> 19
  | Return -> 20
  | Return_undefined -> 21

let features_of_func acc (f : Op.func) =
  let acc = ref acc in
  let n = Array.length f.Op.code in
  for i = 0 to n - 2 do
    let bigram = mix (mix 0x42 (op_tag f.Op.code.(i))) (op_tag f.Op.code.(i + 1)) in
    acc := bigram :: !acc
  done;
  !acc

let features_of_bytecode (p : Op.program) =
  let acc = Array.fold_left features_of_func [] p.Op.funcs in
  features_of_func acc p.Op.main

let side_features acc ~pass ~tag (side : Delta.side) =
  let base = mix (mix 0x444e41 (Hashtbl.hash pass)) tag in
  Hashtbl.fold
    (fun key _count acc -> mix base (Hashtbl.hash (Delta.key_to_string key)) :: acc)
    side acc

let features_of_dna (dna : Dna.t) =
  List.fold_left
    (fun acc (pass, (d : Delta.t)) ->
      let acc = side_features acc ~pass ~tag:0 d.Delta.removed in
      side_features acc ~pass ~tag:1 d.Delta.added)
    [] dna.Dna.deltas

let feature_of_flag s = mix 0xf1a6 (Hashtbl.hash s)

let features_of_run (r : Oracle.instrumented) =
  let acc =
    match r.Oracle.i_bytecode with
    | Some bc -> features_of_bytecode bc
    | None -> []
  in
  let acc = List.fold_left (fun acc dna -> List.rev_append (features_of_dna dna) acc) acc r.Oracle.i_dnas in
  let acc = List.fold_left (fun acc flag -> feature_of_flag flag :: acc) acc r.Oracle.i_events in
  feature_of_flag ("verdict:" ^ Oracle.verdict_kind r.Oracle.i_verdict) :: acc
