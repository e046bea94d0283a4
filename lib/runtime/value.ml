(* Runtime values of the mini-JS runtime.

   Arrays are handles (base addresses) into the flat simulated {!Heap}; this
   is what lets JIT-eliminated bounds checks corrupt adjacent objects, the
   mechanism behind the modeled CVEs. Objects are ordinary hash tables (they
   play no role in the memory-corruption model). [Function] is an index into
   the engine's function table — functions are first-class but closures are
   not (see DESIGN.md). [Builtin] values appear transiently when evaluating
   e.g. [Math.floor] before the call. *)

type t =
  | Number of float
  | String of string
  | Bool of bool
  | Null
  | Undefined
  | Array of int
  | Object of (string, t) Hashtbl.t
  | Function of int
  | Builtin of string

let type_name = function
  | Number _ -> "number"
  | String _ -> "string"
  | Bool _ -> "boolean"
  | Null -> "object"
  | Undefined -> "undefined"
  | Array _ -> "object"
  | Object _ -> "object"
  | Function _ | Builtin _ -> "function"

let rec to_display = function
  | Number f ->
    if Float.is_nan f then "NaN"
    else if f = Float.infinity then "Infinity"
    else if f = Float.neg_infinity then "-Infinity"
    else if f = 0.0 then "0" (* JS renders -0 as "0" *)
    else if Float.is_integer f && Float.abs f < 1e15 then string_of_int (int_of_float f)
    else Printf.sprintf "%.12g" f
  | String s -> s
  | Bool b -> if b then "true" else "false"
  | Null -> "null"
  | Undefined -> "undefined"
  | Array addr -> Printf.sprintf "[array@%d]" addr
  | Object tbl ->
    let fields =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      |> List.map (fun (k, v) -> k ^ ": " ^ to_display v)
    in
    "{" ^ String.concat ", " fields ^ "}"
  | Function idx -> Printf.sprintf "[function#%d]" idx
  | Builtin name -> Printf.sprintf "[builtin %s]" name

let pp ppf v = Format.pp_print_string ppf (to_display v)
