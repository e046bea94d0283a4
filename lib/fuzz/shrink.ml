module Ast = Jitbull_frontend.Ast
module Parser = Jitbull_frontend.Parser
module Printer = Jitbull_frontend.Printer

let remove_at lst i = List.filteri (fun j _ -> j <> i) lst
let replace_at lst i x = List.mapi (fun j y -> if j = i then x else y) lst

(* Candidate bodies with one contiguous chunk removed (halves, quarters,
   singles), plus structural variants of individual statements. [While]
   bodies are left alone apart from unwrapping the loop itself: removing
   the statement that makes a [while] progress could produce a
   non-terminating candidate, and the oracle has no fuel limit. *)
let rec stmt_list_variants ~depth (body : Ast.stmt list) : Ast.stmt list list =
  let n = List.length body in
  let removals =
    if n = 0 then []
    else
      let sizes = List.sort_uniq compare [ max 1 (n / 2); max 1 (n / 4); 1 ] in
      List.rev sizes
      |> List.concat_map (fun size ->
             if size > n then []
             else
               List.init
                 (n - size + 1)
                 (fun start ->
                   List.filteri (fun i _ -> i < start || i >= start + size) body))
  in
  let structural =
    if depth <= 0 then []
    else
      List.concat
        (List.mapi
           (fun i s -> List.map (replace_at body i) (stmt_variants ~depth s))
           body)
  in
  removals @ structural

and stmt_variants ~depth (s : Ast.stmt) : Ast.stmt list =
  match s with
  | Ast.If (c, t, e) ->
    [ Ast.Block t; Ast.Block e ]
    @ List.map (fun t' -> Ast.If (c, t', e)) (stmt_list_variants ~depth:(depth - 1) t)
    @ List.map (fun e' -> Ast.If (c, t, e')) (stmt_list_variants ~depth:(depth - 1) e)
  | Ast.For (init, cond, update, b) ->
    [ Ast.Block b ]
    @ List.map
        (fun b' -> Ast.For (init, cond, update, b'))
        (stmt_list_variants ~depth:(depth - 1) b)
  | Ast.While (_, b) -> [ Ast.Block b ]
  | Ast.Block b ->
    List.map (fun b' -> Ast.Block b') (stmt_list_variants ~depth:(depth - 1) b)
  | _ -> []

let fold_program_exprs f acc (p : Ast.program) =
  let acc =
    List.fold_left
      (fun acc (fn : Ast.func) -> List.fold_left (Ast.fold_stmt_exprs f) acc fn.Ast.body)
      acc p.Ast.functions
  in
  List.fold_left (Ast.fold_stmt_exprs f) acc p.Ast.main

let map_program_exprs f (p : Ast.program) =
  {
    Ast.functions =
      List.map
        (fun (fn : Ast.func) -> { fn with Ast.body = List.map (Ast.map_stmt f) fn.Ast.body })
        p.Ast.functions;
    main = List.map (Ast.map_stmt f) p.Ast.main;
  }

(* One candidate per (literal occurrence, smaller value). *)
let number_variants (p : Ast.program) =
  let total =
    fold_program_exprs (fun acc e -> match e with Ast.Number _ -> acc + 1 | _ -> acc) 0 p
  in
  List.init total (fun target ->
      [ 0.; 1.; 2. ]
      |> List.filter_map (fun repl ->
             let counter = ref (-1) in
             let changed = ref false in
             let p' =
               map_program_exprs
                 (fun e ->
                   match e with
                   | Ast.Number n ->
                     incr counter;
                     if !counter = target && Float.abs n > 2. then begin
                       changed := true;
                       Ast.Number repl
                     end
                     else e
                   | _ -> e)
                 p
             in
             if !changed then Some p' else None))
  |> List.concat

(* Literal propagation: a variable declared once from a literal and never
   reassigned (no parameter, loop counter or assignment of that name
   anywhere) is replaced by the literal, and its declaration dropped.
   Lowered IL programs bind every constant to its own [var], so this is
   where most of their bulk goes. *)
let propagate_variants (p : Ast.program) =
  let defs = ref [] and blocked = Hashtbl.create 16 in
  let block x = Hashtbl.replace blocked x () in
  let rec scan = function
    | Ast.Var (x, Some ((Ast.Number _ | Ast.String _ | Ast.Bool _) as lit)) ->
      if List.mem_assoc x !defs then block x else defs := (x, lit) :: !defs
    | Ast.Var (x, _) -> block x
    | Ast.If (_, t, e) ->
      List.iter scan t;
      List.iter scan e
    | Ast.For (init, _, _, b) ->
      Option.iter (function Ast.Var (x, _) -> block x | _ -> ()) init;
      List.iter scan b
    | Ast.While (_, b) | Ast.Block b -> List.iter scan b
    | Ast.Expr_stmt _ | Ast.Return _ | Ast.Break | Ast.Continue -> ()
  in
  List.iter
    (fun (fn : Ast.func) ->
      List.iter block fn.Ast.params;
      List.iter scan fn.Ast.body)
    p.Ast.functions;
  List.iter scan p.Ast.main;
  fold_program_exprs
    (fun () e -> match e with Ast.Assign (Ast.Lvar x, _) -> block x | _ -> ())
    () p;
  let rec drop_decl x body =
    List.filter_map
      (function
        | Ast.Var (y, _) when y = x -> None
        | Ast.If (c, t, e) -> Some (Ast.If (c, drop_decl x t, drop_decl x e))
        | Ast.While (c, b) -> Some (Ast.While (c, drop_decl x b))
        | Ast.For (i, c, u, b) -> Some (Ast.For (i, c, u, drop_decl x b))
        | Ast.Block b -> Some (Ast.Block (drop_decl x b))
        | s -> Some s)
      body
  in
  List.rev !defs
  |> List.filter (fun (x, _) -> not (Hashtbl.mem blocked x))
  |> List.map (fun (x, lit) ->
         let p =
           {
             Ast.functions =
               List.map
                 (fun (fn : Ast.func) -> { fn with Ast.body = drop_decl x fn.Ast.body })
                 p.Ast.functions;
             main = drop_decl x p.Ast.main;
           }
         in
         map_program_exprs (function Ast.Ident y when y = x -> lit | e -> e) p)

let program_variants (p : Ast.program) =
  let drop_funcs =
    List.mapi (fun i _ -> { p with Ast.functions = remove_at p.Ast.functions i }) p.Ast.functions
  in
  let main_vars =
    List.map (fun m -> { p with Ast.main = m }) (stmt_list_variants ~depth:3 p.Ast.main)
  in
  let func_vars =
    List.concat
      (List.mapi
         (fun i (fn : Ast.func) ->
           List.map
             (fun b ->
               { p with Ast.functions = replace_at p.Ast.functions i { fn with Ast.body = b } })
             (stmt_list_variants ~depth:3 fn.Ast.body))
         p.Ast.functions)
  in
  propagate_variants p @ drop_funcs @ main_vars @ func_vars @ number_variants p

let shrink ?(max_checks = 400) ?seed ?errors ~keep source =
  match Parser.parse source with
  | exception _ -> source
  | p0 ->
    let rng = Option.map Jitbull_util.Prng.create seed in
    let order variants =
      match rng with
      | None -> variants
      | Some rng ->
        let arr = Array.of_list variants in
        Jitbull_util.Prng.shuffle rng arr;
        Array.to_list arr
    in
    let checks = ref 0 in
    let try_keep src =
      if !checks >= max_checks then false
      else begin
        incr checks;
        try keep src
        with _ ->
          (match errors with None -> () | Some r -> incr r);
          false
      end
    in
    let s0 = Printer.program_to_string p0 in
    if not (try_keep s0) then source
    else begin
      (* printing can be longer than the raw input (normalized layout);
         never return a "minimized" reproducer bigger than the original *)
      let clamp s = if String.length s < String.length source then s else source in
      let best = ref p0 in
      let best_src = ref s0 in
      let progress = ref true in
      while !progress && !checks < max_checks do
        progress := false;
        try
          List.iter
            (fun cand ->
              if !checks >= max_checks then raise Exit;
              let s = Printer.program_to_string cand in
              if String.length s < String.length !best_src && try_keep s then begin
                best := cand;
                best_src := s;
                progress := true;
                raise Exit
              end)
            (order (program_variants !best))
        with Exit -> ()
      done;
      clamp !best_src
    end

let shrink_signal ?config ?max_checks ?seed ?errors ~verdict source =
  shrink ?max_checks ?seed ?errors
    ~keep:(fun s -> Oracle.same_kind (Oracle.run ?config s) verdict)
    source
