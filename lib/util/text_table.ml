type align =
  | Left
  | Right

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = String.make (width - n) ' ' in
    match align with
    | Left -> s ^ fill
    | Right -> fill ^ s

let render ~headers ?(aligns = []) rows =
  let ncols = List.length headers in
  let normalize row =
    let len = List.length row in
    if len >= ncols then row else row @ List.init (ncols - len) (fun _ -> "")
  in
  let rows = List.map normalize rows in
  let aligns =
    let given = List.length aligns in
    aligns @ List.init (max 0 (ncols - given)) (fun _ -> Left)
  in
  let widths = Array.of_list (List.map String.length headers) in
  let fit row = List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row in
  List.iter fit rows;
  let line_of row =
    let cells = List.mapi (fun i cell -> pad (List.nth aligns i) widths.(i) cell) row in
    String.concat "  " cells
  in
  let rule =
    String.concat "  " (Array.to_list (Array.map (fun w -> String.make w '-') widths))
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (line_of headers);
  Buffer.add_char buf '\n';
  Buffer.add_string buf rule;
  List.iter
    (fun row ->
      Buffer.add_char buf '\n';
      Buffer.add_string buf (line_of row))
    rows;
  Buffer.contents buf

let print ~headers rows =
  print_string (render ~headers rows);
  print_newline ()

let bar ~width ~max_value value =
  if max_value <= 0.0 || value <= 0.0 then ""
  else
    let n = int_of_float (Float.round (float_of_int width *. value /. max_value)) in
    String.make (max 0 (min width n)) '#'
