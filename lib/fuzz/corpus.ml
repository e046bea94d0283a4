module Prng = Jitbull_util.Prng

type entry = {
  id : int;
  source : string;
  gain : int;
  il : string option;
}

type t = {
  dir : string option;
  mutable next_id : int;
  mutable items : entry list;  (* newest first *)
}

let rec mkdir_p path =
  if path <> "" && path <> "/" && path <> "." && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let entry_path dir id = Filename.concat dir (Printf.sprintf "%06d.js" id)
let il_path dir id = Filename.concat dir (Printf.sprintf "%06d.il" id)

let load_dir dir =
  mkdir_p dir;
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (fun name ->
         if Filename.check_suffix name ".js" then
           match int_of_string_opt (Filename.chop_suffix name ".js") with
           | Some id -> Some (id, Filename.concat dir name)
           | None -> None
         else None)
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map (fun (id, path) ->
         let il =
           let p = il_path dir id in
           if Sys.file_exists p then Some (read_file p) else None
         in
         { id; source = read_file path; gain = 1; il })

let create ?dir () =
  let items = match dir with None -> [] | Some d -> List.rev (load_dir d) in
  let next_id = List.fold_left (fun acc e -> max acc (e.id + 1)) 0 items in
  { dir; next_id; items }

let length t = List.length t.items
let entries t = List.rev t.items
let dir t = t.dir

let add t ?il ~gain source =
  let gain = max 1 gain in
  let e = { id = t.next_id; source; gain; il } in
  t.next_id <- t.next_id + 1;
  t.items <- e :: t.items;
  (match t.dir with
  | None -> ()
  | Some d ->
    write_file (entry_path d e.id) source;
    match il with None -> () | Some text -> write_file (il_path d e.id) text);
  e

let pick rng t =
  match List.filter (fun e -> e.il <> None) t.items with
  | [] -> None
  | items ->
    let target = Prng.int rng (List.fold_left (fun acc e -> acc + e.gain) 0 items) in
    let rec walk acc = function
      | [] -> List.hd items
      | e :: rest -> if acc + e.gain > target then e else walk (acc + e.gain) rest
    in
    Some (walk 0 items)
