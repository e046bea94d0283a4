type id = int

(* One mutex guards both tables below; the sections are a few hash
   operations long. *)
let mu = Mutex.create ()

(* id -> string, growable array *)
let names = ref (Array.make 1024 "")
let len = ref 0

let by_string : (string, id) Hashtbl.t = Hashtbl.create 1024

let size () = Mutex.protect mu (fun () -> !len)

let to_string id =
  Mutex.protect mu (fun () ->
      if id < 0 || id >= !len then
        invalid_arg (Printf.sprintf "Intern.to_string: unknown id %d" id)
      else !names.(id))

let intern s =
  Mutex.protect mu (fun () ->
      match Hashtbl.find_opt by_string s with
      | Some id -> id
      | None ->
        let id = !len in
        if id = Array.length !names then begin
          let bigger = Array.make (2 * id) "" in
          Array.blit !names 0 bigger 0 id;
          names := bigger
        end;
        !names.(id) <- s;
        incr len;
        Hashtbl.add by_string s id;
        id)
