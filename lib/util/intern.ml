type id = int

(* One mutex guards every table below. Helper domains intern the keys of
   non-empty Δ sides concurrently during background extraction; the
   sections are a few hash operations long, so an uncontended lock costs
   nanoseconds. *)
let mu = Mutex.create ()

let locked f =
  Mutex.lock mu;
  match f () with
  | v ->
    Mutex.unlock mu;
    v
  | exception e ->
    Mutex.unlock mu;
    raise e

(* id -> string, growable array *)
let names = ref (Array.make 1024 "")
let len = ref 0

let by_string : (string, id) Hashtbl.t = Hashtbl.create 1024

(* composite caches: constituent ids -> composite id *)
let by_pair : (id * id, id) Hashtbl.t = Hashtbl.create 1024
let by_triple : (id * id * id, id) Hashtbl.t = Hashtbl.create 1024
let by_rooted : (id, id) Hashtbl.t = Hashtbl.create 64

let size () = locked (fun () -> !len)

let to_string_unlocked id =
  if id < 0 || id >= !len then
    invalid_arg (Printf.sprintf "Intern.to_string: unknown id %d" id)
  else !names.(id)

let to_string id = locked (fun () -> to_string_unlocked id)

let intern_unlocked s =
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
    id

let intern s = locked (fun () -> intern_unlocked s)

let pair a b =
  locked (fun () ->
      match Hashtbl.find_opt by_pair (a, b) with
      | Some id -> id
      | None ->
        let id = intern_unlocked (to_string_unlocked a ^ "->" ^ to_string_unlocked b) in
        Hashtbl.add by_pair (a, b) id;
        id)

let triple a b c =
  locked (fun () ->
      match Hashtbl.find_opt by_triple (a, b, c) with
      | Some id -> id
      | None ->
        let id =
          intern_unlocked
            (to_string_unlocked a ^ "->" ^ to_string_unlocked b ^ "->"
           ^ to_string_unlocked c)
        in
        Hashtbl.add by_triple (a, b, c) id;
        id)

let rooted a =
  locked (fun () ->
      match Hashtbl.find_opt by_rooted a with
      | Some id -> id
      | None ->
        let id = intern_unlocked ("^" ^ to_string_unlocked a) in
        Hashtbl.add by_rooted a id;
        id)
