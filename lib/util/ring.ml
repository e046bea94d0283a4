type 'a t = {
  slots : 'a option array;
  mutable head : int;  (* next write slot *)
  mutable total : int;
}

let create ~capacity = { slots = Array.make (max 1 capacity) None; head = 0; total = 0 }
let capacity t = Array.length t.slots

let push t x =
  t.slots.(t.head) <- Some x;
  t.head <- (t.head + 1) mod Array.length t.slots;
  t.total <- t.total + 1

let to_list t =
  let cap = Array.length t.slots in
  let n = min t.total cap in
  List.init n (fun i -> Option.get t.slots.((t.head - n + i + cap) mod cap))

let total t = t.total
