(* 0 marks a free slot, which is why keys are nonzero *)
type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable size : int;
}

let create n =
  let rec capacity c = if c >= 2 * n then c else capacity (2 * c) in
  let c = capacity 16 in
  { keys = Array.make c 0; vals = Array.make c 0; size = 0 }

(* inline multiplicative hash: mixes a key's high bits into the low bits
   the table indexes by; a loop, not a local closure, so a probe
   allocates nothing *)
let find_slot keys k =
  let mask = Array.length keys - 1 in
  let i = ref (((k * 0x1E3779B97F4A7C15) lsr 17) land mask) in
  while keys.(!i) <> k && keys.(!i) <> 0 do
    i := (!i + 1) land mask
  done;
  !i

let find t k =
  let i = find_slot t.keys k in
  if t.keys.(i) = k then t.vals.(i) else 0

(* the slot holding [k], inserted with value 0 when absent; a table
   that would pass half full doubles and reinserts its keys first *)
let rec slot t k =
  let i = find_slot t.keys k in
  if t.keys.(i) = k then i
  else if 2 * (t.size + 1) <= Array.length t.keys then begin
    t.keys.(i) <- k;
    t.size <- t.size + 1;
    i
  end
  else begin
    let keys = t.keys and vals = t.vals in
    t.keys <- Array.make (2 * Array.length keys) 0;
    t.vals <- Array.make (2 * Array.length keys) 0;
    t.size <- 0;
    Array.iteri (fun j k' -> if k' <> 0 then t.vals.(slot t k') <- vals.(j)) keys;
    slot t k
  end

let add t k d =
  let i = slot t k in
  t.vals.(i) <- t.vals.(i) + d

let replace t k v = t.vals.(slot t k) <- v

let iter f t = Array.iteri (fun i k -> if k <> 0 then f k t.vals.(i)) t.keys

let drain f t =
  let keys = t.keys and vals = t.vals in
  for i = 0 to Array.length keys - 1 do
    if keys.(i) <> 0 then begin
      f keys.(i) vals.(i);
      keys.(i) <- 0;
      vals.(i) <- 0
    end
  done;
  t.size <- 0

let capacity t = Array.length t.keys
