type source = unit -> float

let wall : source = Unix.gettimeofday

(* The installed source is read on every tick, so swapping it affects
   tracers and benchmarks that were created earlier — they hold [now],
   not the source it resolved to at creation time. *)
let installed : source Atomic.t = Atomic.make wall

let source () = Atomic.get installed
let now () = (Atomic.get installed) ()

let with_source s f =
  let prev = Atomic.get installed in
  Atomic.set installed s;
  Fun.protect ~finally:(fun () -> Atomic.set installed prev) f

let manual ?(start = 0.0) () =
  let t = Atomic.make start in
  let src () = Atomic.get t in
  let advance dt =
    (* CAS loop: [advance] may race with itself across domains in tests *)
    let rec go () =
      let cur = Atomic.get t in
      if not (Atomic.compare_and_set t cur (cur +. dt)) then go ()
    in
    go ()
  in
  (src, advance)
