(* The sampling profiler's OCaml half: naming, aggregation, rendering.
   The sampling itself lives in profile_stubs.c — a SIGPROF handler that
   buckets ticks into a fixed code-page table (native frames) and a
   per-thread tag counter array (VM dispatch, pass pipeline, comparator,
   host calls). This module is process-global state, like the C side:
   there is one timer per process, so one profiler. *)

external c_available : unit -> bool = "jb_prof_available"
external c_start : int -> bool = "jb_prof_start"
external c_stop : unit -> unit = "jb_prof_stop"
external c_set_tag : int -> int = "jb_prof_set_tag" [@@noalloc]
external c_register_page : nativeint -> int -> int = "jb_prof_register_page"
external c_drop_page : int -> int = "jb_prof_drop_page"
external c_page_hits : int -> int = "jb_prof_page_hits"
external c_tag_count : int -> int = "jb_prof_tag_count"
external c_total : unit -> int = "jb_prof_total"
external c_reset : unit -> unit = "jb_prof_reset"

let max_tags = 64

let available = c_available

(* [enabled] gates the hot tagging path: with profiling off, [with_tag]
   is one atomic load and a tail call. *)
let enabled = Atomic.make false
let running () = Atomic.get enabled

let mu = Mutex.create ()

(* tag id ↔ hierarchical name (";"-separated, e.g. "vm;dispatch");
   id 0 is reserved for unattributed ticks *)
let tag_ids : (string, int) Hashtbl.t = Hashtbl.create 16
let tag_names = Array.make max_tags ""
let next_tag = ref 1

(* live page slot → frame name, plus hits folded out of dropped slots *)
let pages : (int, string) Hashtbl.t = Hashtbl.create 64
let retired : (string, int) Hashtbl.t = Hashtbl.create 64

let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

(* Intern a tag name; done once per call site (module init), not per
   use. Past 63 distinct names, falls back to 0 = unattributed. *)
let tag name =
  locked (fun () ->
      match Hashtbl.find_opt tag_ids name with
      | Some id -> id
      | None ->
        if !next_tag >= max_tags then 0
        else begin
          let id = !next_tag in
          incr next_tag;
          Hashtbl.replace tag_ids name id;
          tag_names.(id) <- name;
          id
        end)

let with_tag id f =
  if not (Atomic.get enabled) then f ()
  else begin
    let prev = c_set_tag id in
    match f () with
    | v ->
      ignore (c_set_tag prev);
      v
    | exception e ->
      ignore (c_set_tag prev);
      raise e
  end

(* samples per second, off round frequencies to dodge lockstep with
   periodic work *)
let hz = 997

let start () =
  if Atomic.get enabled then true
  else if c_start hz then begin
    Atomic.set enabled true;
    true
  end
  else false

let stop () =
  if Atomic.get enabled then begin
    Atomic.set enabled false;
    c_stop ()
  end

let register_page ~addr ~size name =
  let slot = c_register_page addr size in
  if slot >= 0 then locked (fun () -> Hashtbl.replace pages slot name);
  slot

let registered_pages () = locked (fun () -> Hashtbl.length pages)

let drop_page slot =
  if slot >= 0 then begin
    let hits = c_drop_page slot in
    locked (fun () ->
        (match Hashtbl.find_opt pages slot with
        | Some name ->
          Hashtbl.remove pages slot;
          if hits > 0 then
            Hashtbl.replace retired name
              (hits + Option.value ~default:0 (Hashtbl.find_opt retired name))
        | None -> ()))
  end

let total_samples = c_total

(* Every named bucket with a non-zero count, heaviest first, plus an
   "other" line for unattributed ticks (tag 0 and table-overflow). *)
let report () =
  locked (fun () ->
      let tbl : (string, int) Hashtbl.t = Hashtbl.create 64 in
      let bump name n =
        if n > 0 then
          Hashtbl.replace tbl name
            (n + Option.value ~default:0 (Hashtbl.find_opt tbl name))
      in
      Hashtbl.iter (fun slot name -> bump name (c_page_hits slot)) pages;
      Hashtbl.iter (fun name n -> bump name n) retired;
      for id = 1 to !next_tag - 1 do
        bump tag_names.(id) (c_tag_count id)
      done;
      let named = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
      let attributed = List.fold_left (fun a (_, n) -> a + n) 0 named in
      let other = c_total () - attributed in
      let all = if other > 0 then ("other", other) :: named else named in
      List.sort (fun (_, a) (_, b) -> compare b a) all)

let attributed_fraction () =
  let total = c_total () in
  if total = 0 then 1.0
  else
    let other =
      List.fold_left
        (fun a (name, n) -> if String.equal name "other" then a + n else a)
        0 (report ())
    in
    float_of_int (total - other) /. float_of_int total

(* Collapsed-stack output, one "jsrun;frame;subframe count" line per
   bucket — feed straight to flamegraph.pl / speedscope. *)
let collapsed () =
  String.concat ""
    (List.map
       (fun (name, n) -> Printf.sprintf "jsrun;%s %d\n" name n)
       (report ()))

let reset () =
  c_reset ();
  locked (fun () -> Hashtbl.reset retired)
