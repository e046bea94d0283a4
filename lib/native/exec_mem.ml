(* Executable-memory regions with strict W^X discipline.

   A region's lifecycle is: [install] maps anonymous RW pages, copies the
   emitted bytes in, and flips the mapping to RX before returning — the
   bytes are never writable and executable at the same time, and the
   region is never written again.  [release] unmaps; it is idempotent so
   the deferred-unmap bookkeeping in {!Native} can call it from whichever
   side (blacklist or last live activation) loses the race.  [recycle]
   is the other way out: the pages stay mapped, RX, on a free list, and
   a later [install] of the same page count refills them RX -> RW -> RX
   instead of mapping fresh ones.

   The cumulative counters are process-global and atomic: engines on
   several domains all fund the same totals, and the go/no-go security
   tests assert over them ("no page was ever mapped for a forbidden
   compile"). *)

type regfile = Jitbull_runtime.Nanbox.words

external jb_native_available : unit -> bool = "jb_native_available" [@@noalloc]
external jb_page_size : unit -> int = "jb_page_size" [@@noalloc]
external jb_map_rw : int -> nativeint = "jb_map_rw"
external jb_fill : nativeint -> bytes -> int -> unit = "jb_fill" [@@noalloc]
external jb_protect_rx : nativeint -> int -> bool = "jb_protect_rx" [@@noalloc]
external jb_protect_rw : nativeint -> int -> bool = "jb_protect_rw" [@@noalloc]
external jb_unmap : nativeint -> int -> unit = "jb_unmap" [@@noalloc]
external jb_call : nativeint -> int -> regfile -> Jitbull_runtime.Nanbox.words -> int
  = "jb_native_call" [@@noalloc]

let available = jb_native_available ()
let page_size = jb_page_size ()

let maps_total = Atomic.make 0
let unmaps_total = Atomic.make 0
let live_regions = Atomic.make 0
let live_bytes = Atomic.make 0

type region = {
  addr : nativeint;
  size : int;  (* mapped size, page-rounded *)
  code_size : int;  (* bytes of actual machine code *)
  mutable mapped : bool;
}

let round_to_pages n = (n + page_size - 1) / page_size * page_size

(* Recycled regions, (address, mapped size), RX and holding stale code
   nobody calls; at most [max_free] of them, the rest unmapped. *)
let max_free = 64
let free_mu = Mutex.create ()
let free : (nativeint * int) list ref = ref []
let n_free = ref 0

(* A free region of exactly [size] bytes, flipped to RW; None when there
   is none. A region that will not flip is unmapped and skipped. *)
let take_free size =
  Mutex.protect free_mu (fun () ->
      let rec take acc = function
        | [] -> None
        | ((addr, sz) as r) :: rest ->
          if sz <> size then take (r :: acc) rest
          else begin
            free := List.rev_append acc rest;
            decr n_free;
            if jb_protect_rw addr size then Some addr
            else begin
              jb_unmap addr size;
              Atomic.incr unmaps_total;
              take acc rest
            end
          end
      in
      take [] !free)

let install (code : bytes) =
  if not available then failwith "Exec_mem.install: no native backend";
  let code_size = Bytes.length code in
  let size = round_to_pages (max code_size 1) in
  let addr =
    match take_free size with
    | Some addr -> addr
    | None ->
      let addr = jb_map_rw size in
      if Nativeint.equal addr 0n then failwith "Exec_mem.install: mmap failed";
      addr
  in
  jb_fill addr code code_size;
  if not (jb_protect_rx addr size) then begin
    jb_unmap addr size;
    failwith "Exec_mem.install: mprotect(RX) failed"
  end;
  Atomic.incr maps_total;
  Atomic.incr live_regions;
  ignore (Atomic.fetch_and_add live_bytes size);
  { addr; size; code_size; mapped = true }

let retire r =
  r.mapped <- false;
  Atomic.decr live_regions;
  ignore (Atomic.fetch_and_add live_bytes (-r.size))

let release r =
  if r.mapped then begin
    retire r;
    jb_unmap r.addr r.size;
    Atomic.incr unmaps_total
  end

let recycle r =
  if r.mapped then begin
    retire r;
    let kept =
      Mutex.protect free_mu (fun () ->
          if !n_free >= max_free then false
          else begin
            free := (r.addr, r.size) :: !free;
            incr n_free;
            true
          end)
    in
    if not kept then begin
      jb_unmap r.addr r.size;
      Atomic.incr unmaps_total
    end
  end

let call r off regs heap = jb_call r.addr off regs heap

let make_regfile slots =
  Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout (max slots 1)

type stats = {
  s_maps_total : int;
  s_unmaps_total : int;
  s_live_regions : int;
  s_live_bytes : int;
  s_free_regions : int;
}

let stats () =
  {
    s_maps_total = Atomic.get maps_total;
    s_unmaps_total = Atomic.get unmaps_total;
    s_live_regions = Atomic.get live_regions;
    s_live_bytes = Atomic.get live_bytes;
    s_free_regions = Mutex.protect free_mu (fun () -> !n_free);
  }
