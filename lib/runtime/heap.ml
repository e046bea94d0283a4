let sentinel_magic = 49374.0 (* 0xC0DE *)

type free_region = {
  addr : int;
  size : int;
}

(* Cells live in pages of [page_size]; cell [a] is
   [pages.(a lsr page_bits).(a land page_mask)]. Every page not yet written
   is [empty], one shared page of [Undefined] that is never written, so a
   realm pays only for the pages its arrays and forged writes touch. A
   [size_limit] that is not a multiple of [page_size] ends in a shorter
   page, allocated at creation, so any address at or past [size] fails
   the same array bounds check the flat array did. *)
let page_bits = 10
let page_size = 1 lsl page_bits
let page_mask = page_size - 1
let empty : Value.t array = Array.make page_size Value.Undefined

(* The mirror: a NaN-boxed copy ({!Nanbox.cell_bits}) of every cell and
   of the handle table, outside the OCaml heap, for generated code to
   read. Its pages shadow the heap's: a never-written heap page is
   [mirror_empty], one shared page of [Undefined] bits. The descriptor
   [desc] is what generated code is handed; its fields, in order, are the
   address of the page address table, the address of the handle table,
   [next_handle] and [size_limit]. It never moves, so growing the handle
   table rewrites a field and invalidates no emitted code. *)
external bigarray_addr : Nanbox.words -> int64 = "jb_bigarray_addr"

let desc_pages = 0
let desc_handles = 1
let desc_next_handle = 2
let desc_size_limit = 3

let new_words n fill =
  let b = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout n in
  Bigarray.Array1.fill b fill;
  b

let mirror_empty = new_words page_size Nanbox.bits_undefined

type mirror = {
  desc : Nanbox.words;
  mpages : Nanbox.words array;       (* mirror page per heap page *)
  page_addrs : Nanbox.words;         (* their data addresses *)
  mutable handles : Nanbox.words;    (* handle -> base address *)
}

type t = {
  pages : Value.t array array;
  size_limit : int;                  (* logical cell count *)
  mutable brk : int;                 (* bump pointer *)
  mutable free : free_region list;   (* reclaimed regions, first-fit *)
  mutable largest : int;             (* >= every free region's size *)
  mutable table : int array;         (* handle -> base address *)
  mutable next_handle : int;
  mutable sentinel_addr : int;       (* -1 when not allocated *)
  mutable mirror : mirror option;    (* built by the first [mirror] *)
}

let size t = t.size_limit

let create ?(size_limit = 1 lsl 18) () =
  let full = size_limit lsr page_bits and tail = size_limit land page_mask in
  let pages = Array.make (full + if tail > 0 then 1 else 0) empty in
  if tail > 0 then pages.(full) <- Array.make tail Value.Undefined;
  {
    pages;
    size_limit;
    brk = 0;
    free = [];
    largest = 0;
    table = Array.make 64 (-1);
    next_handle = 0;
    sentinel_addr = -1;
    mirror = None;
  }

(* An address outside [0, size) fails an array bounds check here, as it
   did on the flat array: a negative one indexes past the page table. *)
let cell t a = t.pages.(a lsr page_bits).(a land page_mask)

(* A heap page's mirror page, filled from its cells. *)
let mirror_page m p (page : Value.t array) =
  let mp = new_words page_size Nanbox.bits_undefined in
  Array.iteri (fun k v -> Bigarray.Array1.unsafe_set mp k (Nanbox.cell_bits v)) page;
  m.mpages.(p) <- mp;
  m.page_addrs.{p} <- bigarray_addr mp

(* Every cell write is followed by [mirror_write], once the write to the
   page has passed its bounds check: a mirror page is never shorter than
   its heap page. *)
let[@inline] mirror_write t a v =
  match t.mirror with
  | None -> ()
  | Some m ->
    Bigarray.Array1.unsafe_set
      (Array.unsafe_get m.mpages (a lsr page_bits))
      (a land page_mask) (Nanbox.cell_bits v)

(* Writing [Undefined] over a never-written page changes nothing. *)
let materialize t a v =
  match v with
  | Value.Undefined -> ()
  | _ ->
    let p = a lsr page_bits in
    let page = Array.make page_size Value.Undefined in
    t.pages.(p) <- page;
    (match t.mirror with None -> () | Some m -> mirror_page m p page);
    page.(a land page_mask) <- v;
    mirror_write t a v

let set_cell t a v =
  let page = t.pages.(a lsr page_bits) in
  if page != empty then begin
    page.(a land page_mask) <- v;
    mirror_write t a v
  end
  else materialize t a v

(* The element accessors have already bounded [a] above by [size], so a
   non-negative [a] indexes without the array bounds checks. A negative
   one (base + 2 + i wrapped past max_int under a forged length near
   max_int) takes the checked path and fails there, as on the flat array. *)
let cell_in t a =
  if a >= 0 then
    Array.unsafe_get (Array.unsafe_get t.pages (a lsr page_bits)) (a land page_mask)
  else cell t a

let set_cell_in t a v =
  if a >= 0 then begin
    let page = Array.unsafe_get t.pages (a lsr page_bits) in
    if page != empty then begin
      Array.unsafe_set page (a land page_mask) v;
      mirror_write t a v
    end
    else materialize t a v
  end
  else set_cell t a v

let bump t n =
  let limit = if t.sentinel_addr >= 0 then t.sentinel_addr else size t in
  if t.brk + n > limit then raise Errors.Heap_exhausted;
  let base = t.brk in
  t.brk <- t.brk + n;
  base

exception No_fit

(* First-fit allocation from the free list, falling back to bumping. The
   sentinel occupies the top two cells, which the bump pointer may not
   reach. [largest] bounds the free regions' sizes from above, so a
   request larger than it bumps without walking the list. [take] returns
   [l] with [n] cells cut from the front of its first region that holds
   them, whose address it puts in [at]; it copies the regions before that
   one only on the way back from a fit, so a walk that finds none conses
   nothing: it sets [largest] exactly and raises [No_fit]. *)
let rec take t n at largest = function
  | [] ->
    t.largest <- largest;
    raise_notrace No_fit
  | r :: rest when r.size >= n ->
    at := r.addr;
    if r.size > n then { addr = r.addr + n; size = r.size - n } :: rest else rest
  | r :: rest -> r :: take t n at (max largest r.size) rest

let alloc_cells t n =
  if n > t.largest then bump t n
  else
    let at = ref 0 in
    match take t n at 0 t.free with
    | free ->
      t.free <- free;
      !at
    | exception No_fit -> bump t n

let free_cells t addr n =
  if n > 0 then begin
    for i = addr to addr + n - 1 do
      set_cell t i Value.Undefined
    done;
    t.free <- { addr; size = n } :: t.free;
    if n > t.largest then t.largest <- n
  end

(* [Array.blit] over the cells: the same bounds test and message, then a
   copy in whichever direction survives an overlap (a corrupted length
   header can make the source run into the destination). *)
let blit t src dst n =
  if n < 0 || src < 0 || src > size t - n || dst < 0 || dst > size t - n then
    invalid_arg "Array.blit";
  if src < dst then
    for i = n - 1 downto 0 do
      set_cell t (dst + i) (cell t (src + i))
    done
  else
    for i = 0 to n - 1 do
      set_cell t (dst + i) (cell t (src + i))
    done

let mirror_handles m (table : int array) =
  let handles = new_words (Array.length table) (-1L) in
  Array.iteri (fun h base -> handles.{h} <- Int64.of_int base) table;
  m.handles <- handles;
  m.desc.{desc_handles} <- bigarray_addr handles

let fresh_handle t =
  let h = t.next_handle in
  t.next_handle <- h + 1;
  if h >= Array.length t.table then begin
    let table = Array.make (2 * Array.length t.table) (-1) in
    Array.blit t.table 0 table 0 (Array.length t.table);
    t.table <- table;
    match t.mirror with None -> () | Some m -> mirror_handles m table
  end;
  h

(* Point handle [h] at [base]. The mirror learns a new handle only once
   its base is in place. *)
let set_base t h base =
  t.table.(h) <- base;
  match t.mirror with
  | None -> ()
  | Some m ->
    m.handles.{h} <- Int64.of_int base;
    m.desc.{desc_next_handle} <- Int64.of_int t.next_handle

let write_header t base ~length ~capacity =
  set_cell t base (Value.Number (float_of_int length));
  set_cell t (base + 1) (Value.Number (float_of_int capacity))

let alloc_region t ~length ~capacity =
  let base = alloc_cells t (2 + capacity) in
  write_header t base ~length ~capacity;
  for i = 0 to length - 1 do
    set_cell t (base + 2 + i) Value.Undefined
  done;
  base

let alloc_array t ~length =
  let capacity = max length 1 in
  let base = alloc_region t ~length ~capacity in
  let h = fresh_handle t in
  set_base t h base;
  h

let base_addr t h = t.table.(h)

let mirror t =
  match t.mirror with
  | Some m -> m.desc
  | None ->
    let n = Array.length t.pages in
    let m =
      {
        desc = new_words 4 0L;
        mpages = Array.make n mirror_empty;
        page_addrs = new_words n (bigarray_addr mirror_empty);
        handles = mirror_empty;
      }
    in
    Array.iteri (fun p page -> if page != empty then mirror_page m p page) t.pages;
    mirror_handles m t.table;
    m.desc.{desc_pages} <- bigarray_addr m.page_addrs;
    m.desc.{desc_next_handle} <- Int64.of_int t.next_handle;
    m.desc.{desc_size_limit} <- Int64.of_int t.size_limit;
    t.mirror <- Some m;
    m.desc

let mirror_of t =
  match t.mirror with Some m -> m | None -> invalid_arg "Heap: no mirror"

let mirror_cell t a =
  Bigarray.Array1.get (mirror_of t).mpages.(a lsr page_bits) (a land page_mask)

let mirror_base t h = (mirror_of t).handles.{h}

(* The sentinel lives in the top two cells of the heap: a forged
   read/write primitive built from a corrupted array length (whose reach
   is forward from the array's base) can always reach it. *)
let alloc_sentinel t =
  let base = size t - 2 in
  set_cell t base (Value.Number sentinel_magic);
  set_cell t (base + 1) (Value.Number sentinel_magic);
  t.sentinel_addr <- base;
  base

let sentinel_intact t =
  t.sentinel_addr < 0
  ||
  match cell t t.sentinel_addr with
  | Value.Number f -> f = sentinel_magic
  | _ -> false

let check_sentinel t =
  if not (sentinel_intact t) then
    raise
      (Errors.Shellcode_executed
         (Printf.sprintf "JIT code pointer at heap cell %d was overwritten" t.sentinel_addr))

(* Header reads must tolerate corruption: an exploit may have overwritten a
   length cell with an arbitrary value; a real engine reads whatever bytes
   are there. *)
let header_int t addr =
  match cell t addr with
  | Value.Number f when Float.is_nan f -> 0
  | Value.Number f -> int_of_float f
  | _ -> 0

let length t h = header_int t t.table.(h)

let capacity t h = header_int t (t.table.(h) + 1)

(* Shrinking reclaims the storage tail (SpiderMonkey "reclaims memory
   areas that no longer belong to the array" — the behaviour
   CVE-2019-17026's exploit depends on: a victim object allocated next
   lands in the reclaimed region, right after the shrunk array). Growing
   past capacity reallocates and frees the old region. *)
let set_length t h n =
  let n = max n 0 in
  let base = t.table.(h) in
  let cap = header_int t (base + 1) in
  let old_len = header_int t base in
  if n <= cap then begin
    for i = old_len to n - 1 do
      set_cell t (base + 2 + i) Value.Undefined
    done;
    let new_cap = max n 1 in
    if new_cap < cap then begin
      write_header t base ~length:n ~capacity:new_cap;
      free_cells t (base + 2 + new_cap) (cap - new_cap)
    end
    else set_cell t base (Value.Number (float_of_int n))
  end
  else begin
    let new_cap = max n (2 * cap) in
    let new_base = alloc_region t ~length:n ~capacity:new_cap in
    blit t (base + 2) (new_base + 2) (min old_len n);
    for i = old_len to n - 1 do
      set_cell t (new_base + 2 + i) Value.Undefined
    done;
    set_base t h new_base;
    free_cells t base (2 + cap)
  end

(* Checked accesses bound the physical heap as well, so that a corrupted
   length header lets scripts read/write far beyond the array (the forged
   r/w primitive) without crashing the host. *)
let get t h i =
  let base = t.table.(h) in
  let len = header_int t base in
  let addr = base + 2 + i in
  if i >= 0 && i < len && addr < size t then cell_in t addr else Value.Undefined

let set t h i v =
  let base = t.table.(h) in
  let len = header_int t base in
  let addr = base + 2 + i in
  if i >= 0 && i < len then begin
    if addr < size t then set_cell_in t addr v
  end
  else if i = len then begin
    if len >= 0 && len < header_int t (base + 1) then begin
      (* an append within capacity writes in place, as [push] does *)
      set_cell t addr v;
      set_cell t base (Value.Number (float_of_int (len + 1)))
    end
    else begin
      set_length t h (len + 1);
      let base = t.table.(h) in
      set_cell t (base + 2 + i) v
    end
  end
  (* sparse writes further out are ignored: the subset only supports dense
     arrays *)

let get_unchecked t h i =
  let base = t.table.(h) in
  let addr = base + 2 + i in
  if addr < 0 || addr >= size t then
    Errors.crash "OOB read at heap address %d (heap size %d)" addr (size t)
  else cell_in t addr

let set_unchecked t h i v =
  let base = t.table.(h) in
  let addr = base + 2 + i in
  if addr < 0 || addr >= size t then
    Errors.crash "OOB write at heap address %d (heap size %d)" addr (size t)
  else set_cell_in t addr v

let push t h v =
  let base = t.table.(h) in
  let len = header_int t base in
  let cap = header_int t (base + 1) in
  if len < cap then begin
    set_cell t (base + 2 + len) v;
    set_cell t base (Value.Number (float_of_int (len + 1)))
  end
  else begin
    set_length t h (len + 1);
    let base = t.table.(h) in
    set_cell t (base + 2 + len) v
  end

(* pop does not reclaim storage (JS engines shrink lazily if at all). *)
let pop t h =
  let base = t.table.(h) in
  let len = header_int t base in
  if len <= 0 then Value.Undefined
  else begin
    let v = cell t (base + 2 + (len - 1)) in
    set_cell t base (Value.Number (float_of_int (len - 1)));
    v
  end

let cells_used t = t.brk
