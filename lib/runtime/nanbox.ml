(* NaN-boxing codec for the unboxed register file.

   Doubles are stored as their raw IEEE-754 bits.  Everything else lives
   in the tag space: bits unsigned-≥ 0xFFFC_0000_0000_0000, keyed by the
   top 16 bits.  That space is unreachable by arithmetic: the x86 default
   QNaN is 0xFFF8_…, libm NaNs are 0x7FF8_…, and SSE NaN propagation
   preserves operand payloads — and every NaN entering the register file
   from the host is canonicalized first, so generated code can test
   "is this a number?" with one unsigned compare against the boundary.

   Tag layout (top 16 bits / payload in the low 48):
   - 0xFFFC  singletons: payload 0 undefined, 1 null, 2 false, 3 true
   - 0xFFFD  Array       payload = heap handle
   - 0xFFFE  Function    payload = function-table index
   - 0xFFFF  side ref    payload = index into the activation's side table
             (String / Object / Builtin — values the 48-bit payload
             cannot carry; the OCaml side table keeps them GC-rooted)

   The heap's mirror ({!Heap.mirror}) stores cells in the same layout,
   except that a string, object or builtin, which has no side table
   there, becomes [bits_host]: the all-ones side ref, which no side
   table reaches, and which tells generated code to ask the host. *)

(* NaN-boxed words in C memory: a register file, or the heap mirror's
   pages and tables. *)
type words = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

let tag_shift = 48
let tag_singleton = 0xFFFC
let tag_array = 0xFFFD
let tag_function = 0xFFFE
let tag_side = 0xFFFF

let bits_min_tag = 0xFFFC000000000000L
let bits_undefined = 0xFFFC000000000000L
let bits_null = 0xFFFC000000000001L
let bits_false = 0xFFFC000000000002L
let bits_true = 0xFFFC000000000003L
let canonical_nan = 0x7FF8000000000000L
let payload_mask = 0x0000FFFFFFFFFFFFL
let bits_host = -1L

(* Per-activation side table; slots [0, preload) hold the function's
   non-immediate constants and survive {!reset}.  A compaction fills
   [spare] and swaps it with [items], so it allocates nothing. *)
type side = {
  mutable items : Value.t array;
  mutable n : int;
  mutable preload : int;
  mutable spare : Value.t array;
}

let side_create ?(size = 16) () =
  { items = Array.make (max size 1) Value.Undefined; n = 0; preload = 0; spare = [||] }

let side_push side v =
  if side.n = Array.length side.items then begin
    let bigger = Array.make (2 * side.n) Value.Undefined in
    Array.blit side.items 0 bigger 0 side.n;
    side.items <- bigger
  end;
  side.items.(side.n) <- v;
  side.n <- side.n + 1;
  side.n - 1

let side_reset side ~preload =
  side.preload <- preload;
  side.n <- preload

let[@inline] tagged tag payload =
  Int64.logor
    (Int64.shift_left (Int64.of_int tag) tag_shift)
    (Int64.logand (Int64.of_int payload) payload_mask)

let[@inline] is_number bits = Int64.unsigned_compare bits bits_min_tag < 0
let[@inline] is_side bits =
  Int64.shift_right_logical bits tag_shift = Int64.of_int tag_side

let[@inline] cell_bits (v : Value.t) : int64 =
  match v with
  | Value.Number f -> if Float.is_nan f then canonical_nan else Int64.bits_of_float f
  | Value.Undefined -> bits_undefined
  | Value.Null -> bits_null
  | Value.Bool false -> bits_false
  | Value.Bool true -> bits_true
  | Value.Array h -> tagged tag_array h
  | Value.Function i -> tagged tag_function i
  | Value.String _ | Value.Object _ | Value.Builtin _ -> bits_host

let[@inline] encode side (v : Value.t) : int64 =
  match v with
  | Value.String _ | Value.Object _ | Value.Builtin _ ->
    tagged tag_side (side_push side v)
  | v -> cell_bits v

let[@inline] decode side (bits : int64) : Value.t =
  if is_number bits then Value.Number (Int64.float_of_bits bits)
  else
    let tag = Int64.to_int (Int64.shift_right_logical bits tag_shift) in
    let payload = Int64.to_int (Int64.logand bits payload_mask) in
    if tag = tag_singleton then
      match payload with
      | 0 -> Value.Undefined
      | 1 -> Value.Null
      | 2 -> Value.Bool false
      | _ -> Value.Bool true
    else if tag = tag_array then Value.Array payload
    else if tag = tag_function then Value.Function payload
    else side.items.(payload)

(* Before a full table grows: copy the preload, and each value a register
   other than [skip] (about to be overwritten) references, into the spare
   table; renumber those registers and swap the tables. *)
let compact side (regs : words) ~skip =
  let size = side.preload + Bigarray.Array1.dim regs in
  if Array.length side.spare < size then side.spare <- Array.make size Value.Undefined;
  let spare = side.spare and n = ref side.preload in
  Array.blit side.items 0 spare 0 side.preload;
  for r = 0 to Bigarray.Array1.dim regs - 1 do
    let k = Int64.to_int (Int64.logand regs.{r} payload_mask) in
    if r <> skip && is_side regs.{r} && k >= side.preload then begin
      spare.(!n) <- side.items.(k);
      regs.{r} <- tagged tag_side !n;
      incr n
    end
  done;
  Array.fill side.items 0 side.n Value.Undefined;
  side.spare <- side.items;
  side.items <- spare;
  side.n <- !n

let load side (regs : words) r = decode side regs.{r}

let store side (regs : words) r v =
  if side.n = Array.length side.items then compact side regs ~skip:r;
  regs.{r} <- encode side v
