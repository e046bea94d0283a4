(** Simulated heap for JS arrays: one flat address space of cells.

    Array {e storage} is laid out contiguously, SpiderMonkey-style, as
    [| length; capacity; elem0; elem1; ... |] where the header cells hold
    [Value.Number]s. Allocation is first-fit over a free list, falling
    back to bumping, so consecutive allocations are adjacent and —
    crucially for the modeled CVEs — an object allocated after an array
    shrink lands in the {e reclaimed} region right behind the shrunk
    array, where a stale bounds check lets JITed code overwrite it.

    Array {e handles} (the [int] carried by [Value.Array]) are indices into
    an object table mapping handle → current base address, so arrays can be
    reallocated (e.g. by [push] past capacity, which frees the old region)
    without invalidating handles.

    Reclaim policy, mirroring the behaviours the CVE exploits depend on:
    - [set_length] to a smaller value shrinks capacity and frees the tail;
    - growing past capacity reallocates and frees the old region;
    - [pop] only decrements the length (lazy shrink).

    Two access families:
    - {e checked} accessors ([get]/[set]) enforce the logical length (and,
      defensively, the physical heap bound — a corrupted length header
      yields a forged read/write primitive over the whole heap rather than
      a host crash), as the interpreter and bytecode VM do;
    - {e unchecked} accessors only enforce physical heap bounds (beyond
      which they raise {!Errors.Crash}), as JITed code does once its
      [boundscheck] instruction has been (possibly wrongly) optimized
      away.

    A {e sentinel} pair of cells at the very top of the heap stands in for
    a function's JIT code pointer; a forged forward-reaching primitive can
    always reach it. [check_sentinel] raises {!Errors.Shellcode_executed}
    when the magic value has been tampered with; the engine calls it
    before transferring control to JITed code. *)

type t

(** Magic value stored in the sentinel cell (recognizable to exploit code
    scanning memory with a forged read primitive). *)
val sentinel_magic : float

(** [create ?size_limit ()] builds a heap of [size_limit] cells (default
    [1 lsl 18]), all reading [Undefined]. Exhausting it raises
    {!Errors.Heap_exhausted}.

    Storage is paged: cells live in fixed-size pages, and every page not
    yet written is one shared page of [Undefined], so a realm allocates
    only the pages its arrays and forged writes touch, plus a page table
    of [size_limit / page size] slots. Everything observable stays
    logical: [size], the bump limit, the sentinel address, the
    {!Errors.Crash} bound of the unchecked accessors, and the
    [Invalid_argument] an address outside [[0, size_limit)] raises
    wherever a corrupted header leads an access there. *)
val create : ?size_limit:int -> unit -> t

(** [size t] is the logical cell count, [size_limit]. *)
val size : t -> int

(** [alloc_array t ~length] allocates an array of [length] cells
    initialized to [Undefined]; capacity is [max length 1]. Returns the
    handle. *)
val alloc_array : t -> length:int -> int

(** [base_addr t handle] is the current base address of the array's
    storage (diagnostics and exploit-facing introspection). *)
val base_addr : t -> int -> int

(** {2 The mirror generated code reads}

    Native code cannot read boxed cells, so on demand the heap keeps a
    second copy of every cell and of the handle table in NaN-boxed int64
    words ({!Nanbox.cell_bits}; a string, object or builtin cell reads
    {!Nanbox.bits_host}). The copy lives outside the OCaml heap, in pages
    that shadow the heap's, and every cell write updates it. Until the
    first {!mirror} there is none, and a write pays one branch for it. *)

(** [mirror t] builds the mirror on the first call and returns its
    descriptor, four int64 words that never move: the address of a table
    of [size t / page size] (rounded up) page addresses, each page a
    run of [2{^page bits}] cells; the address of the handle → base table;
    the number of handles; and [size t]. Generated code is handed the
    descriptor's address and finds both tables through it, so a handle
    table that grows invalidates no code. *)
val mirror : t -> Nanbox.words

(** [page_bits] is the log2 of the cells in a page. *)
val page_bits : int

(** The descriptor's word indices, in the order above. *)

val desc_pages : int
val desc_handles : int
val desc_next_handle : int
val desc_size_limit : int

(** [mirror_cell t a] is the mirror's bits for cell [a], and
    [mirror_base t h] its base address for handle [h] (tests; the mirror
    must exist). *)
val mirror_cell : t -> int -> int64

val mirror_base : t -> int -> int64

(** [alloc_sentinel t] installs the JIT-code-pointer sentinel in the top
    two cells and returns its address. Called by the engine when the
    first function is JIT-compiled. *)
val alloc_sentinel : t -> int

(** [check_sentinel t] raises {!Errors.Shellcode_executed} if the sentinel
    was overwritten; no-op when no sentinel was allocated. *)
val check_sentinel : t -> unit

(** [sentinel_intact t] is [false] when the sentinel has been tampered
    with. *)
val sentinel_intact : t -> bool

(** Logical length of the array behind [handle] (reads the header; a
    corrupted non-numeric header coerces through [0]). *)
val length : t -> int -> int

val capacity : t -> int -> int

(** [set_length t handle n] shrinks (reclaiming the tail) or grows
    (reallocating past capacity) the array. Stale data below the new
    length is preserved. *)
val set_length : t -> int -> int -> unit

(** Checked element access; [get] returns [Undefined] out of bounds, [set]
    appends when writing one-past-the-end (in place within capacity, as
    [push] does; past it, by doubling) and ignores writes further out. *)

val get : t -> int -> int -> Value.t
val set : t -> int -> int -> Value.t -> unit

(** Unchecked element access used by JITed code. Bounds are checked only
    against the physical heap; out-of-heap access raises
    {!Errors.Crash}. *)

val get_unchecked : t -> int -> int -> Value.t
val set_unchecked : t -> int -> int -> Value.t -> unit

(** [push t handle v] appends (growing capacity by doubling when needed);
    [pop t handle] removes and returns the last element or [Undefined]
    when empty. *)

val push : t -> int -> Value.t -> unit
val pop : t -> int -> Value.t

(** [cells_used t] is the bump high-water mark (diagnostics, bench
    reporting). *)
val cells_used : t -> int
