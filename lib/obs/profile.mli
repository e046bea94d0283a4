(** The sampling profiler: an ITIMER_PROF/SIGPROF sampler (C stub) with
    process-global attribution state.

    Each tick is bucketed by the interrupted program counter against a
    fixed atomic table of registered native code pages — a PC inside an
    installed page attributes to that native function, no matter what
    the thread was tagged — falling back to the interrupted thread's
    current {e tag}, a small integer set around the VM dispatch loop,
    pass execution, the comparator, and the native call gate. Ticks
    matching neither count as ["other"].

    Disabled profiling installs no signal handler, and {!with_tag} is one
    atomic load — beside the closure its caller builds, which a hot call
    site skips by testing {!running} first. There is one timer per
    process, so one process-global profiler. Sampling needs Linux/x86-64
    ({!available}); elsewhere {!start} returns [false] and everything
    else degrades to no-ops. *)

val available : unit -> bool

(** Install the SIGPROF handler and arm the CPU-time timer at 997
    samples/second (off round frequencies to dodge lockstep with
    periodic work). [false] when sampling is unsupported or the timer
    could not be armed. Idempotent while running. *)
val start : unit -> bool

(** Disarm the timer and ignore stragglers. Counters survive for
    {!report}. *)
val stop : unit -> unit

val running : unit -> bool

(** {1 Attribution} *)

(** Intern a hierarchical frame name (";"-separated, e.g.
    ["vm;dispatch"]) into a tag id. Call once per site, at module init —
    at most 63 distinct names (beyond that, ticks count as ["other"]). *)
val tag : string -> int

(** [with_tag id f] runs [f] with the calling thread's profiler tag set
    to [id], restoring the previous tag after (tags nest; innermost
    wins). When profiling is off it only calls [f], but the caller has
    already allocated [f] if it closes over anything: a call site on a
    path that must not allocate (the native call gate's host exits)
    calls its body directly unless {!running} is true. *)
val with_tag : int -> (unit -> 'a) -> 'a

(** [register_page ~addr ~size name] enters an installed native code
    page into the sampler's page table; ticks landing in
    [addr, addr+size) attribute to [name]. Returns the slot to pass to
    {!drop_page} (-1 when the table is full — harmless, ticks fall back
    to tags). *)
val register_page : addr:nativeint -> size:int -> string -> int

(** Free the slot when its page is unmapped; accumulated hits are folded
    into a retired-by-name table so the frame survives in {!report}. *)
val drop_page : int -> unit

(** Slots of the page table in use: pages registered and not dropped. *)
val registered_pages : unit -> int

(** {1 Results} *)

val total_samples : unit -> int

(** (frame name, ticks) for every non-zero bucket, heaviest first,
    including ["other"] for unattributed ticks. *)
val report : unit -> (string * int) list

(** Fraction of ticks attributed to a named frame (1.0 when no samples
    were taken). *)
val attributed_fraction : unit -> float

(** Collapsed-stack text (["jsrun;frame;subframe count"] lines) — ready
    for flamegraph.pl / speedscope. *)
val collapsed : unit -> string

(** Zero all counters (bench A/B); registered pages and tag interning
    survive. *)
val reset : unit -> unit
