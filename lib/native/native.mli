(** The native Ion tier: lowers allocated LIR to x86-64 machine code in
    W^X executable memory and runs it over an unboxed NaN-boxed register
    file, exiting to the host for runtime operations and deopts.

    Differential contract: for every LIR function and every argument
    list, {!run} returns the same value, raises the same
    {!Jitbull_lir.Lir.Bailout} message, or raises the same runtime error
    as {!Jitbull_lir.Executor.run} — including under vulnerable go/no-go
    configurations where removed guards expose type-confusion semantics.
    The fuzzer's tier-agreement oracle holds the backend to this. *)

module Value = Jitbull_runtime.Value
module Realm = Jitbull_runtime.Realm
module Lir = Jitbull_lir.Lir
module Executor = Jitbull_lir.Executor

(** x86-64 POSIX host? *)
val available : unit -> bool

(** [available] and not forced off via [JITBULL_NO_NATIVE]. *)
val enabled : unit -> bool

type code

(** Lower a LIR function and install it into RX memory.  Call only
    after the go/no-go verdict admits the compile: a Forbid must never
    reach this point (tests assert no page is ever mapped for a
    forbidden function).  A code that becomes unreachable without a
    {!release} gives its pages and profiler slot back at the next
    [compile], which may refill those pages. *)
val compile : Lir.func -> code

(** The machine code {!compile} installs for a function, without
    installing it. *)
val emit : Lir.func -> bytes

(** Execute.  Raises {!Lir.Bailout} with an executor-identical message
    on failed guards. *)
val run :
  code -> Realm.t -> Executor.callbacks -> Value.t list -> Value.t

(** Unmap the code pages (deferred while recursive activations are still
    on the stack).  Idempotent. *)
val release : code -> unit

val code_size : code -> int
val region : code -> Exec_mem.region

type exit_totals = {
  t_return : int;
  t_hostop : int;
  t_bailout : int;
  t_test : int;
}

(** Cumulative exit counts since compile — the engine flushes deltas to
    observability. *)
val exits : code -> exit_totals
