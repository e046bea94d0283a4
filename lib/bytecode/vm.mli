(** Invocation-counting stack VM — the interpreter tier of the engine.

    The VM executes bytecode directly, using checked heap accesses only.
    Tier-up is delegated: before running a function body it consults
    [dispatch], an array of optional compiled entry points installed by the
    JIT engine, and a [on_invoke] hook fires on every call with the fresh
    invocation count so the engine can decide to compile. The VM itself has
    no knowledge of MIR or JITBULL, mirroring the layering of a real
    runtime. *)

module Value = Jitbull_runtime.Value

(** Pre-resolved dispatch counters ([vm.calls], [vm.dispatch.interp],
    [vm.dispatch.jit]): name lookup happens once in {!install_obs}, the
    per-call cost is one option match and an integer increment. *)
type vm_counters

(** The global bindings: one slot per name, resolved by {!create}. *)
type slots

type t = {
  realm : Jitbull_runtime.Realm.t;
  program : Op.program;
  globals : (string, Value.t) Hashtbl.t;
      (** the declaration index: each declared function's name bound to
          its [Value.Function], as {!create} found them. Stores do not
          reach it; the live bindings are in [slots]. *)
  slots : slots;
  counters : int array;  (** invocation counts, indexed by function *)
  dispatch : (Value.t list -> Value.t) option array;
      (** compiled entry points; [call_function] prefers these *)
  feedback : Feedback.t;
      (** per-site type feedback collected while interpreting *)
  mutable on_invoke : (t -> int -> int -> unit) option;
      (** [on_invoke vm func_index count] fires before dispatch *)
  mutable obs_counters : vm_counters option;
      (** dispatch telemetry; [None] (the default) records nothing *)
}

(** [create ?realm program] resolves every global name in the bytecode,
    and every declared function, to a slot (each declared function is
    pre-bound to its [Value.Function]) and zeroes the counters. A global
    access in the interpreter then reads its slot by pc and hashes no
    name. *)
val create : ?realm:Jitbull_runtime.Realm.t -> Op.program -> t

(** [install_obs vm obs] resolves the dispatch counters against [obs]'s
    metrics registry and starts counting calls per tier. *)
val install_obs : t -> Jitbull_obs.Obs.t -> unit

(** [load_global vm name] reads a global binding, falling back to builtin
    namespaces/functions; raises for undefined names. [store_global]
    creates or updates a global. Used by JITed code through the executor
    callbacks: these look the name's slot up by name, and give a name
    the bytecode never mentions a fresh slot. *)

val load_global : t -> string -> Value.t
val store_global : t -> string -> Value.t -> unit
val declare_global : t -> string -> unit

(** [call_function vm idx args] applies the tier-up protocol: bump counter,
    fire [on_invoke], then run the compiled entry if installed (checking
    the heap sentinel first, as a real engine transfers control through the
    JIT code pointer) else interpret the bytecode. *)
val call_function : t -> int -> Value.t list -> Value.t

(** [interpret vm ~func_index f args] runs [f]'s bytecode directly in the
    interpreter, bypassing dispatch — the engine uses it to replay a call
    after a JIT bailout. [f] must be the program's own: [funcs.(func_index)],
    or [main] with [func_index] = -1, which also disables feedback
    recording; the global slots were resolved for exactly those. *)
val interpret : t -> func_index:int -> Op.func -> Value.t list -> Value.t

(** [run vm] executes the program's top level; returns the printed
    output. *)
val run : t -> string

(** [run_program program] — create + run on a fresh realm. *)
val run_program : Op.program -> string
