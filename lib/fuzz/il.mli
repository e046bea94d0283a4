(** Typed mutation IL over the bytecode layer (FuzzIL-style).

    The guided fuzzer's only mutation substrate. Source-level mutants are
    semantically fragile: an inserted statement references names that do
    not exist, a perturbed literal turns a loop bound infinite, a spliced
    chunk reads a variable of the wrong shape. This IL makes the mutation
    space typed instead: every instruction declares the types of its
    input and output variables, control flow is structured (bounded
    counted loops, two-armed ifs), and programs carry their own
    function table and global-array slots — so splice/combine/code-gen
    mutators ({!Il_mutate}) can only produce programs that

    - lower to parseable mini-JS ({!to_source}),
    - compile to bytecode that passes the verifier
      ({!Jitbull_bytecode.Verify}), and
    - terminate (loop bounds are structural constants or array lengths
      read into a variable nothing may rewrite, and calls can only reach
      strictly lower-indexed functions, so there is no recursion) within
      the model heap.

    The campaign measures that promise as the {e mutation yield}: the
    fraction of executed mutants that run to completion without a
    runtime error. Out-of-bounds array traffic is deliberately still
    expressible — an OOB read is [undefined] (arithmetic turns it into
    [NaN], which is still a number), an OOB write is absorbed or grows
    the array by one — because those are exactly the shapes that reach
    the modeled CVEs. *)

(** Variable types. [Num]-typed variables may dynamically hold
    [undefined]/[NaN] after OOB reads; every operation consuming them is
    total. *)
type ty =
  | Num
  | Bool
  | Str
  | Arr

(** Numeric binary operators (Num × Num → Num, all total). *)
type binop = Add | Sub | Mul | Div | Mod | BAnd | BOr | BXor | Shl | Shr | Ushr

(** Comparisons (Num × Num → Bool). *)
type cmpop = Lt | Le | Gt | Ge | Eq | Neq

val binop_name : binop -> string
val cmpop_name : cmpop -> string
val all_binops : binop list
val all_cmpops : cmpop list

(** Variables are small ints, rendered [v<n>]. Within one function (or
    main) every defining occurrence uses a fresh id. *)
type var = int

type instr =
  | Const of var * float  (** v := literal *)
  | Str_const of var * string  (** v := "literal" *)
  | Bool_const of var * bool
  | Binop of var * binop * var * var
  | Cmp of var * cmpop * var * var
  | Not of var * var  (** Bool → Bool *)
  | Copy of var * var  (** reassign: dst = src, both Num *)
  | Update of var * binop * var  (** dst = dst op src, both Num *)
  | Array_of of var * var list  (** v := [nums…] *)
  | Get_len of var * var  (** Num := arr.length; result is length-tainted
                              and usable as a {!Loop_n} bound *)
  | Set_len of var * int  (** arr.length = k, structural 0 ≤ k ≤ 15 *)
  | Get_elem of var * var * var  (** Num := arr[idx] *)
  | Set_elem of var * var * var  (** arr[idx] = num *)
  | Gnew of int * var list  (** g<slot> = [nums…] — fresh allocation *)
  | Gget_len of var * int  (** main-only, see below *)
  | Gset_len of int * int
  | Gget_elem of var * int * var  (** main-only, see below *)
  | Gset_elem of int * var * var
  | Call of var * int * var list  (** Num := f<k>(nums…) *)
  | Print of var  (** main-only, see below *)
  | Print_tag of string * var  (** main-only; print("tag" + v) *)
  | If of var * instr list * instr list  (** cond is Bool *)
  | Loop of var * int * instr list
      (** for (var v = 0; v < k; v++), structural 1 ≤ k ≤ {!max_loop_bound} *)
  | Loop_n of var * var * instr list
      (** counted loop whose bound is a length-tainted variable *)

type func = {
  arity : int;  (** 0‥3 Num params, ids [0 ‥ arity-1] *)
  body : instr list;
  ret : var option;  (** Num in scope at body end; None = return 0 *)
}

type prog = {
  globals : int;  (** global array slots g0‥g(n-1), 0 ≤ n ≤ {!max_globals} *)
  funcs : func list;  (** f<i> may only call f<j>, j < i *)
  main : instr list;
}

val max_loop_bound : int  (** 64 *)

val max_set_len : int  (** 15 *)

val max_globals : int  (** 8 *)

val max_nesting : int  (** 4 — loop/if structural nesting bound *)

val max_func_instrs : int  (** 2048 static instructions per body *)

val max_funcs : int  (** 8 functions per program *)

val max_arity : int  (** 3 parameters per function *)

val max_elems : int  (** 16 elements per array literal *)

val max_work : int
(** 500_000 — budget for the worst-case dynamic instruction estimate
    (structural loops multiply by their bound, [Loop_n] by a fixed
    length bound, calls by the callee's estimate). {!typecheck} rejects
    programs over budget so typed mutants stay under the oracle's step
    limit. *)

val max_cells : int
(** 131_072 ([2{^17}], half the 2{^18}-cell model heap) — budget for the
    worst-case estimate of the heap cells a program allocates: every
    array literal, every [Set_len] regrowth and every append (a constant
    each, amortized over the doubling regrowths), multiplied through
    loops and calls, with [Loop_n] bounded by the length its bound was
    read from. {!typecheck} rejects programs over budget so typed
    mutants never exhaust the model heap. *)

(** {2 Static semantics} *)

(** [typecheck p] — [Ok ()] iff every variable use is in scope with the
    right type, defining ids are fresh, loop bounds/slots/calls are in
    range, loop counters and length-tainted variables are never written
    (so a [Loop_n] runs at most as often as the length its bound was
    read from), [Loop_n] bounds are length-tainted, nesting and size
    stay under the caps, the work and heap estimates stay under
    {!max_work} and {!max_cells}, and [ret] variables are in-scope
    [Num]s.

    Two rules exist because a JIT bailout replays the whole function
    from its entry in the VM tier ({!Jitbull_jit.Engine}): [Print]/
    [Print_tag] and the global reads [Gget_len]/[Gget_elem] are allowed
    in [main] only (main never tiers up). Function bodies may still
    {e write} globals — their stored values derive only from arguments
    and locals, so a replay stores the same values and the observable
    output is bailout-stable. Without this, a mutant placing a print
    before a bounds-check bailout would "mismatch" on a patched engine —
    a false positive. The {!Il_mutate} mutators only emit programs for which
    [typecheck] holds; the property tests assert it. *)
val typecheck : prog -> (unit, string) result

(** {2 Lowering and wire format} *)

(** Lower to mini-JS source. For a typechecked program the result
    parses, compiles, passes the bytecode verifier, and terminates. Each
    array store runs behind a test that its index is an array index
    (an integer in [0, 2{^31})), so a store at any other index — negative,
    fractional, [NaN], [undefined] — is absorbed instead of raising. *)
val to_source : prog -> string

(** Line-oriented textual encoding (the distilled-corpus and sync wire
    format — stable, golden-tested). *)
val serialize : prog -> string

(** Strict inverse of {!serialize}. The result additionally passes
    {!typecheck} or an [Error] is returned. *)
val parse : string -> (prog, string) result

(** {2 Seeds} *)

(** Hand-written IL seed programs: the four aggressive gadget shapes
    from {!Generator} (shrink-between-accesses, stale-length loop,
    constant index, wild store) re-expressed in the IL, plus a benign
    hot-arithmetic program — the initial population of IL campaigns. *)
val seeds : unit -> prog list
