(* Pass framework.

   A pass transforms the MIR graph in place. The shared [ctx] carries the
   vulnerability configuration (which passes run their buggy variant) and
   analysis results handed from annotation passes to later passes (range
   → BCE), mirroring IonMonkey where OptimizeMIR's passes communicate
   through graph annotations. *)

module Mir = Jitbull_mir.Mir

type ctx = {
  vulns : Vuln_config.t;
  (* by iid: proven >= 0 (range analysis); ids past the end are not *)
  mutable nonneg : bool array option;
  (* The inlining pass asks the engine for a callee's freshly built MIR by
     global name. The engine only resolves names that are (a) bound to a
     function at compile time and (b) never reassigned anywhere in the
     program, so inlining the static target is sound. [None] = callee not
     inlinable. *)
  inline_resolver : string -> Mir.t option;
}

let make_ctx ?(inline_resolver = fun _ -> None) vulns =
  { vulns; nonneg = None; inline_resolver }

type t = {
  name : string;
  (* Mandatory passes cannot be disabled; JITBULL falls back to no-JIT for
     a function whose dangerous-pass list contains one (scenario 3 of the
     paper's §V). *)
  can_disable : bool;
  run : ctx -> Mir.t -> unit;
}
