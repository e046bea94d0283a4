(* Alias analysis: in IonMonkey it annotates each load with the store it
   depends on and changes no instruction. Here nothing reads such an
   annotation — LICM computes its own stored-class masks and GVN its own
   dependency tokens ({!Mir_util.compute_load_deps}), because the modeled
   GVN CVEs are precisely bugs in that computation — so the pass does no
   work. It stays in the pipeline because its name is a slot of every
   DNA and DB entry; its Δ is always empty. *)

module Mir = Jitbull_mir.Mir

let run (_ : Pass.ctx) (_ : Mir.t) = ()

let pass : Pass.t = { Pass.name = "aliasanalysis"; can_disable = true; run }
